"""Untrusted input fails only with InterchangeError: the scheme loader and
the curve parser under random mutation."""

import copy
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from d2dcache.bounds import load_external_curve
from d2dcache.catalog import CornerPointId
from d2dcache.errors import InterchangeError
from d2dcache.io import load_scheme_text, scheme_to_dict
from d2dcache.model import LinearScheme

from conftest import cached_2rr1s, cached_kuser

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# small valid exports over GF(2) and GF(4)
BASES = {
    "mds-half N=2": scheme_to_dict(cached_2rr1s(CornerPointId.MDS_HALF, 2)),
    "kuser/mds N=2 K=4 s=1": scheme_to_dict(cached_kuser(CornerPointId.KU_MDS, 2, 4, 1)),
}

FOREIGN = st.sampled_from([True, False, 0.0, 1.5, "1", "", None, [], {}, -1, 2 ** 40])


def _matrices(doc):
    """Every matrix of a document: placements first, then deliveries."""
    out = list(doc["placement"])
    for per in doc["delivery"].values():
        out.extend(per.values())
    return out


@st.composite
def mutations(draw, doc):
    """One change to doc, made in place."""
    kind = draw(st.sampled_from(
        ["entry", "drop-row", "extend-row", "shorten-row", "add-row",
         "size", "demand-key", "sender-key"]))
    matrices = [m for m in _matrices(doc) if m]
    mat = draw(st.sampled_from(matrices))
    row = draw(st.sampled_from(mat))
    if kind == "entry":
        col = draw(st.integers(0, len(row) - 1))
        row[col] = draw(st.one_of(FOREIGN, st.sampled_from([-1, 2 ** doc["field_m"]])))
    elif kind == "drop-row":
        mat.remove(row)
    elif kind == "extend-row":
        row.append(draw(st.integers(0, 1)))
    elif kind == "shorten-row":
        row.pop()
    elif kind == "add-row":
        mat.append(list(row))
    elif kind == "size":
        key = draw(st.sampled_from(["N", "K", "L", "field_m"]))
        doc[key] = draw(st.one_of(st.integers(-2, 20), FOREIGN))
    elif kind == "demand-key":
        old = draw(st.sampled_from(sorted(doc["delivery"])))
        new = draw(st.one_of(st.text(max_size=8), st.just(old.replace(",", ", ")),
                             st.just("0" + old), st.just(old + ",1")))
        doc["delivery"][new] = doc["delivery"].pop(old)
    else:
        per = doc["delivery"][draw(st.sampled_from(sorted(doc["delivery"])))]
        old = draw(st.sampled_from(sorted(per)))
        new = draw(st.one_of(st.text(max_size=4), st.just("0" + old), st.just(" " + old),
                             st.integers(-1, 9).map(str)))
        per[new] = per.pop(old)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        draw(mutations(doc))
    return json.dumps(doc)


@SETTINGS
@given(mutated_documents())
def test_loader_returns_a_scheme_or_raises_interchange_error(text):
    try:
        scheme = load_scheme_text(text)
    except InterchangeError:
        return
    assert isinstance(scheme, LinearScheme)


CURVE_TOKENS = st.sampled_from([
    "1", "0", "-1", "1/2", "3/0", "2.5", "1e3", "1e999999999", "+4", "  7 ", "9" * 5000,
    ",", "#", "# note", "\n", "\t", "x", "1/2/3", "", "\x00", "½",
])

CURVE_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(CURVE_TOKENS, max_size=12).map("".join),
    st.lists(st.tuples(CURVE_TOKENS, CURVE_TOKENS).map(", ".join), max_size=6).map("\n".join),
)


@SETTINGS
@given(CURVE_TEXT, st.one_of(st.none(), st.integers(1, 5)))
def test_curve_parser_raises_only_interchange_error(text, N):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.curve"
        path.write_text(text, encoding="utf-8")
        try:
            curve = load_external_curve(path, N)
        except InterchangeError:
            return
    assert curve.vertices


@SETTINGS
@given(st.binary(max_size=40))
def test_curve_file_of_arbitrary_bytes_raises_only_interchange_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.curve"
        path.write_bytes(data)
        try:
            load_external_curve(path)
        except InterchangeError:
            pass
