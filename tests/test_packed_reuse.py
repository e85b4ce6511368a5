"""Explicit verify: one product per distinct encoding, each demand decided in its frame.

Each scheme is verified twice: as the package does it, and with
`_entries` swapped for the oracle `conftest.frame_rule_entries`, which
multiplies out every demand on its own and moves each row onto the
demand's frame.  Both must give the full check to the same frames, in the
same order, and produce identical reports.
"""

import importlib

import pytest

from conftest import cached_2rr1s, cached_kuser, explicit_kuser_mds, frame_rule_entries
from d2dcache.adapters import rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache.field import FieldMatrix, solve_in_rowspace
from d2dcache.model import (
    LinearScheme,
    SenderSignal,
    canonical_file_pattern,
    enumerate_demands,
    file_order,
    move_files,
    permute_scheme,
)

# `d2dcache.verify` is rebound to the function by the package, so fetch the module.
verify_mod = importlib.import_module("d2dcache.verify")

MDS, MAN = CornerPointId.KU_MDS, CornerPointId.KU_MAN


def _explicit(scheme, delivery=None) -> LinearScheme:
    return LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                        scheme.placement, dict(scheme.delivery if delivery is None else delivery))


def _member(scheme, pattern, i):
    """The i-th demand of the pattern's orbit in enumeration order; 0 is the pattern."""
    return sorted(d for d in scheme.delivery if canonical_file_pattern(d) == pattern)[i]


def _without_rows(scheme, d) -> LinearScheme:
    """The kuser/mds broken copy of the benchmark: every delivery row of d removed."""
    delivery = dict(scheme.delivery)
    delivery[d] = {k: SenderSignal(FieldMatrix.empty(scheme.field, scheme.placement_rows(k)))
                   for k in delivery[d]}
    return _explicit(scheme, delivery)


def _rows_changed(scheme, change):
    """A copy whose first non-pattern demand with two rows at one sender sends change(images)."""
    for d, per in scheme.delivery.items():
        for k, sig in per.items():
            if canonical_file_pattern(d) != d and sig.matrix.nrows > 1:
                images = change(sig.matrix.images)
                moved = FieldMatrix(scheme.field, len(images), sig.matrix.ncols, images)
                return _explicit(scheme, {**scheme.delivery, d: {**per, k: SenderSignal(moved)}}), d
    raise AssertionError("no sender with two rows")


def _row_moved(scheme):
    """(copy, d): a non-pattern demand d with one row sent by another sender that caches it.

    The moved row goes last in the other sender's rows.
    """
    for d, per in scheme.delivery.items():
        if canonical_file_pattern(d) == d:
            continue
        for a, b in ((a, b) for a in per for b in per if a != b):
            rows = per[a].matrix.matmul(scheme.placement[a - 1]).rows
            for i, row in enumerate(rows):
                coeffs = solve_in_rowspace(row, scheme.placement[b - 1])
                if coeffs is None:
                    continue
                kept = [r for j, r in enumerate(per[a].matrix.rows) if j != i]
                width_a, width_b = per[a].matrix.ncols, per[b].matrix.ncols
                moved = {**per,
                         a: SenderSignal(FieldMatrix.from_rows(scheme.field, kept, width_a)),
                         b: SenderSignal(FieldMatrix.from_rows(
                             scheme.field, [*per[b].matrix.rows, coeffs], width_b))}
                return _explicit(scheme, {**scheme.delivery, d: moved}), d
    raise AssertionError("no row cached by two senders")


def _sent(scheme, d) -> list[int]:
    """d's transmitted row images, sender by sender."""
    return [image for mat in scheme.transmitted_rows(d).values() for image in mat.images]


def _pattern_rows_moved(scheme, d) -> list[int]:
    """The transmitted images of d's pattern, each moved onto d."""
    pattern = _member(scheme, canonical_file_pattern(d), 0)
    order = file_order(d, scheme.N)
    return [move_files(image, order, scheme.L * scheme.field.m) for image in _sent(scheme, pattern)]


def _broken(pattern, i):
    scheme = cached_kuser(MDS, 4, 5, 2)
    return _without_rows(scheme, _member(scheme, pattern, i)), None


# label -> (scheme, a demand that sends its pattern's moved rows, in some order, or None)
CASES = {
    "kuser/mds broken copy, a member removed": lambda: _broken((0, 0, 1, 2, 1), 2),
    "kuser/mds broken copy, a pattern removed": lambda: _broken((0, 1, 0, 2, 2), 0),
    "kuser/mds ascending export": lambda: (explicit_kuser_mds(4, 5, 2), None),
    "permute_scheme(kuser/man)": lambda: (
        permute_scheme(cached_kuser(MAN, 3, 4, 1), (2, 4, 1, 3), (3, 1, 2)), None),
    "rotate_2rr1s(half-rate), raw rows": lambda: (
        _explicit(rotate_2rr1s(cached_2rr1s(CornerPointId.HALF_RATE, 3))), None),
    "rotate_2rr1s(man-2-3), expanded": lambda: (
        _explicit(rotate_2rr1s(cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 3))), None),
    "kuser/mds, one demand's rows reversed": lambda: _rows_changed(
        cached_kuser(MDS, 4, 5, 2), lambda images: images[::-1]),
    # a zero row leaves the packed int unchanged but not the row count
    "kuser/mds, one demand sends an extra zero row": lambda: (_rows_changed(
        cached_kuser(MDS, 4, 5, 2), lambda images: images + (0,))[0], None),
    "kuser/man, one row moved to another sender": lambda: _row_moved(cached_kuser(MAN, 4, 5, 2)),
    "2rr1s/n2-7-8 N=2": lambda: (cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2), None),
}

# label -> RowSpans the full checks of one verify call build, and what the
# representative rule builds with the same memo: decide each orbit's first
# demand, reuse its verdict for the demands whose rows are its rows moved, as
# a multiset, and decide every other demand on its own rows.
SPANS = {
    "kuser/mds broken copy, a member removed": (41, 41),
    "kuser/mds broken copy, a pattern removed": (41, 52),
    "kuser/mds ascending export": (40, 40),
    "permute_scheme(kuser/man)": (20, 20),
    "rotate_2rr1s(half-rate), raw rows": (5, 5),
    "rotate_2rr1s(man-2-3), expanded": (5, 5),
    "kuser/mds, one demand's rows reversed": (40, 40),
    "kuser/mds, one demand sends an extra zero row": (41, 41),
    "kuser/man, one row moved to another sender": (50, 50),
    "2rr1s/n2-7-8 N=2": (6, 6),
}


def _verify(scheme, full_checks, entries=None, **kwargs):
    """(the frames given a full check, in order; the report's JSON document).

    entries, when given, stands in for `verify._entries`.
    """
    full_checks.clear()
    with pytest.MonkeyPatch.context() as patch:
        if entries is not None:
            patch.setattr(verify_mod, "_entries", entries)
        report = verify_mod.verify(scheme, **kwargs)
    return full_checks.frames, report.to_json_dict()


@pytest.mark.parametrize("label", list(CASES))
def test_full_checks_and_reports_match_the_multiset_rule(label, full_checks):
    """verify decides the frames the oracle does, in order, and reports the same.

    The memo, keyed by sorted rows, then makes the verdict one per frame and
    moved row multiset.
    """
    scheme, reused = CASES[label]()
    assert isinstance(scheme, LinearScheme)
    decided, doc = _verify(scheme, full_checks)
    assert (decided, doc) == _verify(scheme, full_checks, frame_rule_entries), label
    assert (_verify(scheme, full_checks, check_decodability=False)
            == _verify(scheme, full_checks, frame_rule_entries, check_decodability=False))
    if reused is not None:
        # only the pattern's own check builds a span in the orbit
        _verify(scheme, full_checks)
        pattern = canonical_file_pattern(reused)
        spans = [spans for frame, _, spans in full_checks.checks if frame == pattern]
        assert spans[0] <= 1 and not any(spans[1:])


@pytest.mark.parametrize("label", list(CASES))
def test_full_checks_build_no_more_spans_than_the_representative_rule(label, full_checks):
    now, representative = SPANS[label]
    scheme, _ = CASES[label]()
    full_checks.clear()
    verify_mod.verify(scheme)
    assert full_checks.check_spans == now <= representative


def test_cases_reach_reuse_fallback_and_failure(full_checks):
    """The cases exercise what they are named for."""
    def run(label):
        scheme, _ = CASES[label]()
        decided, doc = _verify(scheme, full_checks)
        return scheme, decided, doc

    # a removed pattern is decided, then one other member for the rest of its orbit
    scheme, decided, doc = run("kuser/mds broken copy, a pattern removed")
    assert decided.count((0, 1, 0, 2, 2)) == 2 and len(decided) < len(scheme.delivery)
    assert sum(not e["decodable"] for e in doc["demands"]) == 1
    # demands that list their moved rows in another order reach _decide but build no span
    for label in ("kuser/mds ascending export", "2rr1s/n2-7-8 N=2"):
        scheme, decided, doc = run(label)
        assert any(_sent(scheme, d) != _pattern_rows_moved(scheme, d)
                   for d in scheme.delivery), label
        assert len(set(decided)) < len(decided) <= len(scheme.delivery), label
        assert full_checks.check_spans <= len(set(decided)), label
    scheme, decided, doc = run("kuser/mds, one demand sends an extra zero row")
    (d,) = [d for d in scheme.delivery if 0 in _sent(scheme, d)]
    assert decided.count(canonical_file_pattern(d)) == 2
    scheme, decided, doc = run("rotate_2rr1s(half-rate), raw rows")
    assert not scheme.encoding_clean
    scheme, decided, doc = run("rotate_2rr1s(man-2-3), expanded")
    assert {e["demand"] for e in doc["demands"] if not e["decodable"]} == {
        ",".join(map(str, d)) for d in enumerate_demands(scheme.model, 3, 3, 0) if d[0] == d[2]}


def test_explicit_verify_multiplies_each_distinct_encoding_once(monkeypatch):
    scheme, _ = _broken((0, 0, 1, 2, 1), 2)
    distinct = {(k, sig.matrix.images) for per in scheme.delivery.values()
                for k, sig in per.items()}
    products = []
    matmul = FieldMatrix.matmul

    def spy(self, other):
        products.append(self)
        return matmul(self, other)

    monkeypatch.setattr(FieldMatrix, "matmul", spy)
    verify_mod.verify(scheme)
    assert len(products) == len(distinct) == 202
    assert len(scheme.delivery) == 640


def test_sender_rows_are_read_only_and_shared():
    orbit = cached_kuser(MAN, 3, 4, 1)
    for scheme in (orbit, _explicit(orbit)):
        for check in (True, False):
            entries = verify_mod.verify(scheme, check_decodability=check).demands
            with pytest.raises(TypeError):
                entries[0].sender_rows[1] = 0
            by_counts = {}
            for e in entries:
                assert by_counts.setdefault(tuple(e.sender_rows.items()), e.sender_rows) \
                    is e.sender_rows
