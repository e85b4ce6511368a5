"""Orbit-native schemes: one stored delivery per file pattern.

Each OrbitScheme is checked against its own expansion: the LinearScheme
that holds `dict(scheme.delivery)`, in which every demand's rows are
explicit and verify decides them through the exact-match path.
"""

import importlib

import pytest

from conftest import (
    KUSER_CASES,
    TWO_RR_POINTS,
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    placement_with_file_one_reversed,
)
from d2dcache.catalog import CornerPointId
from d2dcache.errors import ConfigurationError
from d2dcache.field import GF2, FieldMatrix
from d2dcache.model import (
    LinearScheme,
    OrbitScheme,
    SenderSignal,
    canonical_file_pattern,
    enumerate_demands,
    enumerate_patterns,
)

# `d2dcache.verify` is rebound to the function by the package, so fetch the module.
verify_mod = importlib.import_module("d2dcache.verify")
model_mod = importlib.import_module("d2dcache.model")
verify = verify_mod.verify


def _orbit_native():
    out = []
    for N in (2, 3, 4):
        for point in TWO_RR_POINTS:
            out.append((f"{point.value}/N={N}", cached_2rr1s(point, N)))
    out.append(("trad/coded-1-1", cached_traditional()))
    for point in (CornerPointId.KU_MAN, CornerPointId.KU_FULL):
        for N, K, s in KUSER_CASES:
            out.append((f"{point.value}/{N},{K},{s}", cached_kuser(point, N, K, s)))
    return out


ORBIT_NATIVE = _orbit_native()
IDS = [label for label, _ in ORBIT_NATIVE]


def _expanded(scheme) -> LinearScheme:
    return LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                        scheme.placement, dict(scheme.delivery))


def _fresh(scheme) -> OrbitScheme:
    """The same design with empty caches, so calls can be counted from the start."""
    return OrbitScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                       scheme.placement, scheme.patterns)


def test_which_builtins_are_orbit_native():
    assert all(isinstance(scheme, OrbitScheme) for _, scheme in ORBIT_NATIVE)
    # their rows would come out reordered if moved: see the catalog docstring
    assert isinstance(cached_kuser(CornerPointId.KU_MDS, 4, 5, 2), LinearScheme)
    assert isinstance(cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2), LinearScheme)


@pytest.mark.parametrize("label,scheme", ORBIT_NATIVE, ids=IDS)
def test_verify_matches_the_expanded_scheme(label, scheme):
    expanded = _expanded(scheme)
    report = verify(scheme)
    assert report.passed, label
    assert report == verify(expanded)
    assert report.to_json_dict() == verify(expanded).to_json_dict()
    assert verify(scheme, check_decodability=False) == verify(expanded, check_decodability=False)
    for d in enumerate_demands(scheme.model, scheme.N, scheme.K, scheme.s):
        got, want = scheme.transmitted_rows(d), expanded.transmitted_rows(d)
        assert {k: m.images for k, m in got.items()} == {k: m.images for k, m in want.items()}
        assert scheme.delivery_row_counts(d) == expanded.delivery_row_counts(d)


@pytest.mark.parametrize("label,scheme", ORBIT_NATIVE, ids=IDS)
def test_verify_multiplies_out_and_decides_only_patterns(label, scheme, monkeypatch):
    sent, decided = [], []
    transmitted, decide = OrbitScheme.transmitted_rows, verify_mod._decide

    def spy_sent(self, d):
        sent.append(d)
        return transmitted(self, d)

    def spy_decide(scheme, user_spans, d, rows):
        decided.append(d)
        return decide(scheme, user_spans, d, rows)

    monkeypatch.setattr(OrbitScheme, "transmitted_rows", spy_sent)
    monkeypatch.setattr(verify_mod, "_decide", spy_decide)
    report = verify(scheme)
    patterns = enumerate_patterns(scheme.model, scheme.N, scheme.K, scheme.s)
    assert sent == patterns
    assert decided == patterns
    assert len(report.demands) > len(patterns)


def test_delivery_builds_each_demand_once(monkeypatch):
    scheme = _fresh(cached_kuser(CornerPointId.KU_MAN, 3, 4, 1))
    built = []
    encode = model_mod.encoded_signal

    def spy(P, images):
        built.append(images)
        return encode(P, images)

    monkeypatch.setattr(model_mod, "encoded_signal", spy)
    first = dict(scheme.delivery)
    count = len(built)
    assert count == len(first) - len(scheme.patterns)  # one sending user per demand
    second = dict(scheme.delivery)
    assert len(built) == count
    for d, per in first.items():
        assert second[d] is per
        assert scheme.delivery[d] is scheme.delivery[d]


def test_delivery_shares_empty_signals():
    man = cached_kuser(CornerPointId.KU_MAN, 4, 5, 2)
    for d, per in man.delivery.items():
        stored = man.patterns[canonical_file_pattern(d)]
        lead, *rest = per
        assert [per[k] for k in rest] == [stored[k] for k in rest]
        assert all(per[k] is stored[k] for k in rest)


def test_delivery_mapping_holds_exactly_the_model_demands():
    scheme = cached_kuser(CornerPointId.KU_MAN, 3, 4, 1)
    demands = enumerate_demands(scheme.model, 3, 4, 1)
    assert list(scheme.delivery) == demands
    assert len(scheme.delivery) == len(demands)
    assert (0, 1, 2, 3) in scheme.delivery
    for outside in [(0, 1, 2, 4), (0, 1, 2), (0, 0, 1, 2), (0, -1, 2, 1), (1, 1, 1, 1)]:
        assert outside not in scheme.delivery
        with pytest.raises(KeyError):
            scheme.delivery[outside]
        with pytest.raises(KeyError):
            scheme.delivery_row_counts(outside)
    with pytest.raises(TypeError):
        scheme.delivery[(0, 1, 2, 1)] = {}


def _without(patterns, d):
    out = dict(patterns)
    del out[d]
    return out


def test_constructor_rejects_what_the_orbit_form_cannot_hold():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 3)
    args = (scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field)
    patterns = scheme.patterns
    raw = SenderSignal(patterns[(0, 1, 1)][1].matrix,
                       raw_rows=FieldMatrix(GF2, 1, scheme.symbol_count, (1,)))
    cases = [
        ("canonical file patterns", scheme.placement, _without(patterns, (0, 1, 2))),
        ("canonical file patterns", scheme.placement,
         {**_without(patterns, (0, 1, 2)), (0, 2, 1): patterns[(0, 1, 2)]}),
        ("raw rows", scheme.placement, {**patterns, (0, 1, 1): {1: raw}}),
        ("senders", scheme.placement, {**patterns, (0, 1, 1): {2: patterns[(1, 0, 1)][2]}}),
        ("not invariant", placement_with_file_one_reversed(scheme), patterns),
    ]
    for match, placement, pats in cases:
        with pytest.raises(ConfigurationError, match=match):
            OrbitScheme(*args, placement, pats)
    # the explicit form accepts the reversed placement, and verify checks every demand in full
    explicit = LinearScheme(*args, placement_with_file_one_reversed(scheme), dict(scheme.delivery))
    assert verify(explicit) == verify(scheme)
