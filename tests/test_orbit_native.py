"""Orbit-native schemes: one stored delivery per file pattern.

Each OrbitScheme is checked against its own expansion: the LinearScheme
that holds `dict(scheme.delivery)`, in which every demand's rows are
explicit and verify decides them through the exact-match path.  Memory
shares, rotations and request-random adaptations of OrbitSchemes are
checked against the same transform applied to the expansions, and
kuser/mds against the explicit builder it replaced
(`conftest.explicit_kuser_mds`), up to row order.
"""

import importlib
import itertools
import math
from fractions import Fraction

import pytest

from conftest import (
    KUSER_CASES,
    TWO_RR_POINTS,
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    explicit_kuser_mds,
    placement_with_file_one_reversed,
)
from d2dcache.adapters import adapt_request_random, rotate_2rr1s
from d2dcache.catalog import CornerPointId, build_kuser_scheme
from d2dcache.errors import ConfigurationError
from d2dcache.field import GF2, FieldMatrix
from d2dcache.model import (
    LinearScheme,
    OrbitScheme,
    SenderSignal,
    canonical_file_pattern,
    encoded_signal,
    enumerate_demands,
    enumerate_patterns,
    unit_image,
)
from d2dcache.sharing import memory_share

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
    for point in (CornerPointId.KU_MDS, CornerPointId.KU_MAN, CornerPointId.KU_FULL):
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
    assert isinstance(cached_kuser(CornerPointId.KU_MDS, 4, 5, 2), OrbitScheme)
    # only n2-7-8 stays explicit: see the catalog docstring
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


def _assert_verify_reads_only_patterns(scheme, monkeypatch, full_checks):
    read = []
    signals = OrbitScheme.signals

    def spy_signals(self, d):
        read.append(d)
        return signals(self, d)

    monkeypatch.setattr(OrbitScheme, "signals", spy_signals)
    full_checks.clear()
    report = verify(scheme)
    patterns = enumerate_patterns(scheme.model, scheme.N, scheme.K, scheme.s)
    assert read == patterns
    assert full_checks.frames == patterns
    assert len(report.demands) > len(patterns)


@pytest.mark.parametrize("label,scheme", ORBIT_NATIVE, ids=IDS)
def test_verify_multiplies_out_and_decides_only_patterns(label, scheme, monkeypatch, full_checks):
    _assert_verify_reads_only_patterns(scheme, monkeypatch, full_checks)


@pytest.mark.parametrize("point", [CornerPointId.KU_MAN, CornerPointId.KU_MDS])
def test_verify_reuses_the_constructors_pattern_rows(point, monkeypatch):
    """The constructor multiplied every pattern out, so verify multiplies nothing."""
    scheme = build_kuser_scheme(point, 4, 7, 3)
    products = []
    matmul = FieldMatrix.matmul

    def spy(self, other):
        products.append(self.nrows)
        return matmul(self, other)

    monkeypatch.setattr(FieldMatrix, "matmul", spy)
    assert verify(scheme).passed
    assert products == []


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


@pytest.mark.parametrize("label,scheme", ORBIT_NATIVE, ids=IDS)
def test_delivery_expresses_the_moved_rows(label, scheme):
    for d, per in scheme.delivery.items():
        moved = scheme.transmitted_rows(d)
        assert per == {k: encoded_signal(scheme.placement[k - 1], moved[k].images)
                       for k in per}, d
        assert scheme.signals(d) == per


@pytest.mark.parametrize("N,K,s", KUSER_CASES)
def test_kuser_mds_matches_the_explicit_oracle(N, K, s):
    scheme = cached_kuser(CornerPointId.KU_MDS, N, K, s)
    oracle = explicit_kuser_mds(N, K, s)
    assert verify(scheme).to_json_dict() == verify(oracle).to_json_dict()
    assert [P.images for P in scheme.placement] == [P.images for P in oracle.placement]
    assert list(scheme.delivery) == list(oracle.delivery)
    for d, per in scheme.delivery.items():
        # the same rows; a moved demand lists them in first-appearance order of its files
        assert ({k: (sorted(sig.matrix.images), sig.raw_rows) for k, sig in per.items()}
                == {k: (sorted(sig.matrix.images), sig.raw_rows)
                    for k, sig in oracle.delivery[d].items()}), d


@pytest.mark.parametrize("N,K,s", KUSER_CASES)
def test_kuser_mds_delivery_shares_equal_signals(N, K, s):
    scheme = _fresh(cached_kuser(CornerPointId.KU_MDS, N, K, s))
    by_coeffs = {}
    for d, per in scheme.delivery.items():
        assert len({id(sig) for sig in per.values()}) == 1, d
        for sig in per.values():
            by_coeffs.setdefault((sig.matrix.ncols, sig.matrix.images), set()).add(id(sig))
    assert all(len(ids) == 1 for ids in by_coeffs.values())
    # one signal per ordered choice of the requested files
    requested = range(1, min(N, K - s) + 1)
    assert len(by_coeffs) == sum(math.perm(N, j) for j in requested)


def _without(patterns, d):
    out = dict(patterns)
    del out[d]
    return out


def test_constructor_rejects_what_the_orbit_form_cannot_hold():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 3)
    args = (scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field)
    patterns = scheme.patterns
    cases = [
        ("canonical file patterns", scheme.placement, _without(patterns, (0, 1, 2))),
        ("canonical file patterns", scheme.placement,
         {**_without(patterns, (0, 1, 2)), (0, 2, 1): patterns[(0, 1, 2)]}),
        ("senders", scheme.placement, {**patterns, (0, 1, 1): {2: patterns[(1, 0, 1)][2]}}),
        ("not invariant", placement_with_file_one_reversed(scheme), patterns),
    ]
    for match, placement, pats in cases:
        with pytest.raises(ConfigurationError, match=match):
            OrbitScheme(*args, placement, pats)
    # the explicit form accepts the reversed placement, and verify checks every demand in full
    explicit = LinearScheme(*args, placement_with_file_one_reversed(scheme), dict(scheme.delivery))
    assert verify(explicit) == verify(scheme)


def test_constructor_rejects_rows_that_move_with_unrequested_files():
    scheme = cached_2rr1s(CornerPointId.MDS_HALF, 3)
    N, L = scheme.N, scheme.L
    parity = {n: unit_image(N, L, n, 1) ^ unit_image(N, L, n, 2) for n in range(1, N + 1)}
    # (0, 1, 1) requests file 1 only; parity[2] moves when files 2 and 3 swap, so the
    # delivery of (0, 2, 2) or (0, 3, 3) would depend on which relabelling is chosen
    moving = encoded_signal(scheme.placement[0], [parity[1], parity[2]])
    args = (scheme.model, N, scheme.K, scheme.s, L, scheme.field, scheme.placement)
    with pytest.raises(ConfigurationError, match=r"pattern \(0, 1, 1\) sends rows that move"):
        OrbitScheme(*args, {**scheme.patterns, (0, 1, 1): {1: moving}})
    OrbitScheme(*args, scheme.patterns)  # the builder's own rows touch only requested files


def test_constructor_rejects_raw_rows_that_move_with_unrequested_files():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 3)
    N, L = scheme.N, scheme.L
    args = (scheme.model, N, scheme.K, scheme.s, L, scheme.field, scheme.placement)
    stored = scheme.patterns[(0, 1, 1)][1]

    def with_raw(image):
        return {**scheme.patterns, (0, 1, 1): {1: SenderSignal(
            stored.matrix, FieldMatrix(GF2, 1, scheme.symbol_count, (image,)))}}

    # a raw row of file 1, which (0, 1, 1) requests, is fixed by every swap of files 2 and 3
    assert not OrbitScheme(*args, with_raw(unit_image(N, L, 1, 1))).encoding_clean
    with pytest.raises(ConfigurationError, match=r"pattern \(0, 1, 1\) sends rows that move"):
        OrbitScheme(*args, with_raw(unit_image(N, L, 2, 1)))


def test_raw_only_signals_keep_their_own_raw_rows():
    """Every sender sends mds-half's rows as raw rows, over no encoding row.

    All of one sender's signals then have equal (empty) coefficients, so
    only their raw rows tell them apart.
    """
    base = cached_2rr1s(MDS, 3)
    patterns = {}
    for d, per in base.patterns.items():
        patterns[d] = {}
        for k, sig in per.items():
            images = sig.sent(base.placement[k - 1])
            patterns[d][k] = SenderSignal(
                FieldMatrix.empty(base.field, base.placement_rows(k)),
                FieldMatrix(base.field, len(images), base.symbol_count, images))
    scheme = OrbitScheme(base.model, base.N, base.K, base.s, base.L, base.field,
                         base.placement, patterns)
    assert not scheme.encoding_clean
    assert len({sig.raw_rows.images for per in scheme.delivery.values()
                for sig in per.values()}) > len(patterns)
    for d in enumerate_demands(scheme.model, scheme.N, scheme.K, scheme.s):
        assert scheme.delivery[d] == scheme.signals(d), d
        assert ({k: m.images for k, m in scheme.transmitted_rows(d).items()}
                == {k: m.images for k, m in base.transmitted_rows(d).items()}), d
    report = verify(scheme)
    assert report.all_decodable and not report.passed
    assert report.to_json_dict() == verify(_expanded(scheme)).to_json_dict()


# ---------------------------------------------------------------------------
# transforms: memory shares and rotations of OrbitSchemes
# ---------------------------------------------------------------------------

MDS, MAN, HALF, FULL = (CornerPointId.MDS_HALF, CornerPointId.MAN_TWO_THIRDS,
                        CornerPointId.HALF_RATE, CornerPointId.FULL)


def _share(first, second, N, alpha=Fraction(1, 3)):
    return memory_share(cached_2rr1s(first, N), cached_2rr1s(second, N), alpha)


def test_which_transforms_stay_orbit_native():
    for N in (2, 3):
        assert isinstance(_share(MDS, MAN, N), OrbitScheme)
        assert isinstance(_share(HALF, FULL, N, Fraction(1, 2)), OrbitScheme)
        for point in (FULL, MDS, MAN):
            assert isinstance(rotate_2rr1s(cached_2rr1s(point, N)), OrbitScheme)
        # half-rate's user-2 rows cross files and rotate to raw rows, which move like the rest
        assert isinstance(rotate_2rr1s(cached_2rr1s(HALF, N)), OrbitScheme)
        assert isinstance(adapt_request_random(cached_2rr1s(MDS, N)).scheme, OrbitScheme)
    assert isinstance(rotate_2rr1s(_share(MDS, MAN, 2)), OrbitScheme)
    n2 = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    assert isinstance(memory_share(cached_2rr1s(MDS, 2), n2, Fraction(1, 2)), LinearScheme)
    assert isinstance(rotate_2rr1s(n2), LinearScheme)
    kuser = memory_share(cached_kuser(CornerPointId.KU_MAN, 3, 4, 1),
                         cached_kuser(CornerPointId.KU_FULL, 3, 4, 1), Fraction(1, 2))
    assert isinstance(kuser, OrbitScheme)


def _assert_same_scheme(got, want):
    """Equal placement, equal signals and transmitted images for every demand, equal reports."""
    assert (got.model, got.N, got.K, got.s, got.L, got.field) == (
        want.model, want.N, want.K, want.s, want.L, want.field)
    assert [P.images for P in got.placement] == [P.images for P in want.placement]
    demands = enumerate_demands(want.model, want.N, want.K, want.s)
    assert list(got.delivery_demands()) == list(want.delivery_demands()) == demands
    for d in demands:
        coeffs = {k: (sig.matrix.images, sig.raw_rows and sig.raw_rows.images)
                  for k, sig in got.delivery[d].items()}
        assert coeffs == {k: (sig.matrix.images, sig.raw_rows and sig.raw_rows.images)
                          for k, sig in want.delivery[d].items()}, d
        assert ({k: m.images for k, m in got.transmitted_rows(d).items()}
                == {k: m.images for k, m in want.transmitted_rows(d).items()}), d
    assert verify(got).to_json_dict() == verify(want).to_json_dict()


def _rotation_cases():
    for N in (2, 3, 4, 5):
        for point in TWO_RR_POINTS:
            yield f"{point.value}/N={N}", lambda p=point, n=N: cached_2rr1s(p, n)
    for N in (2, 3):
        yield f"share(mds-half, man-2-3)/N={N}", lambda n=N: _share(MDS, MAN, n)


def _share_cases():
    for N in (2, 3):
        for first, second in itertools.combinations(TWO_RR_POINTS, 2):
            yield (f"{first.value}+{second.value}/N={N}",
                   lambda a=first, b=second, n=N: (cached_2rr1s(a, n), cached_2rr1s(b, n)))
    yield "coded-1-1+coded-1-1", lambda: (cached_traditional(), cached_traditional())
    for N, K, s in ((2, 3, 1), (3, 4, 1)):
        yield (f"ku-man+ku-full/{N},{K},{s}",
               lambda n=N, k=K, s=s: (cached_kuser(CornerPointId.KU_MAN, n, k, s),
                                      cached_kuser(CornerPointId.KU_FULL, n, k, s)))


ROTATIONS = list(_rotation_cases())
SHARES = list(_share_cases())


@pytest.mark.parametrize("label,base", ROTATIONS, ids=[label for label, _ in ROTATIONS])
def test_rotation_equals_the_rotation_of_the_expanded_base(label, base):
    base = base()
    _assert_same_scheme(rotate_2rr1s(base), rotate_2rr1s(_expanded(base)))
    got, want = adapt_request_random(base), adapt_request_random(_expanded(base))
    _assert_same_scheme(got.scheme, want.scheme)
    assert got.per_r_worst == want.per_r_worst
    assert got.fake_assignments == want.fake_assignments


@pytest.mark.parametrize("label,pair", SHARES, ids=[label for label, _ in SHARES])
def test_share_equals_the_share_of_the_expanded_blocks(label, pair):
    a, b = pair()
    alpha = Fraction(2, 5)
    got = memory_share(a, b, alpha)
    assert isinstance(got, OrbitScheme)
    _assert_same_scheme(got, memory_share(_expanded(a), _expanded(b), alpha))


@pytest.mark.parametrize("make", [lambda: _share(HALF, MAN, 3, Fraction(2, 5)),
                                  lambda: rotate_2rr1s(cached_2rr1s(MDS, 3)),
                                  lambda: rotate_2rr1s(cached_2rr1s(MAN, 3)),
                                  lambda: adapt_request_random(cached_2rr1s(MDS, 3)).scheme,
                                  lambda: adapt_request_random(cached_2rr1s(MAN, 3)).scheme],
                         ids=["share(half-rate, man-2-3)", "rotate(mds-half)", "rotate(man-2-3)",
                              "adapt(mds-half)", "adapt(man-2-3)"])
def test_verify_of_a_transform_decides_only_patterns(make, monkeypatch, full_checks):
    scheme = make()
    assert isinstance(scheme, OrbitScheme)
    _assert_verify_reads_only_patterns(scheme, monkeypatch, full_checks)


def test_rotation_reads_base_signals_without_expanding_the_base():
    base = _fresh(cached_2rr1s(MDS, 4))
    rotated = rotate_2rr1s(base)
    assert isinstance(rotated, OrbitScheme)
    assert "delivery" not in vars(base)
    _assert_same_scheme(rotated, rotate_2rr1s(cached_2rr1s(MDS, 4)))
    adapted = adapt_request_random(base).scheme
    assert "delivery" not in vars(base)
    _assert_same_scheme(adapted, adapt_request_random(_expanded(base)).scheme)
