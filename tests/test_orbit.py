"""Orbit verification: verify decides each file-relabelling orbit once.

Every verdict is cross-checked demand by demand against the test-only
oracle `conftest.decodes_demand`, which builds each requester's span from
scratch and never reuses anything.
"""

import importlib
import itertools

import pytest

from conftest import (
    KUSER_CASES,
    all_2rr1s_schemes,
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    decodes_demand,
    with_file_one_reversed,
    xor_rows,
)
from d2dcache.adapters import adapt_request_random, rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache.field import GF2, FieldMatrix, FieldSpec, RowSpan
from d2dcache.model import (
    LinearScheme,
    ModelKind,
    SenderSignal,
    canonical_file_pattern,
    file_symmetric,
    permute_scheme,
    requesters_of,
    senders_of,
)
from d2dcache.sharing import symmetrize

# `d2dcache.verify` is rebound to the function by the package, so fetch the module.
verify_mod = importlib.import_module("d2dcache.verify")
verify = verify_mod.verify


def _catalog_schemes():
    """(label, scheme) for every catalog design at the sizes the suite uses."""
    out = list(all_2rr1s_schemes(range(2, 5)))
    out.append(("trad/coded-1-1", cached_traditional()))
    for point in (CornerPointId.KU_MAN, CornerPointId.KU_MDS):
        for N, K, s in KUSER_CASES:
            out.append((f"{point.value}/{N},{K},{s}", cached_kuser(point, N, K, s)))
    # GF(4) and GF(8) MDS placements
    out.append(("ku-mds/3,4,1 GF(4)", cached_kuser(CornerPointId.KU_MDS, 3, 4, 1)))
    out.append(("ku-mds/2,6,3 GF(8)", cached_kuser(CornerPointId.KU_MDS, 2, 6, 3)))
    return out


def _transformed_schemes():
    out = []
    for N in (2, 3):
        base = cached_2rr1s(CornerPointId.MDS_HALF, N)
        out.append((f"rotate(mds-half)/N={N}", rotate_2rr1s(base)))
        out.append((f"adapt(mds-half)/N={N}", adapt_request_random(base).scheme))
    out.append(("symmetrize(man-2-3)/N=2 lazily",
                symmetrize(cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2))))
    out.append(("symmetrize(half-rate)/N=2 explicitly",
                symmetrize(cached_2rr1s(CornerPointId.HALF_RATE, 2)).to_explicit()))
    out.append(("symmetrize(ku-mds 2,3,1) explicitly",
                symmetrize(cached_kuser(CornerPointId.KU_MDS, 2, 3, 1)).to_explicit()))
    return out


def assert_matches_oracle(scheme, report):
    for entry in report.demands:
        d = entry.demand
        if entry.rate is None:  # no delivery at all
            assert entry.decodable is False and entry.failed_users == (), d
            continue
        signals = scheme.transmitted_rows(d)
        failed = tuple(r for r in requesters_of(d)
                       if not decodes_demand(scheme, d, [r], signals))
        assert entry.failed_users == failed, d
        assert entry.decodable is (not failed), d


def _placement_symmetric(scheme) -> bool:
    return file_symmetric(scheme.placement, scheme.N, scheme.L)


def _invariant_under_every_permutation(scheme) -> bool:
    """Reference: relabel the files by each element of S_N and compare spans."""
    identity = tuple(range(1, scheme.K + 1))
    for fp in itertools.permutations(range(1, scheme.N + 1)):
        moved = permute_scheme(scheme, identity, fp)
        for k in range(1, scheme.K + 1):
            span = RowSpan(scheme.field, scheme.symbol_count)
            span.add_matrix(scheme.placement[k - 1])
            if not all(span.contains(image) for image in moved.placement[k - 1].images):
                return False
    return True


def _placement_only(field, row) -> LinearScheme:
    """N = 3, L = 1: every user caches the one given row; no delivery."""
    cache = FieldMatrix.from_rows(field, [row])
    return LinearScheme(ModelKind.TWO_RR_ONE_S, 3, 3, 1, 1, field, (cache,) * 3, {})


def _replace(scheme, delivery) -> LinearScheme:
    return LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
                        scheme.placement, delivery)


# ---------------------------------------------------------------------------
# cross-check against the oracle
# ---------------------------------------------------------------------------

CATALOG = _catalog_schemes()
TRANSFORMED = _transformed_schemes()
SYMMETRY_CASES = [
    *all_2rr1s_schemes(range(2, 4)),
    ("trad/coded-1-1", cached_traditional()),
    ("ku-mds/3,4,1", cached_kuser(CornerPointId.KU_MDS, 3, 4, 1)),
    ("ku-man/3,4,1", cached_kuser(CornerPointId.KU_MAN, 3, 4, 1)),
    *((f"{point.value}/N={N} file 1 reversed", with_file_one_reversed(cached_2rr1s(point, N)))
      for point in (CornerPointId.HALF_RATE, CornerPointId.MAN_TWO_THIRDS) for N in (2, 3)),
    # fixed by the transposition (1 2) only, and by the 3-cycle only (w = 2 in GF(4))
    ("file 3 alone", _placement_only(GF2, (0, 0, 1))),
    ("(1, w, w^2) over GF(4)", _placement_only(FieldSpec(2), (1, 2, 3))),
]


def _ids(cases):
    return [label for label, _ in cases]


@pytest.mark.parametrize("label,scheme", CATALOG, ids=_ids(CATALOG))
def test_catalog_verdicts_match_oracle_with_one_full_check_per_orbit(label, scheme, full_checks):
    report = verify(scheme)
    assert report.passed, label
    assert_matches_oracle(scheme, report)
    # every catalog delivery is equivariant: each demand is decided in its
    # pattern's frame, and each orbit builds at most one span
    patterns = {canonical_file_pattern(d) for d in scheme.delivery}
    assert set(full_checks.frames) == patterns, label
    assert full_checks.check_spans <= len(patterns), label


@pytest.mark.parametrize("label,scheme", TRANSFORMED, ids=_ids(TRANSFORMED))
def test_transformed_verdicts_match_oracle(label, scheme):
    assert_matches_oracle(scheme, verify(scheme))


# ---------------------------------------------------------------------------
# the invariance test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,scheme", SYMMETRY_CASES, ids=_ids(SYMMETRY_CASES))
def test_generator_test_agrees_with_every_permutation(label, scheme):
    assert _placement_symmetric(scheme) == _invariant_under_every_permutation(scheme), label


def test_half_rate_chain_rows_span_a_file_symmetric_space():
    # For user 1, the chain rows (n, 2) + (n+1, 1) plus the cached sums
    # (n, 1) + (n, 2) give (n, 1) + (n+1, 1), and those differences span a
    # space that every file permutation fixes.
    for N in (2, 3, 4):
        assert _placement_symmetric(cached_2rr1s(CornerPointId.HALF_RATE, N))


# ---------------------------------------------------------------------------
# fallbacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3])
def test_scheme_failing_the_invariance_test_checks_every_demand(N, full_checks):
    base = cached_2rr1s(CornerPointId.HALF_RATE, N)
    scheme = with_file_one_reversed(base)
    assert not _placement_symmetric(scheme)
    full_checks.clear()
    report = verify(scheme)
    assert full_checks.frames == sorted(scheme.delivery)
    assert report == verify(base)
    assert_matches_oracle(scheme, report)


@pytest.mark.parametrize("how", ["rows removed", "key removed"])
def test_representative_without_delivery_fails_alone(how, full_checks):
    scheme = cached_kuser(CornerPointId.KU_MAN, 4, 5, 2)
    valid = verify(scheme)
    # the first demand of an orbit in enumeration order is its representative
    rep = min(d for d in scheme.delivery if canonical_file_pattern(d) == (0, 0, 1, 2, 1))
    delivery = dict(scheme.delivery)
    if how == "rows removed":
        delivery[rep] = {k: SenderSignal(FieldMatrix.empty(scheme.field, scheme.placement_rows(k)))
                         for k in delivery[rep]}
    else:
        del delivery[rep]
    broken = _replace(scheme, delivery)
    full_checks.clear()
    report = verify(broken)
    assert_matches_oracle(broken, report)
    for before, after in zip(valid.demands, report.demands):
        if after.demand == rep:
            assert after.decodable is False
        else:
            assert after == before
    # the representative, if it has a delivery, and one other member are
    # decided; the rest of the orbit sends that member's rows moved
    orbit_checks = full_checks.frames.count((0, 0, 1, 2, 1))
    assert orbit_checks == (2 if how == "rows removed" else 1)


def test_swapped_deliveries_within_an_orbit_are_checked_in_full(full_checks):
    scheme = cached_kuser(CornerPointId.KU_MAN, 3, 4, 1)
    pattern = (0, 1, 2, 1)
    _, a, b = sorted(d for d in scheme.delivery if canonical_file_pattern(d) == pattern)[:3]
    sender = senders_of(a)[0]
    (row_a,) = scheme.delivery[a][sender].matrix.rows
    (row_b,) = scheme.delivery[b][sender].matrix.rows
    # Two bases of one span that serves both demands; then a and b swap them.
    serves_both = {a: [row_a, row_b], b: [row_a, xor_rows(row_a, row_b)]}
    width = scheme.placement_rows(sender)
    delivery = dict(scheme.delivery)
    for d, other in ((a, b), (b, a)):
        encoding = FieldMatrix.from_rows(scheme.field, serves_both[other], ncols=width)
        delivery[d] = {sender: SenderSignal(encoding)}
    swapped = _replace(scheme, delivery)
    full_checks.clear()
    report = verify(swapped)
    assert_matches_oracle(swapped, report)
    assert report.passed
    # the pattern, then a and b, whose moved rows differ from it and from each other
    assert full_checks.frames.count(pattern) == 3
