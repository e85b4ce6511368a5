"""Scheme model: demand enumeration, verification, sharing, permutation."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import d2dcache
from d2dcache.adapters import adapt_request_random, rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache.errors import ConfigurationError, ResourceBudgetError
from d2dcache.field import GF2, FieldMatrix
from d2dcache.io import dump_scheme
from d2dcache.model import (
    DEMAND_BUDGET,
    LinearScheme,
    ModelKind,
    SenderSignal,
    canonical_file_pattern,
    demand_count,
    enumerate_demands,
    enumerate_patterns,
    idle_counts,
    permute_scheme,
    requesters_of,
    senders_of,
)
from d2dcache import sharing as sharing_mod
from d2dcache.sharing import DEFAULT_SYMMETRIZE_BUDGET, memory_share, symmetrize
from d2dcache.verify import _recovery_groups, verify

from conftest import (
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    decodes_demand,
    row_set,
    unit_row,
)


# ---------------------------------------------------------------------------
# demand enumeration
# ---------------------------------------------------------------------------

def test_demand_counts():
    assert len(enumerate_demands(ModelKind.TWO_RR_ONE_S, 2, 3, 1)) == 12
    assert len(enumerate_demands(ModelKind.TRADITIONAL_D2D, 2, 3, 0)) == 8
    assert len(enumerate_demands(ModelKind.K_USER_S_SENDERS, 3, 4, 2)) == 54
    assert len(enumerate_demands(ModelKind.REQUEST_RANDOM, 2, 3)) == 27


def test_demand_order_and_patterns():
    demands = enumerate_demands(ModelKind.TWO_RR_ONE_S, 2, 3, 1)
    assert demands == sorted(demands)
    assert all(d.count(0) == 1 for d in demands)
    assert demands[0] == (0, 1, 1)


def test_senders_and_requesters():
    assert senders_of((0, 2, 1)) == (1,)
    assert senders_of((1, 2, 1)) == (1, 2, 3)
    assert senders_of((1, 0, 2, 0)) == (2, 4)
    assert senders_of((1, 1, 1)) == (1, 2, 3)
    assert senders_of((0, 0, 0)) == (1, 2, 3)
    assert requesters_of((0, 2, 1)) == (2, 3)


def test_inconsistent_parameters_rejected():
    for model, N, K, s in [
        (ModelKind.TWO_RR_ONE_S, 2, 4, 1),
        (ModelKind.K_USER_S_SENDERS, 2, 3, 2),
        (ModelKind.TRADITIONAL_D2D, 2, 3, 1),
        (ModelKind.K_USER_S_SENDERS, 2, 4, None),
        (ModelKind.REQUEST_RANDOM, 2, 4, None),
        (ModelKind.TWO_RR_ONE_S, 0, 3, 1),
    ]:
        with pytest.raises(ConfigurationError):
            enumerate_demands(model, N, K, s)


@pytest.mark.parametrize("model,N,K,s", [
    (ModelKind.TWO_RR_ONE_S, 2, 3, 1),
    (ModelKind.TRADITIONAL_D2D, 3, 2, 0),
    (ModelKind.K_USER_S_SENDERS, 3, 5, 2),
    (ModelKind.K_USER_S_SENDERS, 4, 6, 3),
    (ModelKind.REQUEST_RANDOM, 3, 3, None),
    (ModelKind.TRADITIONAL_D2D, 1, 4, 0),
])
def test_patterns_are_the_canonical_patterns_of_the_demands(model, N, K, s):
    demands = enumerate_demands(model, N, K, s)
    assert demand_count(model, N, K, s) == len(demands)
    assert enumerate_patterns(model, N, K, s) == sorted({canonical_file_pattern(d)
                                                         for d in demands})


def test_demand_count_is_capped_before_enumeration():
    # 10^6 demands exactly is allowed; one more user or file is not.  So are
    # 10^7 entries over all demands, K per demand: 2^19 demands of 19 entries
    # pass, while 179,400 and 718,800 demands of 300 and 600 entries do not.
    assert demand_count(ModelKind.TRADITIONAL_D2D, 10, 6, 0) == DEMAND_BUDGET
    assert demand_count(ModelKind.TRADITIONAL_D2D, 2, 19, 0) == 2 ** 19
    for model, N, K, s, what in [
        (ModelKind.TRADITIONAL_D2D, 10, 7, 0, "demands"),
        (ModelKind.TRADITIONAL_D2D, 11, 6, 0, "demands"),
        (ModelKind.TRADITIONAL_D2D, 1000, 10, 0, "demands"),
        (ModelKind.K_USER_S_SENDERS, 1000, 20, 3, "demands"),
        (ModelKind.K_USER_S_SENDERS, 2, 10 ** 9, 3, "demands"),
        (ModelKind.K_USER_S_SENDERS, 2, 300, 298, "entries"),
        (ModelKind.K_USER_S_SENDERS, 2, 600, 598, "entries"),
    ]:
        for enumerate_ in (demand_count, enumerate_demands, enumerate_patterns):
            with pytest.raises(ResourceBudgetError, match=f"{what}$"):
                enumerate_(model, N, K, s)


@pytest.mark.parametrize("K", [0, -1])
def test_scheme_without_users_rejected(K):
    with pytest.raises(ConfigurationError, match="K must be positive"):
        idle_counts(ModelKind.TRADITIONAL_D2D, 2, K, 0)
    with pytest.raises(ConfigurationError, match="K must be positive"):
        verify(LinearScheme(ModelKind.TRADITIONAL_D2D, 2, K, 0, 1, GF2, (), {}))


@pytest.mark.parametrize("L", [0, -1])
def test_scheme_without_subfiles_rejected(L):
    empty = FieldMatrix.empty(GF2, 0)
    with pytest.raises(ConfigurationError, match="L must be positive"):
        LinearScheme(ModelKind.TWO_RR_ONE_S, 2, 3, 1, L, GF2, (empty,) * 3, {})


# The per-model rules as they were written before the model table, kept
# here as the reference the table must reproduce.

def _reference_params_ok(model, N, K, s):
    if N < 1:
        return False
    if model is ModelKind.TWO_RR_ONE_S:
        return K == 3 and s in (None, 1)
    if model is ModelKind.TRADITIONAL_D2D:
        return s in (None, 0)
    if model is ModelKind.K_USER_S_SENDERS:
        return s is not None and 1 <= s <= K - 2
    return K == 3


def _reference_zero_pattern_ok(model, s, d):
    zeros = d.count(0)
    if model is ModelKind.TWO_RR_ONE_S:
        return zeros == 1
    if model is ModelKind.TRADITIONAL_D2D:
        return zeros == 0
    if model is ModelKind.K_USER_S_SENDERS:
        return zeros == s
    return True


def _reference_senders(model, d):
    if model is ModelKind.TRADITIONAL_D2D:
        return tuple(range(1, len(d) + 1))
    zeros = tuple(k + 1 for k, v in enumerate(d) if v == 0)
    if model is ModelKind.REQUEST_RANDOM and not zeros:
        return tuple(range(1, len(d) + 1))
    return zeros


def _reference_recovery_groups(model, K, s):
    users = range(1, K + 1)
    if model in (ModelKind.TWO_RR_ONE_S, ModelKind.REQUEST_RANDOM):
        return list(itertools.combinations(users, 2))
    if model is ModelKind.TRADITIONAL_D2D:
        return [tuple(users)]
    return list(itertools.combinations(users, s + 1))


def test_model_table_matches_reference_rules():
    checked = 0
    for model in ModelKind:
        for N in range(4):
            for K in range(1, 6):
                for s in (None, *range(K + 1)):
                    if not _reference_params_ok(model, N, K, s):
                        with pytest.raises(ConfigurationError):
                            enumerate_demands(model, N, K, s)
                        continue
                    demands = enumerate_demands(model, N, K, s)
                    assert demands == sorted(
                        d for d in itertools.product(range(N + 1), repeat=K)
                        if _reference_zero_pattern_ok(model, s, d)
                    ), (model, N, K, s)
                    for d in demands:
                        assert senders_of(d) == _reference_senders(model, d), (model, d)
                    scheme = SimpleNamespace(model=model, N=N, K=K, s=s)
                    assert _recovery_groups(scheme) == _reference_recovery_groups(model, K, s)
                    checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_full_cache_scheme_verifies_at_rate_zero():
    scheme = cached_2rr1s(CornerPointId.FULL, 3)
    report = verify(scheme)
    assert report.passed
    assert report.worst_case_rate == 0
    assert report.memory == (3, 3, 3)
    assert all(e.decodable for e in report.demands)


def test_report_flags_missing_demand():
    scheme = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    delivery = dict(scheme.delivery)
    delivery.pop((0, 1, 1))
    broken = LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L,
                          scheme.field, scheme.placement, delivery)
    report = verify(broken)
    assert not report.demand_coverage
    assert not report.passed


def test_report_insertion_order_irrelevant():
    scheme = cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2)
    reversed_delivery = dict(reversed(list(scheme.delivery.items())))
    shuffled = LinearScheme(scheme.model, scheme.N, scheme.K, scheme.s, scheme.L,
                            scheme.field, scheme.placement, reversed_delivery)
    assert verify(shuffled) == verify(scheme)


def test_redundant_placement_row_fails_full_rank():
    N, L = 2, 1
    rows = [unit_row(N, L, 1, 1), unit_row(N, L, 2, 1), unit_row(N, L, 1, 1)]
    P = FieldMatrix.from_rows(GF2, rows)
    placement = (P, P, P)
    delivery = {
        d: {k: SenderSignal(FieldMatrix.empty(GF2, 3)) for k in senders_of(d)}
        for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1)
    }
    scheme = LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, delivery)
    report = verify(scheme)
    assert report.placement_full_rank is False
    assert not report.passed


def test_pairwise_recovery_feasibility_bound(catalog_2rr1s):
    # two caches must jointly span everything, so 2 * min memory >= N
    for label, scheme in catalog_2rr1s():
        report = verify(scheme, check_decodability=False)
        assert 2 * min(report.memory) >= scheme.N, label


def _decodes_by_exhaustive_enumeration(scheme, demand, user):
    """Information-theoretic oracle: observations must pin down the file.

    Enumerates every assignment of the N*L GF(2) symbols; the user decodes
    iff any two assignments producing the same cache content and received
    signals agree on the requested file's symbols.
    """
    import itertools
    n_sym = scheme.symbol_count
    P = scheme.placement[user - 1]
    signal_rows = [row for mat in scheme.transmitted_rows(demand).values() for row in mat.rows]
    file_id = demand[user - 1]
    lo = (file_id - 1) * scheme.L
    hi = lo + scheme.L
    seen = {}
    for w in itertools.product((0, 1), repeat=n_sym):
        obs = tuple(
            sum(a * b for a, b in zip(row, w)) % 2
            for row in list(P.rows) + signal_rows
        )
        wanted = w[lo:hi]
        if obs in seen and seen[obs] != wanted:
            return False
        seen[obs] = wanted
    return True


def test_verifier_agrees_with_information_theoretic_oracle():
    rng = random.Random(123)
    N, L = 2, 2
    demands = enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1)
    agree_false = agree_true = 0
    for _ in range(10):
        placement = tuple(
            FieldMatrix.from_rows(
                GF2, [[rng.randrange(2) for _ in range(N * L)] for _ in range(rng.randint(2, 3))]
            )
            for _ in range(3)
        )
        delivery = {}
        for d in demands:
            sender = senders_of(d)[0]
            width = placement[sender - 1].nrows
            delivery[d] = {
                sender: SenderSignal(FieldMatrix.from_rows(
                    GF2, [[rng.randrange(2) for _ in range(width)] for _ in range(2)]
                ))
            }
        scheme = LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, delivery)
        report = verify(scheme)
        verdicts = {e.demand: (e.decodable, e.failed_users) for e in report.demands}
        for d in rng.sample(demands, 4):
            decodable, failed = verdicts[d]
            for user in requesters_of(d):
                expected = _decodes_by_exhaustive_enumeration(scheme, d, user)
                got = user not in failed
                assert got == expected, (d, user)
                if expected:
                    agree_true += 1
                else:
                    agree_false += 1
    assert agree_true and agree_false  # both verdicts exercised


def test_deleting_rows_never_helps_decoding():
    rng = random.Random(7)
    N, L = 2, 2
    demands = enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1)
    for _ in range(12):
        placement = tuple(
            FieldMatrix.from_rows(
                GF2, [[rng.randrange(2) for _ in range(N * L)] for _ in range(3)]
            )
            for _ in range(3)
        )
        delivery = {}
        for d in demands:
            sender = senders_of(d)[0]
            delivery[d] = {
                sender: SenderSignal(FieldMatrix.from_rows(
                    GF2, [[rng.randrange(2) for _ in range(3)] for _ in range(2)]
                ))
            }
        scheme = LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, delivery)
        d = rng.choice(demands)
        sender = senders_of(d)[0]
        full_ok = decodes_demand(scheme, d, requesters_of(d))
        sig = scheme.delivery[d][sender]
        for drop in range(sig.matrix.nrows):
            rows = [r for i, r in enumerate(sig.matrix.rows) if i != drop]
            reduced = {sender: SenderSignal(FieldMatrix.from_rows(GF2, rows, ncols=3))}
            thin = dict(scheme.delivery)
            thin[d] = reduced
            thinner = LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, thin)
            assert not (decodes_demand(thinner, d, requesters_of(d)) and not full_ok)


@pytest.mark.parametrize("N,K,s,m", [(3, 4, 1, 2), (2, 6, 3, 3)])
def test_removing_one_demands_rows_fails_exactly_that_demand_over_extension_fields(N, K, s, m):
    scheme = cached_kuser(CornerPointId.KU_MDS, N, K, s)
    assert scheme.field.m == m
    valid = verify(scheme)
    assert valid.passed
    rng = random.Random(N * 100 + K)
    for d in rng.sample(sorted(scheme.delivery), 3):
        delivery = dict(scheme.delivery)
        delivery[d] = {k: SenderSignal(FieldMatrix.empty(scheme.field, scheme.placement_rows(k)))
                       for k in delivery[d]}
        broken = LinearScheme(scheme.model, N, K, s, scheme.L, scheme.field,
                              scheme.placement, delivery)
        report = verify(broken)
        assert not report.passed
        for before, after in zip(valid.demands, report.demands):
            if after.demand == d:
                assert after.decodable is False
                assert after.failed_users == requesters_of(d)
            else:
                assert after == before


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------

def test_alpha_one_reproduces_first_scheme():
    a = cached_2rr1s(CornerPointId.HALF_RATE, 2)
    b = cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2)
    mix = memory_share(a, b, Fraction(1))
    ra, rm = verify(a), verify(mix)
    assert rm.memory == ra.memory
    assert rm.rate_table() == ra.rate_table()
    assert rm.passed


def test_half_mix_of_coded_and_uncoded_corners():
    a = cached_2rr1s(CornerPointId.MDS_HALF, 4)
    b = cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 4)
    report = verify(memory_share(a, b, Fraction(1, 2)), check_decodability=False)
    assert report.memory == (Fraction(7, 3),) * 3
    assert report.worst_case_rate == Fraction(2, 3)


def test_half_mix_verifies_and_hits_expected_point():
    a = cached_2rr1s(CornerPointId.HALF_RATE, 2)
    b = cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2)
    report = verify(memory_share(a, b, Fraction(1, 2)))
    assert report.passed
    assert report.memory == (Fraction(5, 4),) * 3
    assert report.worst_case_rate == Fraction(5, 12)


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(2, 5)])
def test_share_rate_law_exact_per_demand(alpha):
    a = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    b = cached_2rr1s(CornerPointId.HALF_RATE, 2)
    mix = verify(memory_share(a, b, alpha), check_decodability=False).rate_table()
    ra = verify(a, check_decodability=False).rate_table()
    rb = verify(b, check_decodability=False).rate_table()
    for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, 2, 3, 1):
        assert mix[d] == alpha * ra[d] + (1 - alpha) * rb[d]


def test_share_rejects_mismatched_inputs():
    a = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    b = cached_2rr1s(CornerPointId.MDS_HALF, 3)
    with pytest.raises(ConfigurationError):
        memory_share(a, b, Fraction(1, 2))
    with pytest.raises(ConfigurationError):
        memory_share(a, cached_traditional(), Fraction(1, 2))


@pytest.mark.parametrize("partial_first", [True, False])
def test_share_names_a_demand_a_block_does_not_deliver(partial_first):
    base = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    delivery = dict(base.delivery)
    del delivery[(0, 1, 1)]
    partial = LinearScheme(base.model, base.N, base.K, base.s, base.L, base.field,
                           base.placement, delivery)
    other = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    a, b = (partial, other) if partial_first else (other, partial)
    with pytest.raises(ConfigurationError, match=r"demand \(0, 1, 1\)"):
        memory_share(a, b, Fraction(1, 2))


# ---------------------------------------------------------------------------
# permutation
# ---------------------------------------------------------------------------

def test_identity_permutation_is_noop():
    scheme = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    assert permute_scheme(scheme, (1, 2, 3), (1, 2)) == scheme


def test_user_cycle_preserves_rates_and_decodability():
    scheme = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    cycled = permute_scheme(scheme, (2, 3, 1), (1, 2))
    base, rot = verify(scheme), verify(cycled)
    assert rot.passed
    assert sorted(e.rate for e in base.demands) == sorted(e.rate for e in rot.demands)


def test_permutation_maps_verdicts_through_demand_map():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 3)
    up, fp = (3, 1, 2), (2, 3, 1)
    permuted = permute_scheme(scheme, up, fp)
    base, moved = verify(scheme), verify(permuted)
    from d2dcache.model import apply_demand_perm
    moved_rates = moved.rate_table()
    for entry in base.demands:
        image = apply_demand_perm(entry.demand, up, fp)
        assert moved_rates[image] == entry.rate


def test_file_transposition_fixes_file_symmetric_placement():
    scheme = cached_2rr1s(CornerPointId.MDS_HALF, 3)
    swapped = permute_scheme(scheme, (1, 2, 3), (2, 1, 3))
    for k in range(1, 4):
        assert row_set(swapped.placement[k - 1]) == row_set(scheme.placement[k - 1])


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def test_symmetrize_of_rate_uniform_scheme_is_rate_uniform():
    base = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    sym = symmetrize(base)
    report = verify(sym, check_decodability=False)
    assert set(e.rate for e in report.demands) == {Fraction(1)}


def test_symmetrize_seven_eighths_keeps_worst_case():
    base = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    sym = symmetrize(base)
    assert verify(sym, check_decodability=False).worst_case_rate == Fraction(7, 8)


# Bases for the lazy-vs-explicit checks: catalog designs, a traditional-model
# rotation and two request-random adaptations.
SYMMETRIZED_BASES = {
    "mds-half-2": lambda: cached_2rr1s(CornerPointId.MDS_HALF, 2),
    "man-2-3-2": lambda: cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2),
    "n2-7-8-2": lambda: cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2),
    "half-rate-3": lambda: cached_2rr1s(CornerPointId.HALF_RATE, 3),
    "rotate(mds-half)-2": lambda: rotate_2rr1s(cached_2rr1s(CornerPointId.MDS_HALF, 2)),
    "adapt(mds-half)-2": lambda: adapt_request_random(
        cached_2rr1s(CornerPointId.MDS_HALF, 2)).scheme,
    "adapt(n2-7-8)-2": lambda: adapt_request_random(
        cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)).scheme,
}


def _assert_counts_match_explicit(sym, explicit):
    for d in enumerate_demands(sym.model, sym.N, sym.K, sym.s):
        assert sym.delivery_row_counts(d) == {
            k: sig.row_count for k, sig in explicit.delivery[d].items()
        }, d


@pytest.mark.parametrize("label", list(SYMMETRIZED_BASES))
def test_lazy_accounting_matches_explicit_blocks(label):
    base = SYMMETRIZED_BASES[label]()
    sym = symmetrize(base)
    lazy_report = verify(sym, check_decodability=False)
    assert "_explicit" not in vars(sym)
    explicit = sym.to_explicit()
    full_report = verify(explicit)
    assert full_report.passed == verify(base).passed
    assert lazy_report.memory == full_report.memory
    assert lazy_report.rate_table() == full_report.rate_table()
    assert verify(sym).to_json_dict() == full_report.to_json_dict()
    _assert_counts_match_explicit(sym, explicit)


@pytest.mark.parametrize("point,N,K,s", [
    (CornerPointId.KU_MDS, 3, 4, 1),
    (CornerPointId.KU_MAN, 2, 3, 1),
])
def test_lazy_accounting_matches_explicit_for_kuser(point, N, K, s):
    base = cached_kuser(point, N, K, s)
    sym = symmetrize(base)
    explicit = sym.to_explicit()
    lazy_report = verify(sym, check_decodability=False)
    full_report = verify(explicit, check_decodability=False)
    assert lazy_report.rate_table() == full_report.rate_table()
    assert lazy_report.memory == full_report.memory
    _assert_counts_match_explicit(sym, explicit)


def _report(scheme):
    return verify(scheme).to_json_dict()


# Each transform, read out as a report or as dump text.
SYMMETRIZED_TRANSFORMS = {
    "memory_share": lambda s: _report(
        memory_share(s, cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2), Fraction(1, 2))),
    "rotate_2rr1s": lambda s: _report(rotate_2rr1s(s)),
    "adapt_request_random": lambda s: _report(adapt_request_random(s).scheme),
    "dump_scheme": dump_scheme,
    "permute_scheme": lambda s: _report(permute_scheme(s, (2, 3, 1), (2, 1))),
}


@pytest.mark.parametrize("name", list(SYMMETRIZED_TRANSFORMS))
def test_symmetrized_scheme_transforms_like_its_explicit_form(name):
    transform = SYMMETRIZED_TRANSFORMS[name]
    sym = symmetrize(cached_2rr1s(CornerPointId.MDS_HALF, 2))
    assert transform(sym) == transform(sym.to_explicit())


def test_symmetrize_names_a_demand_the_base_does_not_deliver():
    base = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    delivery = dict(base.delivery)
    del delivery[(0, 1, 1)]
    partial = LinearScheme(base.model, base.N, base.K, base.s, base.L, base.field,
                           base.placement, delivery)
    with pytest.raises(ConfigurationError, match=r"demand \(0, 1, 1\)"):
        symmetrize(partial)


def test_symmetrize_budget_guard():
    base = cached_2rr1s(CornerPointId.HALF_RATE, 8)
    assert math.factorial(base.N) * math.factorial(base.K) * base.L > DEFAULT_SYMMETRIZE_BUDGET
    with pytest.raises(ResourceBudgetError, match=str(DEFAULT_SYMMETRIZE_BUDGET)):
        symmetrize(base)


@pytest.mark.parametrize("alpha", [0.4, Fraction(1, 10 ** 9)], ids=["float 0.4", "1/10^9"])
def test_memory_share_refuses_more_slots_than_the_budget(alpha, monkeypatch):
    # 0.4 is taken exactly, as 3602879701896397/2^53: about 3.6e15 block copies
    a = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    b = cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the slot budget check")

    monkeypatch.setattr(sharing_mod, "_block_col_map", refuse)
    monkeypatch.setattr(sharing_mod, "FieldMatrix", refuse)
    with pytest.raises(ResourceBudgetError, match="subfile slots"):
        memory_share(a, b, alpha)


def test_symmetrized_transmissions_decode(catalog_2rr1s):
    base = cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2)
    sym = symmetrize(base)
    report = verify(sym)
    assert report.passed
    assert report.worst_case_rate == Fraction(1, 3)


def test_symmetrized_kuser_scheme_decodes():
    base = cached_kuser(CornerPointId.KU_MDS, 2, 3, 1)
    sym = symmetrize(base)
    report = verify(sym)
    assert report.passed
    assert report.memory == (1, 1, 1)
    assert report.worst_case_rate == 1
    assert report.to_json_dict() == verify(sym.to_explicit()).to_json_dict()


def test_every_exported_name_resolves():
    missing = [name for name in d2dcache.__all__ if not hasattr(d2dcache, name)]
    assert missing == []
