"""Rotation, pruning, and the request-random adaptation."""

from fractions import Fraction

import pytest

from d2dcache.adapters import (
    adapt_request_random,
    average_rate,
    prune_signal,
    rotate_2rr1s,
)
from d2dcache.catalog import CornerPointId
from d2dcache.errors import ConfigurationError
from d2dcache.field import GF2, FieldMatrix
from d2dcache.model import (
    LinearScheme,
    ModelKind,
    enumerate_demands,
    requesters_of,
)
from d2dcache.verify import verify

from conftest import TWO_RR_POINTS, cached_2rr1s, unit_row, xor_rows


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def test_rotated_half_cache_verifies_at_three_halves_everywhere():
    rotated = rotate_2rr1s(cached_2rr1s(CornerPointId.MDS_HALF, 2))
    report = verify(rotated)
    assert report.passed
    assert rotated.model is ModelKind.TRADITIONAL_D2D
    assert report.memory == (1, 1, 1)
    assert len(report.demands) == 8
    assert set(e.rate for e in report.demands) == {Fraction(3, 2)}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("point", TWO_RR_POINTS + (CornerPointId.N2_SEVEN_EIGHTHS,))
def test_rotation_rate_law(point, N):
    if point is CornerPointId.N2_SEVEN_EIGHTHS and N != 2:
        pytest.skip("N=2 design")
    base = cached_2rr1s(point, N)
    base_report = verify(base, check_decodability=False)
    rotated = rotate_2rr1s(base)
    rot_report = verify(rotated, check_decodability=False)
    assert rot_report.worst_case_rate == Fraction(3, 2) * base_report.worst_case_rate
    assert rot_report.memory == base_report.memory
    base_rates = base_report.rate_table()
    for entry in rot_report.demands:
        d1, d2, d3 = entry.demand
        expected = (base_rates[(0, d2, d3)] + base_rates[(d1, 0, d3)]
                    + base_rates[(d1, d2, 0)]) / 2
        assert entry.rate == expected


def test_rotated_full_cache_sends_nothing():
    report = verify(rotate_2rr1s(cached_2rr1s(CornerPointId.FULL, 3)))
    assert report.passed
    assert report.worst_case_rate == 0


def test_rotation_of_preprocessed_design_flags_unencodable_rows():
    # cross-file coded cache rows cannot reproduce the part-mixed signal
    rotated = rotate_2rr1s(cached_2rr1s(CornerPointId.HALF_RATE, 2))
    assert not rotated.encoding_clean
    report = verify(rotated, check_decodability=False)
    assert not report.encoding_clean
    assert report.worst_case_rate == Fraction(3, 4)


def test_rotation_soundness_boundary():
    # Per-requester-pure bases rotate soundly.  A multicast row collides
    # when user 2 must serve the same file on both halves (d1 == d3), and
    # cross-file coded placements cannot recompose the mixed signal at all.
    rot_man = verify(rotate_2rr1s(cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2)))
    assert rot_man.encoding_clean
    failing = {e.demand for e in rot_man.demands if not e.decodable}
    assert failing == {d for d in enumerate_demands(ModelKind.TRADITIONAL_D2D, 2, 3, 0)
                       if d[0] == d[2]}


def test_rotation_rejects_broken_base():
    from d2dcache.model import SenderSignal
    base = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    empty = {d: {k: SenderSignal(FieldMatrix.empty(GF2, base.placement_rows(k)))
                 for k in per}
             for d, per in base.delivery.items()}
    broken = LinearScheme(base.model, base.N, base.K, base.s, base.L, base.field,
                          base.placement, empty)
    with pytest.raises(ConfigurationError):
        rotate_2rr1s(broken)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_reproduces_printed_five_row_signal():
    scheme = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    pruned = prune_signal(scheme, (0, 1, 1), [3])
    A = lambda l: unit_row(2, 8, 1, l)
    B = lambda l: unit_row(2, 8, 2, l)
    expected = {
        xor_rows(A(7), A(8)), A(4), A(5), B(5), xor_rows(A(1), B(2)),
    }
    assert pruned.row_count == 5
    assert set(pruned.symbol_rows) == expected
    assert len(pruned.dropped) == 2


def test_prune_single_coded_copy_for_lone_requester():
    scheme = cached_2rr1s(CornerPointId.MDS_HALF, 3)
    pruned = prune_signal(scheme, (0, 2, 2), [3])
    assert pruned.row_count == 1
    assert Fraction(pruned.row_count, scheme.L) == Fraction(1, 2)


def test_prune_keeps_everything_without_fakes():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 3)
    demand = (0, 1, 2)
    pruned = prune_signal(scheme, demand, requesters_of(demand))
    assert pruned.dropped == ()
    assert pruned.row_count == 3


def test_prune_rejects_users_that_do_not_request():
    scheme = cached_2rr1s(CornerPointId.MDS_HALF, 2)
    with pytest.raises(ConfigurationError):
        prune_signal(scheme, (0, 1, 2), [1])


@pytest.mark.parametrize("N", [2, 3])
def test_prune_monotone_and_still_decodes(N):
    from d2dcache.field import RowSpan
    from d2dcache.verify import _file_decodable
    for point in TWO_RR_POINTS:
        scheme = cached_2rr1s(point, N)
        for demand in enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1):
            real = requesters_of(demand)
            before = sum(sig.row_count for sig in scheme.delivery[demand].values())
            pruned = prune_signal(scheme, demand, real)
            assert pruned.row_count <= before
            for r in real:
                span = RowSpan(scheme.field, scheme.symbol_count)
                span.add_matrix(scheme.placement[r - 1])
                span.add_matrix(FieldMatrix.from_rows(scheme.field, pruned.symbol_rows,
                                                      scheme.symbol_count))
                assert _file_decodable(span, N, scheme.L, demand[r - 1])


# ---------------------------------------------------------------------------
# request-random adaptation
# ---------------------------------------------------------------------------

def test_fake_assignment_follows_worked_example():
    adaptation = adapt_request_random(cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2))
    fa = adaptation.fake_assignments[(0, 0, 1)]
    assert fa.sender == 1
    assert fa.fakes == {2: 1}
    assert fa.fake_demand == (0, 1, 1)
    assert adaptation.per_r_worst[1] == Fraction(5, 8)


def test_adapted_rates_per_request_count():
    adaptation = adapt_request_random(cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2))
    assert adaptation.per_r_worst == {
        0: Fraction(0), 1: Fraction(5, 8), 2: Fraction(7, 8), 3: Fraction(21, 16),
    }


def test_two_requester_demands_reproduce_base_report():
    base = cached_2rr1s(CornerPointId.HALF_RATE, 2)
    adaptation = adapt_request_random(base)
    base_report = verify(base)
    adapted_report = verify(adaptation.scheme)
    adapted = adapted_report.rate_table()
    decodable = {e.demand: e.decodable for e in adapted_report.demands}
    for entry in base_report.demands:
        assert adapted[entry.demand] == entry.rate
        assert decodable[entry.demand] == entry.decodable is True
    assert adapted_report.memory == base_report.memory


def test_adapted_half_cache_scheme_fully_decodes():
    adaptation = adapt_request_random(cached_2rr1s(CornerPointId.MDS_HALF, 2))
    report = verify(adaptation.scheme)
    assert report.passed
    assert adaptation.per_r_worst == {
        0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(3, 2),
    }
    assert report.rate_table()[(0, 0, 0)] == 0


def test_adapted_preprocessed_scheme_decodes_up_to_two_requesters():
    # r <= 2 demands replay the sound base rule; r=3 demands inherit the
    # rotation gap for cross-file coded placements and are reported, not hidden
    adaptation = adapt_request_random(cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2))
    report = verify(adaptation.scheme)
    by_requests = {}
    for entry in report.demands:
        r = sum(1 for v in entry.demand if v)
        by_requests.setdefault(r, []).append(entry.decodable)
    assert all(by_requests[0]) and all(by_requests[1]) and all(by_requests[2])
    assert not any(by_requests[3])
    assert not report.encoding_clean


def test_adaptation_reads_no_row_counts_back(monkeypatch):
    # per_r_worst is tallied while the adapted signals are built; reading the
    # row counts back would look up every request-random demand's pattern
    from d2dcache.model import OrbitScheme
    base = cached_2rr1s(CornerPointId.MDS_HALF, 4)
    readers = []
    for cls in (LinearScheme, OrbitScheme):
        original = cls.delivery_row_counts

        def spy(self, d, original=original):
            readers.append(self)
            return original(self, d)

        monkeypatch.setattr(cls, "delivery_row_counts", spy)
    adaptation = adapt_request_random(base)
    assert [r for r in readers if r is not base] == []
    assert adaptation.per_r_worst == {
        0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(3, 2),
    }


def test_profile_average_formula():
    adaptation = adapt_request_random(cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 4))
    p = Fraction(59, 100)
    average = average_rate(p, adaptation.per_r_worst)
    want = (3 * p * (1 - p) ** 2 * Fraction(1, 3)
            + 3 * p ** 2 * (1 - p) * Fraction(1, 3)
            + p ** 3 * Fraction(1, 2))
    assert average == want
    assert average == p * (1 - p) + p ** 3 / 2


# ---------------------------------------------------------------------------
# averaging
# ---------------------------------------------------------------------------

def test_average_rate_edge_probabilities():
    rates = {0: Fraction(0), 1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 2)}
    assert average_rate(Fraction(0), rates) == 0
    assert average_rate(Fraction(1), rates) == Fraction(1, 2)
    assert average_rate(Fraction(59, 100), rates) == Fraction(689179, 2000000)
    assert abs(average_rate(0.59, rates) - 0.3446) < 5e-5


def test_average_rate_monotone_in_each_entry():
    base = {0: Fraction(0), 1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 2)}
    for x in range(4):
        bumped = dict(base)
        bumped[x] = base[x] + Fraction(1, 10)
        assert average_rate(Fraction(1, 2), bumped) >= average_rate(Fraction(1, 2), base)


def test_average_rate_validates_inputs():
    rates = {0: Fraction(0), 1: Fraction(0), 2: Fraction(0), 3: Fraction(0)}
    with pytest.raises(ConfigurationError):
        average_rate(1.5, rates)
    with pytest.raises(ConfigurationError):
        average_rate(0.5, {0: Fraction(0)})
