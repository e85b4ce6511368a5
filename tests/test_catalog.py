"""Catalog constructors land exactly on their corner points."""

from fractions import Fraction

import pytest

from d2dcache.catalog import CornerPointId, build_2rr1s_scheme, build_kuser_scheme, corner_value
from d2dcache.curves import RatePoint, envelope
from d2dcache.errors import ConfigurationError, FeasibilityError
from d2dcache.model import unit_row, xor_rows
from d2dcache.verify import verify

from conftest import TWO_RR_POINTS, cached_2rr1s, cached_kuser, cached_traditional, row_set


@pytest.mark.parametrize("point", TWO_RR_POINTS)
@pytest.mark.parametrize("N", [2, 3, 5])
def test_2rr1s_corners_verify_exactly(point, N):
    scheme = cached_2rr1s(point, N)
    report = verify(scheme)
    M, R = corner_value(point, N)
    assert report.passed
    assert report.memory == (M, M, M)
    assert report.worst_case_rate == R
    assert len(report.demands) == 3 * N * N


def test_seven_eighths_is_n2_only():
    report = verify(cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2))
    assert report.passed
    assert report.memory == (1, 1, 1)
    assert set(e.rate for e in report.demands) == {Fraction(7, 8)}
    with pytest.raises(ConfigurationError):
        build_2rr1s_scheme(CornerPointId.N2_SEVEN_EIGHTHS, 3)


def test_builders_reject_bad_parameters():
    with pytest.raises(ConfigurationError):
        build_2rr1s_scheme(CornerPointId.MDS_HALF, 1)
    with pytest.raises(ConfigurationError):
        build_2rr1s_scheme(CornerPointId.KU_MDS, 4)
    with pytest.raises(ConfigurationError):
        build_kuser_scheme(CornerPointId.KU_MDS, 4, 3, 2)


def _table_rows(N, L):
    def u(n, l):
        return unit_row(N, L, n, l)
    return u, xor_rows


def test_half_rate_matches_printed_n2_layout():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 2)
    u, x = _table_rows(2, 6)
    A = lambda l: u(1, l)
    B = lambda l: u(2, l)
    expected = [
        {x(A(1), A(2)), x(B(1), B(2)), A(4), B(4), A(5), B(5), x(A(2), B(1))},
        {A(1), B(1), x(A(3), A(4)), x(B(3), B(4)), A(6), B(6), x(A(4), B(3))},
        {A(2), B(2), A(3), B(3), x(A(5), A(6)), x(B(5), B(6)), x(A(6), B(5))},
    ]
    for k in range(1, 4):
        assert row_set(scheme.placement_matrix(k)) == frozenset(expected[k - 1])


def test_half_rate_matches_printed_n3_layout():
    scheme = cached_2rr1s(CornerPointId.HALF_RATE, 3)
    u, x = _table_rows(3, 6)
    A = lambda l: u(1, l)
    B = lambda l: u(2, l)
    C = lambda l: u(3, l)
    expected = [
        {x(A(1), A(2)), x(B(1), B(2)), x(C(1), C(2)), A(4), B(4), C(4),
         A(5), B(5), C(5), x(A(2), B(1)), x(B(2), C(1))},
        {A(1), B(1), C(1), x(A(3), A(4)), x(B(3), B(4)), x(C(3), C(4)),
         A(6), B(6), C(6), x(A(4), B(3)), x(B(4), C(3))},
        {A(2), B(2), C(2), A(3), B(3), C(3), x(A(5), A(6)), x(B(5), B(6)),
         x(C(5), C(6)), x(A(6), B(5)), x(B(6), C(5))},
    ]
    for k in range(1, 4):
        assert row_set(scheme.placement_matrix(k)) == frozenset(expected[k - 1])
        assert scheme.placement_matrix(k).nrows == 11


def test_traditional_coded_point():
    scheme = cached_traditional()
    report = verify(scheme)
    assert report.passed
    assert report.memory == (1, 1, 1)
    assert set(e.rate for e in report.demands) == {Fraction(1)}
    table = report.rate_table()
    assert table[(1, 1, 1)] == 1
    assert table[(2, 1, 2)] == 1


@pytest.mark.parametrize("N,K,s", [(2, 3, 1), (4, 5, 2), (3, 4, 1), (4, 6, 3)])
def test_kuser_mds_rate_tracks_distinct_requests(N, K, s):
    scheme = cached_kuser(CornerPointId.KU_MDS, N, K, s)
    report = verify(scheme, check_decodability=False)
    for entry in report.demands:
        distinct = len({v for v in entry.demand if v})
        assert entry.rate == Fraction(s * distinct, s + 1)


def test_kuser_man_single_transmitter():
    scheme = cached_kuser(CornerPointId.KU_MAN, 3, 4, 2)
    report = verify(scheme)
    assert report.passed
    assert set(e.rate for e in report.demands) == {Fraction(1, 4)}
    for d, per in scheme.delivery.items():
        sending = [k for k, sig in per.items() if sig.row_count]
        assert sending == [min(per)]


def test_kuser_recovers_three_user_corner():
    report = verify(cached_kuser(CornerPointId.KU_MDS, 2, 3, 1))
    assert report.passed
    assert (report.memory[0], report.worst_case_rate) == (1, 1)


def test_kuser_full_point():
    report = verify(build_kuser_scheme(CornerPointId.KU_FULL, 3, 4, 1))
    assert report.passed
    assert report.worst_case_rate == 0
    assert report.memory == (3, 3, 3, 3)


def test_catalog_delivery_has_no_redundant_rows_left_unencoded(catalog_2rr1s):
    # builders solve every row over the cache; encoding is always clean
    for label, scheme in catalog_2rr1s(Ns=(2, 3)):
        assert scheme.encoding_clean, label


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_single_point_envelope():
    curve = envelope([RatePoint(4, 0)])
    assert curve.vertices == (RatePoint(4, 0),)
    assert curve.value_at(5) == 0
    with pytest.raises(FeasibilityError):
        curve.value_at(3)


def test_theorem_envelope_value_between_corners():
    pts = [RatePoint(2, 1), RatePoint(Fraction(8, 3), Fraction(1, 3)), RatePoint(4, 0)]
    curve = envelope(pts)
    assert [(v.M, v.R) for v in curve.vertices] == [(p.M, p.R) for p in pts]
    assert curve.value_at(3) == Fraction(1, 4)


def test_all_four_n2_corners_are_vertices():
    pts = [RatePoint(1, Fraction(7, 8)), RatePoint(Fraction(7, 6), Fraction(1, 2)),
           RatePoint(Fraction(4, 3), Fraction(1, 3)), RatePoint(2, 0)]
    curve = envelope(pts)
    assert len(curve.vertices) == 4


def test_envelope_drops_duplicates_and_dominated_points():
    pts = [RatePoint(2, 1), RatePoint(2, 1), RatePoint(3, 1), RatePoint(4, 0)]
    curve = envelope(pts)
    assert [(v.M, v.R) for v in curve.vertices] == [(2, 1), (4, 0)]


def test_envelope_needs_points():
    with pytest.raises(ConfigurationError):
        envelope([])
