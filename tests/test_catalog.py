"""Catalog constructors land exactly on their corner points."""

import hashlib
from fractions import Fraction

import pytest

from d2dcache.adapters import adapt_request_random, rotate_2rr1s
from d2dcache.catalog import CornerPointId, build_2rr1s_scheme, build_kuser_scheme, corner_value
from d2dcache.curves import RatePoint, envelope
from d2dcache.errors import ConfigurationError, FeasibilityError, ResourceBudgetError
from d2dcache.io import dump_scheme, load_scheme_text
from d2dcache.sharing import memory_share
from d2dcache.verify import verify

from conftest import (
    KUSER_CASES,
    TWO_RR_POINTS,
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    explicit_kuser_mds,
    row_set,
    unit_row,
    xor_rows,
)


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


class _NoMatrices:
    """Stands in for FieldMatrix where no matrix may be built."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("a matrix was built before the demand budget check")

    identity = empty = staticmethod(__new__)


@pytest.mark.parametrize("point", [CornerPointId.FULL, CornerPointId.MDS_HALF,
                                   CornerPointId.MAN_TWO_THIRDS, CornerPointId.HALF_RATE])
def test_2rr1s_builder_checks_demand_budget_before_placement(point, monkeypatch):
    monkeypatch.setattr("d2dcache.catalog.FieldMatrix", _NoMatrices)
    with pytest.raises(ResourceBudgetError):
        build_2rr1s_scheme(point, 600)


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
        assert row_set(scheme.placement[k - 1]) == frozenset(expected[k - 1])


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
        assert row_set(scheme.placement[k - 1]) == frozenset(expected[k - 1])
        assert scheme.placement[k - 1].nrows == 11


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


# ---------------------------------------------------------------------------
# exact output: row order, images and coefficients, as exported
# ---------------------------------------------------------------------------

# sha256 of dump_scheme(...) for each builtin, recorded from the tuple-row
# builders; no other test checks exact row order or coefficients.  The
# rotated and adapted entries pin the part a or b the rotation gives each of
# user 2's rows, which it works out from the base's rows alone.  The kuser/mds
# entries were re-recorded when that builder came to write one delivery per
# file pattern: a moved demand sends its rows in first-appearance order of its
# files, not in ascending file order, and nothing else changed.
EXPORT_DIGESTS = {
    "2rr1s/full N=2": "a35e04ac996f5acc7a24f27cf68939d993b6e2f5215d2d27c457806aa0066738",
    "2rr1s/mds-half N=2": "cc8d13d5f2a6a59a792cf424b42d6e30e8b3837f83271bfb10e9a4d28d373b6e",
    "2rr1s/man-2-3 N=2": "69b612b3c0748cda9093331330b0d3e53ffe78fed6b61fdaa58d0ed71ebf28e1",
    "2rr1s/half-rate N=2": "e93d1cb98ecdaef014ddf46c1a98fb916424ab045eb43ac1ce0759e31690f24d",
    "2rr1s/full N=3": "b1fa4f13df5938b7d82dfc4fc8a7ff460a2c9bd0980ac3de9aecc2e55e3d8298",
    "2rr1s/mds-half N=3": "93bb80b3645bb9b10c63f751ccfd53f137b999e2664874c7e173d611f6ea5a39",
    "2rr1s/man-2-3 N=3": "d2cc07e63493795dd700bf3dcd1db72fb3fb48b365ff7a9f41e95baf17fac5f3",
    "2rr1s/half-rate N=3": "bf3206c20ed6099200a9b340f7d43d72227e9bc94c967b89aededbf56c0d9743",
    "2rr1s/full N=4": "45449674d9038c8594890b326d5a9b5a77692f3377c8ece58894b26ddb872732",
    "2rr1s/mds-half N=4": "9c1da832c5a1dd3e1d8d418d7ac94a8547d90719c0bdc7524811d115a2a5b69f",
    "2rr1s/man-2-3 N=4": "ebba9561f3bdad346cf2fd3f1ede61dc0cb621614e5a1a35f556e3b93249749e",
    "2rr1s/half-rate N=4": "c518a4a3e979c962de18291f48152f3e5212231967dcd9756d615b3ea967d49a",
    "2rr1s/n2-7-8 N=2": "a3b1caba40f7d9a632be9f1beb05e71a4e99913b15bff84cf149a76d368c7619",
    "trad/coded-1-1 N=2": "187e6d1d8767ff37e8db2ca297fcae6884024fba9f306ce31d8aa08af62d6749",
    "kuser/man N=4 K=5 s=2": "187913cdd60f19cde9b811836bd1e3ae002da04cd333f55cbc03f6dd28a9c7db",
    "kuser/mds N=4 K=5 s=2": "f18883c485f0c72ea7be57d11328db63e2e561a134d751ac40fc033a23288285",
    "kuser/man N=4 K=6 s=3": "83660742f85d07eabbe55b02b831ca25414b67b32248d78d700268f17e2a445c",
    "kuser/mds N=4 K=6 s=3": "daa09d6274846f95771281346ac2b6116c265761519bec85a2b3305237430e4b",
    "rotate 2rr1s/mds-half N=2": "0788cb1847dad05d9fd17a69da8947086187726a4a08d87b24a7cf0da52b5884",
    "rotate 2rr1s/mds-half N=3": "6c6af3b42b28c35e728bfaa412d6df806e3cd294dfc84e1b712164f40dc48313",
    "rotate 2rr1s/man-2-3 N=2": "259d04b75414ffa145e8fdd4aaffa22b2a6a869cd1699b8b421fd7e962aa164c",
    "rotate share(mds-half, man-2-3, 1/3) N=2":
        "0d0c65105fa2362eddfcfb174b3f2ace9f1764c8727c0b69ad652d082080a309",
    "adapt 2rr1s/mds-half N=2": "803f655809704acc30e46df467896780ca1a30aae49d3bfefeb65e7863bf6c7d",
}


def _pinned_schemes():
    for N in (2, 3, 4):
        for point in TWO_RR_POINTS:
            yield f"2rr1s/{point.value} N={N}", lambda p=point, n=N: cached_2rr1s(p, n)
    yield "2rr1s/n2-7-8 N=2", lambda: cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    yield "trad/coded-1-1 N=2", cached_traditional
    for N, K, s in (KUSER_CASES[1], KUSER_CASES[3]):
        for point, name in ((CornerPointId.KU_MAN, "man"), (CornerPointId.KU_MDS, "mds")):
            yield (f"kuser/{name} N={N} K={K} s={s}",
                   lambda p=point, n=N, k=K, s=s: cached_kuser(p, n, k, s))
    mds_half, man = CornerPointId.MDS_HALF, CornerPointId.MAN_TWO_THIRDS
    for N in (2, 3):
        yield f"rotate 2rr1s/mds-half N={N}", lambda n=N: rotate_2rr1s(cached_2rr1s(mds_half, n))
    yield "rotate 2rr1s/man-2-3 N=2", lambda: rotate_2rr1s(cached_2rr1s(man, 2))
    yield ("rotate share(mds-half, man-2-3, 1/3) N=2",
           lambda: rotate_2rr1s(memory_share(cached_2rr1s(mds_half, 2), cached_2rr1s(man, 2),
                                             Fraction(1, 3))))
    yield ("adapt 2rr1s/mds-half N=2",
           lambda: adapt_request_random(cached_2rr1s(mds_half, 2)).scheme)


PINNED = list(_pinned_schemes())


@pytest.mark.parametrize("name,make", PINNED, ids=[name for name, _ in PINNED])
def test_builder_output_is_pinned(name, make):
    text = dump_scheme(make())
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_DIGESTS[name]


# sha256 of the kuser/mds exports before that re-recording, in ascending row order
ASCENDING_MDS_DIGESTS = {
    (4, 5, 2): "ce96dfa19a9643b9b4bf57913956b75a2834d4015a28e240692c3ae64901f558",
    (4, 6, 3): "9afee2d1977ccdb4f519254f453742cdc10056537a0aa7df5d534220bf464ae2",
}


@pytest.mark.parametrize("N,K,s", list(ASCENDING_MDS_DIGESTS))
def test_ascending_kuser_mds_exports_still_load_and_verify(N, K, s):
    text = dump_scheme(explicit_kuser_mds(N, K, s))
    assert hashlib.sha256(text.encode()).hexdigest() == ASCENDING_MDS_DIGESTS[N, K, s]
    builtin = cached_kuser(CornerPointId.KU_MDS, N, K, s)
    assert text != dump_scheme(builtin)
    assert verify(load_scheme_text(text)).to_json_dict() == verify(builtin).to_json_dict()
