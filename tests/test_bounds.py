"""Converse evaluators, corner-point lists, and external curve files."""

from fractions import Fraction

import pytest

from d2dcache.adapters import adapt_request_random
from d2dcache.bounds import (
    bound_lines_2rr1s,
    converse_2rr1s,
    converse_traditional_n2,
    load_external_curve,
    paper_corner_points,
    prop2_bound,
    shipped_curve,
    TRADITIONAL_N2_LINES,
)
from d2dcache.catalog import CornerPointId, corner_value
from d2dcache.curves import envelope, first_crossing
from d2dcache.errors import ConfigurationError, FeasibilityError, InterchangeError
from d2dcache.model import requesters_of
from d2dcache.verify import verify

from conftest import TWO_RR_POINTS, cached_2rr1s, rational_grid


# ---------------------------------------------------------------------------
# converse evaluators
# ---------------------------------------------------------------------------

def test_one_sender_converse_corner_values():
    assert converse_2rr1s(4, 2) == 1
    assert converse_2rr1s(2, Fraction(7, 6)) == Fraction(1, 2)
    assert converse_2rr1s(2, 1) == Fraction(7, 8)
    assert converse_2rr1s(3, 3) == 0
    assert converse_2rr1s(3, Fraction(11, 6)) == Fraction(1, 2)


def test_one_sender_converse_rejects_infeasible_memory():
    with pytest.raises(FeasibilityError):
        converse_2rr1s(4, Fraction(19, 10))
    with pytest.raises(ConfigurationError):
        converse_2rr1s(4, 5)


def test_traditional_converse_values():
    assert converse_traditional_n2(1) == 1
    assert converse_traditional_n2(Fraction(4, 3)) == Fraction(1, 2)
    assert converse_traditional_n2(2) == 0
    assert converse_traditional_n2(Fraction(2, 3)) == Fraction(5, 3)
    with pytest.raises(FeasibilityError):
        converse_traditional_n2(Fraction(1, 2))


def test_three_sender_cut_line():
    assert prop2_bound(2, 2) == 0
    assert prop2_bound(2, Fraction(4, 3)) == Fraction(1, 2)
    assert prop2_bound(2, 0) == Fraction(3, 2)


def test_cut_line_never_beats_traditional_converse():
    for M in rational_grid(Fraction(2, 3), Fraction(2), Fraction(1, 60)):
        assert prop2_bound(2, M) <= converse_traditional_n2(M)


# ---------------------------------------------------------------------------
# corner-point lists
# ---------------------------------------------------------------------------

def test_printed_list_for_three_files():
    pts = paper_corner_points("2rr1s", 3)
    assert [(p.M, p.R) for p in pts] == [
        (Fraction(3, 2), 1), (Fraction(11, 6), Fraction(1, 2)), (2, Fraction(1, 3)), (3, 0),
    ]


def test_printed_list_for_kuser():
    pts = paper_corner_points("kuser", 4, 5, 2)
    assert [(p.M, p.R) for p in pts] == [(Fraction(4, 3), 2), (Fraction(16, 5), Fraction(1, 5)), (4, 0)]


def test_printed_baseline_list():
    pts = paper_corner_points("rr_baseline_r2", 30)
    assert [(p.M, p.R) for p in pts] == [(10, Fraction(4, 3)), (20, Fraction(1, 2)), (30, 0)]


def test_unknown_regime_rejected():
    with pytest.raises(ConfigurationError):
        paper_corner_points("nope", 2)
    with pytest.raises(ConfigurationError):
        paper_corner_points("kuser", 4)


# the 2rr1s corners behind each printed list, in its order
PRINTED_IDS = {
    2: [CornerPointId.N2_SEVEN_EIGHTHS, CornerPointId.HALF_RATE,
        CornerPointId.MAN_TWO_THIRDS, CornerPointId.FULL],
    3: [CornerPointId.MDS_HALF, CornerPointId.HALF_RATE,
        CornerPointId.MAN_TWO_THIRDS, CornerPointId.FULL],
    4: [CornerPointId.MDS_HALF, CornerPointId.MAN_TWO_THIRDS, CornerPointId.FULL],
    6: [CornerPointId.MDS_HALF, CornerPointId.MAN_TWO_THIRDS, CornerPointId.FULL],
}


def test_printed_lists_agree_with_catalog_corner_values():
    for N, ids in PRINTED_IDS.items():
        listed = [(p.M, p.R) for p in paper_corner_points("2rr1s", N)]
        built = [corner_value(point, N) for point in ids]
        assert listed == built


@pytest.mark.parametrize("N", [2, 3, 4])
def test_printed_r1_list_is_reproduced_by_adaptations(N):
    """Each printed r=1 point is (memory, r=1 worst rate) of one adaptation.

    It is the adaptation of the 2rr1s corner at the same place in
    PRINTED_IDS[N], and every r=1 demand of it decodes.
    """
    built = []
    for point in PRINTED_IDS[N]:
        adaptation = adapt_request_random(cached_2rr1s(point, N))
        report = verify(adaptation.scheme)
        assert all(e.decodable for e in report.demands if len(requesters_of(e.demand)) == 1)
        (memory,) = set(report.memory)
        built.append((memory, adaptation.per_r_worst[1]))
    assert [(p.M, p.R) for p in paper_corner_points("rr_ours_r1", N)] == built


def test_adapted_r3_is_three_halves_of_base():
    base = paper_corner_points("2rr1s", 5)
    scaled = paper_corner_points("rr_ours_r3", 5)
    assert [(p.M, p.R) for p in scaled] == [(p.M, Fraction(3, 2) * p.R) for p in base]


# ---------------------------------------------------------------------------
# matching bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 4, 5, 8])
def test_envelope_equals_converse_on_grid(N):
    curve = envelope(paper_corner_points("2rr1s", N))
    for M in rational_grid(Fraction(N, 2), Fraction(N), Fraction(1, 60)):
        assert curve.value_at(M) == converse_2rr1s(N, M)


def test_traditional_envelope_equals_converse_on_grid():
    curve = envelope(paper_corner_points("trad_n2"))
    for M in rational_grid(Fraction(2, 3), Fraction(2), Fraction(1, 60)):
        assert curve.value_at(M) == converse_traditional_n2(M)


def test_catalog_points_respect_every_converse_line(catalog_2rr1s):
    for label, scheme in catalog_2rr1s():
        M, R = corner_value(
            next(p for p in list(TWO_RR_POINTS) + [CornerPointId.N2_SEVEN_EIGHTHS]
                 if p.value == label.split("/")[0]),
            scheme.N,
        )
        for line in bound_lines_2rr1s(scheme.N):
            assert line.holds(M, R), (label, line)


def test_traditional_point_respects_lines():
    for line in TRADITIONAL_N2_LINES:
        assert line.holds(1, 1)


def test_half_rate_position_relative_to_envelope():
    # exactly on the envelope through N=4, strictly above for N >= 5
    for N in (2, 3):
        curve = envelope(paper_corner_points("2rr1s", N))
        M, R = corner_value(CornerPointId.HALF_RATE, N)
        assert curve.value_at(M) == R
    curve4 = envelope(paper_corner_points("2rr1s", 4))
    M4, R4 = corner_value(CornerPointId.HALF_RATE, 4)
    assert curve4.value_at(M4) == R4  # collinear with the neighboring corners
    for N in (5, 6, 7, 8):
        curve = envelope(paper_corner_points("2rr1s", N))
        M, R = corner_value(CornerPointId.HALF_RATE, N)
        assert R > curve.value_at(M)


# ---------------------------------------------------------------------------
# external curves
# ---------------------------------------------------------------------------

def test_trivial_curve_file(tmp_path):
    f = tmp_path / "one.curve"
    f.write_text("2, 0\n")
    curve = load_external_curve(f)
    assert curve.value_at(2) == 0
    with pytest.raises(FeasibilityError):
        curve.value_at(1)


def test_shipped_uncoded_oneshot_corners():
    curve = load_external_curve(shipped_curve("trad3_n2_uncoded_oneshot.curve"), 2)
    assert [(v.M, v.R) for v in curve.vertices] == [
        (Fraction(2, 3), Fraction(5, 3)), (Fraction(4, 3), Fraction(1, 2)), (2, 0),
    ]


def test_duplicate_points_deduplicated(tmp_path):
    f = tmp_path / "dup.curve"
    f.write_text("1, 1\n1, 1\n2, 0\n")
    assert len(load_external_curve(f).vertices) == 2


def test_malformed_curve_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text("# fine\n1, nope\n")
    with pytest.raises(InterchangeError) as err:
        load_external_curve(bad)
    assert "line 2" in str(err.value)
    over = tmp_path / "over.curve"
    over.write_text("3, 1\n")
    with pytest.raises(InterchangeError) as err:
        load_external_curve(over, N=2)
    assert "line 1" in str(err.value)


def test_curve_entries_must_be_integers_or_p_q(tmp_path, monkeypatch):
    import d2dcache.curves as curves

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    assert curves.parse_fraction(" -3/4 ") == Fraction(-3, 4)
    assert curves.parse_fraction("+2") == 2
    monkeypatch.setattr(curves, "Fraction", no_fraction)
    for text in ("1e999999999", "1.5", "0x10", "1_0", "3/", "/2", "1/2/3", ""):
        with pytest.raises(ValueError):
            curves.parse_fraction(text)
    monkeypatch.undo()
    with pytest.raises(ValueError):
        curves.parse_fraction("1/0")
    bad = tmp_path / "exponent.curve"
    bad.write_text("2, 0\n1e999999999, 1\n")
    with pytest.raises(InterchangeError) as err:
        load_external_curve(bad)
    assert "line 2" in str(err.value)


def test_missing_file_and_empty_file(tmp_path):
    with pytest.raises(InterchangeError):
        load_external_curve(tmp_path / "absent.curve")
    empty = tmp_path / "empty.curve"
    empty.write_text("# nothing\n")
    with pytest.raises(InterchangeError):
        load_external_curve(empty)


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------

def test_rotated_curve_crosses_baseline_at_cited_memory():
    rotated = envelope(paper_corner_points("rr_ours_r3", 2))
    baseline = load_external_curve(shipped_curve("trad3_n2_uncoded_oneshot.curve"), 2)
    crossing = first_crossing(rotated, baseline, Fraction(1), Fraction(2))
    assert crossing == Fraction(89, 78)
    assert abs(float(crossing) - 1.1410) <= 2e-3


def test_no_crossing_when_always_above():
    high = envelope([paper_corner_points("rr_baseline_r2", 2)[0],
                     paper_corner_points("rr_baseline_r2", 2)[1]])
    low = envelope(paper_corner_points("rr_baseline_r1", 2))
    assert first_crossing(high, low, Fraction(2, 3), Fraction(4, 3)) is None
