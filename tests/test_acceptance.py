"""Acceptance criteria, one test per criterion.

Every scheme-level check is exact rational equality.  Each test prints a
single `ACCEPTANCE <n>: PASS/FAIL` line (visible with `pytest -s` or in
the captured output of a failing test).

Criterion 3 is asserted exactly as stated, including the strict
inequality at N=4 where the half-rate point is in fact collinear with
the neighboring corners; that sub-case fails by design rather than by
loosening the check.  See the repository README.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from d2dcache.adapters import adapt_request_random, average_rate, prune_signal, rotate_2rr1s
from d2dcache.bounds import (
    converse_2rr1s,
    converse_traditional_n2,
    load_external_curve,
    paper_corner_points,
    shipped_curve,
)
from d2dcache.catalog import CornerPointId, corner_value
from d2dcache.curves import RatePoint, envelope, first_crossing
from d2dcache.field import FieldSpec, mds_generator, min_extension_degree
from d2dcache.model import enumerate_demands, permute_scheme, requesters_of
from d2dcache.sharing import symmetrize
from d2dcache.verify import verify

from conftest import (
    KUSER_CASES,
    all_2rr1s_schemes,
    cached_2rr1s,
    cached_kuser,
    cached_traditional,
    rational_grid,
)

GRID_STEP = Fraction(1, 60)


def _report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE criterion {number}: {status}{suffix}")


def _theorem_corner_ids(N):
    ids = [CornerPointId.MDS_HALF, CornerPointId.MAN_TWO_THIRDS, CornerPointId.FULL]
    if N == 2:
        ids += [CornerPointId.N2_SEVEN_EIGHTHS, CornerPointId.HALF_RATE]
    if N == 3:
        ids += [CornerPointId.HALF_RATE]
    return ids


def test_criterion_1_corner_point_exactness():
    problems = []
    for N in range(2, 9):
        for point in _theorem_corner_ids(N):
            report = verify(cached_2rr1s(point, N))
            M, R = corner_value(point, N)
            if len(report.demands) != 3 * N * N:
                problems.append(f"{point.value}@N={N}: demand count")
            if not report.passed:
                problems.append(f"{point.value}@N={N}: verification failed")
            if report.memory != (M, M, M) or report.worst_case_rate != R:
                problems.append(
                    f"{point.value}@N={N}: got ({report.memory[0]}, {report.worst_case_rate}),"
                    f" want ({M}, {R})"
                )
    _report(1, not problems, "; ".join(problems))
    assert not problems


def test_criterion_2_matching_bounds():
    problems = []
    for N in (2, 3, 4, 5, 8):
        curve = envelope(paper_corner_points("2rr1s", N))
        for M in rational_grid(Fraction(N, 2), Fraction(N), GRID_STEP):
            if curve.value_at(M) != converse_2rr1s(N, M):
                problems.append(f"N={N}, M={M}")
                break
    _report(2, not problems, "; ".join(problems))
    assert not problems


def test_criterion_3_half_rate_suboptimality():
    problems = []
    for N in (2, 3):
        curve = envelope(paper_corner_points("2rr1s", N))
        M, R = corner_value(CornerPointId.HALF_RATE, N)
        if curve.value_at(M) != R:
            problems.append(f"N={N}: expected the point on the envelope")
    for N in range(4, 9):
        curve = envelope(paper_corner_points("2rr1s", N))
        M, R = corner_value(CornerPointId.HALF_RATE, N)
        if not R > curve.value_at(M):
            problems.append(
                f"N={N}: rate {R} is not strictly above the envelope value {curve.value_at(M)}"
            )
    _report(3, not problems, "; ".join(problems))
    assert not problems


def test_criterion_4_rotation():
    problems = []
    rotated = rotate_2rr1s(cached_2rr1s(CornerPointId.MDS_HALF, 2))
    report = verify(rotated)
    if not report.passed:
        problems.append("rotated half-cache design fails verification")
    if {e.rate for e in report.demands} != {Fraction(3, 2)} or len(report.demands) != 8:
        problems.append("rotated half-cache rate is not 3/2 on all 8 demands")
    for N in (2, 3, 4):
        for label, base in all_2rr1s_schemes(Ns=(N,)):
            base_worst = verify(base, check_decodability=False).worst_case_rate
            rot_worst = verify(rotate_2rr1s(base), check_decodability=False).worst_case_rate
            if rot_worst != Fraction(3, 2) * base_worst:
                problems.append(f"{label}: {rot_worst} != 3/2 * {base_worst}")
    _report(4, not problems, "; ".join(problems))
    assert not problems


def test_criterion_5_traditional_model():
    problems = []
    report = verify(cached_traditional())
    if not report.passed or report.memory != (1, 1, 1) or report.worst_case_rate != 1:
        problems.append("coded (1,1) design does not verify at (1, 1)")

    external = load_external_curve(shipped_curve("trad3_n2_uncoded_oneshot.curve"), 2)
    points = list(external.vertices) + [RatePoint(1, 1, "coded")]
    curve = envelope(points)
    for M in rational_grid(Fraction(2, 3), Fraction(2), GRID_STEP):
        if curve.value_at(M) != converse_traditional_n2(M):
            problems.append(f"achievable != converse at M={M}")
            break

    rotated = envelope(paper_corner_points("rr_ours_r3", 2))
    if rotated.value_at(Fraction(7, 6)) != Fraction(3, 4):
        problems.append("rotated envelope misses (7/6, 3/4)")
    for M in rational_grid(Fraction(7, 6), Fraction(4, 3), GRID_STEP):
        if rotated.value_at(M) != converse_traditional_n2(M):
            problems.append(f"rotated envelope != optimum at M={M}")
            break

    crossing = first_crossing(rotated, external, Fraction(1), Fraction(2))
    if crossing is None or not Fraction(1139, 1000) <= crossing <= Fraction(1143, 1000):
        problems.append(f"crossover {crossing} outside [1.139, 1.143]")
    _report(5, not problems,
            "; ".join(problems) or f"crossover at {crossing} = {float(crossing):.4f}")
    assert not problems


def _printed_r1_expectations(N):
    if N == 2:
        return [(CornerPointId.N2_SEVEN_EIGHTHS, Fraction(5, 8)),
                (CornerPointId.HALF_RATE, Fraction(1, 2)),
                (CornerPointId.MAN_TWO_THIRDS, Fraction(1, 3)),
                (CornerPointId.FULL, Fraction(0))]
    if N == 3:
        return [(CornerPointId.MDS_HALF, Fraction(1, 2)),
                (CornerPointId.HALF_RATE, Fraction(1, 2)),
                (CornerPointId.MAN_TWO_THIRDS, Fraction(1, 3)),
                (CornerPointId.FULL, Fraction(0))]
    return [(CornerPointId.MDS_HALF, Fraction(1, 2)),
            (CornerPointId.MAN_TWO_THIRDS, Fraction(1, 3)),
            (CornerPointId.FULL, Fraction(0))]


def test_criterion_6_request_random():
    problems = []
    scheme = cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    assignment = adapt_request_random(scheme).fake_assignments[(0, 0, 1)]
    pruned = prune_signal(scheme, assignment.fake_demand, (3,))
    if pruned.row_count != 5 or Fraction(pruned.row_count, scheme.L) != Fraction(5, 8):
        problems.append(f"pruned signal has {pruned.row_count} rows, want 5")

    for N in (2, 3, 4, 5):
        for point, want in _printed_r1_expectations(N):
            got = adapt_request_random(cached_2rr1s(point, N)).per_r_worst[1]
            status = "matches" if got == want else f"MISMATCH (got {got})"
            print(f"  r=1 worst rate, {point.value}@N={N}: printed {want} -> {status}")
            if got != want:
                problems.append(f"r=1 {point.value}@N={N}: {got} != {want}")

    baselines = {
        r: load_external_curve(shipped_curve(f"rr_baseline_{r}_n30.curve"), 30)
        for r in ("r1", "r2", "r3")
    }
    M = Fraction(20)
    base_rates = {0: Fraction(0)}
    ours_rates = {0: Fraction(0)}
    for x in (1, 2, 3):
        base_rates[x] = baselines[f"r{x}"].value_at(M)
        ours_rates[x] = envelope(paper_corner_points(f"rr_ours_r{x}", 30)).value_at(M)
    if [base_rates[x] for x in (1, 2, 3)] != [Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)]:
        problems.append(f"shipped baseline values at M=20 are {base_rates}")
    avg_base = average_rate(0.59, base_rates)
    avg_ours = average_rate(0.59, ours_rates)
    gain = (avg_base - avg_ours) / avg_base
    if abs(gain - 0.17) > 0.01:
        problems.append(f"relative gain {gain:.4f} outside 0.17 +/- 0.01")
    _report(6, not problems, "; ".join(problems) or f"gain {gain:.4f}")
    assert not problems


def test_criterion_7_kuser():
    problems = []
    for (N, K, s) in KUSER_CASES:
        for point in (CornerPointId.KU_MDS, CornerPointId.KU_MAN):
            scheme = cached_kuser(point, N, K, s)
            report = verify(scheme)
            M, R = corner_value(point, N, K, s)
            if not report.passed:
                problems.append(f"{point.value}@{(N, K, s)}: verification failed")
            if report.memory != (M,) * K or report.worst_case_rate != R:
                problems.append(f"{point.value}@{(N, K, s)}: wrong corner")
            if point is CornerPointId.KU_MDS:
                for entry in report.demands:
                    n_e = len({v for v in entry.demand if v != 0})
                    if entry.rate != Fraction(s * n_e, s + 1):
                        problems.append(f"{point.value}@{(N, K, s)}: rate law at {entry.demand}")
                        break
    mds231 = verify(cached_kuser(CornerPointId.KU_MDS, 2, 3, 1))
    if (mds231.memory[0], mds231.worst_case_rate) != (1, 1):
        problems.append("(2,3,1) does not recover the (1, 1) corner")
    _report(7, not problems, "; ".join(problems))
    assert not problems


def _field_axioms_hold():
    for m in (1, 2, 3, 4):
        f = FieldSpec(m)
        for a, b, c in product(range(f.size), repeat=3):
            if f.mul(a, f.mul(b, c)) != f.mul(f.mul(a, b), c):
                return False
            if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                return False
            if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                return False
    f = FieldSpec(8)
    rng = random.Random(2024)
    for _ in range(1500):
        a, b, c = (rng.randrange(256) for _ in range(3))
        if f.mul(a, f.mul(b, c)) != f.mul(f.mul(a, b), c):
            return False
        if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
            return False
    return all(f.mul(a, f.inv(a)) == 1 for a in range(1, 256))


def _det(rows, f):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            det = f.add(det, f.mul(rows[0][j], _det(minor, f)))
    return det


def _mds_minors_invertible():
    for n_out in range(2, 9):
        f = FieldSpec(min_extension_degree(n_out))
        for k_in in range(1, n_out + 1):
            gen = mds_generator(n_out, k_in, f)
            for rows in combinations(gen.rows, k_in):
                if _det([list(r) for r in rows], f) == 0:
                    return False
    return True


def _permutation_idempotence():
    rng = random.Random(7)
    cases = [cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2),
             cached_2rr1s(CornerPointId.HALF_RATE, 3),
             cached_traditional(),
             cached_kuser(CornerPointId.KU_MDS, 3, 4, 1)]
    for scheme in cases:
        base = verify(scheme)
        for _ in range(2):
            up = list(range(1, scheme.K + 1))
            fp = list(range(1, scheme.N + 1))
            rng.shuffle(up)
            rng.shuffle(fp)
            moved = verify(permute_scheme(scheme, up, fp))
            if not moved.passed:
                return False
            if sorted(e.rate for e in moved.demands) != sorted(e.rate for e in base.demands):
                return False
    return True


def _symmetrize_never_increases_worst_case():
    bases = all_2rr1s_schemes() + [("trad", cached_traditional())]
    for (N, K, s) in KUSER_CASES:
        for point in (CornerPointId.KU_MDS, CornerPointId.KU_MAN):
            bases.append((f"{point.value}@{(N, K, s)}", cached_kuser(point, N, K, s)))
    checked = 0
    for label, base in bases:
        import math
        if math.factorial(base.N) * math.factorial(base.K) * base.L > 10 ** 6:
            continue
        worst_base = verify(base, check_decodability=False).worst_case_rate
        worst_sym = verify(symmetrize(base), check_decodability=False).worst_case_rate
        if worst_sym > worst_base:
            return False, f"{label}: {worst_sym} > {worst_base}"
        checked += 1
    return True, f"{checked} bases"


def _pruning_monotone_everywhere():
    bases = all_2rr1s_schemes() + [("trad", cached_traditional())]
    for (N, K, s) in KUSER_CASES:
        for point in (CornerPointId.KU_MDS, CornerPointId.KU_MAN):
            bases.append((f"{point.value}@{(N, K, s)}", cached_kuser(point, N, K, s)))
    for label, scheme in bases:
        for demand in enumerate_demands(scheme.model, scheme.N, scheme.K, scheme.s):
            real = requesters_of(demand)
            before = sum(sig.row_count for sig in scheme.delivery[demand].values())
            pruned = prune_signal(scheme, demand, real)  # re-checks decodability
            if pruned.row_count > before:
                return False, f"{label} at {demand}"
    return True, ""


def test_criterion_8_property_suites():
    problems = []
    if not _field_axioms_hold():
        problems.append("field axioms")
    if not _mds_minors_invertible():
        problems.append("MDS minor invertibility")
    if not _permutation_idempotence():
        problems.append("verify-idempotence under permutation")
    sym_ok, sym_detail = _symmetrize_never_increases_worst_case()
    if not sym_ok:
        problems.append(f"symmetrize increased a worst case ({sym_detail})")
    prune_ok, prune_detail = _pruning_monotone_everywhere()
    if not prune_ok:
        problems.append(f"pruning failed at {prune_detail}")
    _report(8, not problems, "; ".join(problems) or f"symmetrized {sym_detail}")
    assert not problems
