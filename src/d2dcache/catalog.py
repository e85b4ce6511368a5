"""Constructors for every built-in caching/delivery scheme.

Each builder returns a LinearScheme whose verified memory and worst-case
rate land exactly on the advertised corner point.  Builders that design
delivery rows in symbol space express them over the sender's cache via
solve_in_rowspace, which reuses one echelon per sender placement, so a
construction bug surfaces as an EncodingError instead of a bad scheme.
The kuser/mds builder sends cached rows as they are and writes their
coefficients directly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConfigurationError, EncodingError
from .field import GF2, FieldMatrix, FieldSpec, mds_generator, min_extension_degree, solve_in_rowspace
from .model import (
    Demand,
    LinearScheme,
    ModelKind,
    SenderSignal,
    enumerate_demands,
    idle_counts,
    senders_of,
    symbol_col,
    unit_row,
    xor_rows,
)

__all__ = [
    "CornerPointId",
    "build_2rr1s_scheme",
    "build_traditional_scheme",
    "build_kuser_scheme",
    "corner_value",
]


class CornerPointId(str, Enum):
    FULL = "full"
    MDS_HALF = "mds-half"
    MAN_TWO_THIRDS = "man-2-3"
    HALF_RATE = "half-rate"
    N2_SEVEN_EIGHTHS = "n2-7-8"
    TRAD_CODED_ONE_ONE = "coded-1-1"
    KU_MDS = "ku-mds"
    KU_MAN = "ku-man"
    KU_FULL = "ku-full"


def corner_value(point: CornerPointId, N: int, K: int = 3, s: int = 1) -> tuple[Fraction, Fraction]:
    """The (memory, worst-case rate) pair a builder is expected to hit."""
    if point is CornerPointId.FULL or point is CornerPointId.KU_FULL:
        return Fraction(N), Fraction(0)
    if point is CornerPointId.MDS_HALF:
        return Fraction(N, 2), Fraction(1)
    if point is CornerPointId.MAN_TWO_THIRDS:
        return Fraction(2 * N, 3), Fraction(1, 3)
    if point is CornerPointId.HALF_RATE:
        return Fraction(4 * N - 1, 6), Fraction(1, 2)
    if point is CornerPointId.N2_SEVEN_EIGHTHS:
        return Fraction(1), Fraction(7, 8)
    if point is CornerPointId.TRAD_CODED_ONE_ONE:
        return Fraction(1), Fraction(1)
    if point is CornerPointId.KU_MDS:
        return Fraction(N, s + 1), Fraction(s * min(N, K - s), s + 1)
    if point is CornerPointId.KU_MAN:
        return Fraction((K - 1) * N, K), Fraction(1, K)
    raise ConfigurationError(f"unknown corner point {point}")


def _signal(P: FieldMatrix, symbol_rows: Sequence[Sequence[int]],
            serves: Optional[Sequence[Optional[tuple[int, ...]]]] = None) -> SenderSignal:
    coeffs = []
    for row in symbol_rows:
        c = solve_in_rowspace(row, P)
        if c is None:
            raise EncodingError("delivery row is outside the sender's cache row space")
        coeffs.append(c)
    mat = (FieldMatrix.from_rows(P.spec, coeffs, ncols=P.nrows)
           if coeffs else FieldMatrix.empty(P.spec, P.nrows))
    return SenderSignal(mat, tuple(serves) if serves is not None else None)


def _empty_delivery(model: ModelKind, N: int, K: int, s: Optional[int],
                    placement: Sequence[FieldMatrix]) -> dict[Demand, dict[int, SenderSignal]]:
    delivery = {}
    for d in enumerate_demands(model, N, K, s):
        delivery[d] = {
            k: SenderSignal(FieldMatrix.empty(placement[k - 1].spec, placement[k - 1].nrows))
            for k in senders_of(d)
        }
    return delivery


# ---------------------------------------------------------------------------
# Two random requesters, one sender (K = 3)
# ---------------------------------------------------------------------------

def build_2rr1s_scheme(point: CornerPointId, N: int) -> LinearScheme:
    if N < 2:
        raise ConfigurationError("need at least two files")
    if point is CornerPointId.FULL:
        return _full_scheme(ModelKind.TWO_RR_ONE_S, N, 3, 1)
    if point is CornerPointId.MDS_HALF:
        return _mds_half(N)
    if point is CornerPointId.MAN_TWO_THIRDS:
        return _man_two_thirds(N)
    if point is CornerPointId.HALF_RATE:
        return _half_rate(N)
    if point is CornerPointId.N2_SEVEN_EIGHTHS:
        if N != 2:
            raise ConfigurationError("the (1, 7/8) design exists only for N=2")
        return _n2_seven_eighths()
    raise ConfigurationError(f"{point.value} is not a two-requester corner point")


def _full_scheme(model: ModelKind, N: int, K: int, s: Optional[int]) -> LinearScheme:
    placement = tuple(FieldMatrix.identity(GF2, N) for _ in range(K))
    delivery = _empty_delivery(model, N, K, s, placement)
    return LinearScheme(model, N, K, s, 1, GF2, placement, delivery)


def _mds_half(N: int) -> LinearScheme:
    L = 2
    parity = {n: xor_rows(unit_row(N, L, n, 1), unit_row(N, L, n, 2)) for n in range(1, N + 1)}
    P1 = FieldMatrix.from_rows(GF2, [parity[n] for n in range(1, N + 1)])
    P2 = FieldMatrix.from_rows(GF2, [unit_row(N, L, n, 1) for n in range(1, N + 1)])
    P3 = FieldMatrix.from_rows(GF2, [unit_row(N, L, n, 2) for n in range(1, N + 1)])
    placement = (P1, P2, P3)
    delivery = {}
    for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1):
        d1, d2, d3 = d
        if d1 == 0:
            rows = [parity[d2], parity[d3]]
            serves = [(2,), (3,)]
            sender = 1
        elif d2 == 0:
            rows = [unit_row(N, L, d1, 1), unit_row(N, L, d3, 1)]
            serves = [(1,), (3,)]
            sender = 2
        else:
            rows = [unit_row(N, L, d1, 2), unit_row(N, L, d2, 2)]
            serves = [(1,), (2,)]
            sender = 3
        delivery[d] = {sender: _signal(placement[sender - 1], rows, serves)}
    return LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, delivery)


def _man_two_thirds(N: int) -> LinearScheme:
    # subfile slots: 1 <-> {1,2}, 2 <-> {1,3}, 3 <-> {2,3}
    L = 3
    slots_of_user = {1: (1, 2), 2: (1, 3), 3: (2, 3)}
    placement = tuple(
        FieldMatrix.from_rows(
            GF2,
            [unit_row(N, L, n, sl) for n in range(1, N + 1) for sl in slots_of_user[k]],
        )
        for k in (1, 2, 3)
    )
    delivery = {}
    for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1):
        d1, d2, d3 = d
        if d1 == 0:
            row = xor_rows(unit_row(N, L, d2, 2), unit_row(N, L, d3, 1))
            sender = 1
        elif d2 == 0:
            row = xor_rows(unit_row(N, L, d1, 3), unit_row(N, L, d3, 1))
            sender = 2
        else:
            row = xor_rows(unit_row(N, L, d1, 3), unit_row(N, L, d2, 2))
            sender = 3
        delivery[d] = {sender: _signal(placement[sender - 1], [row])}
    return LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, delivery)


def _half_rate(N: int) -> LinearScheme:
    """Chained coded placement at memory (4N-1)/6 and constant rate 1/2.

    Per user the layout keeps, for every file, one coded pair and two
    pure subfiles, plus a cross-file chain row per adjacent file pair
    that lets the sender preprocess any needed pairwise combination.
    """
    L = 6
    u = lambda n, l: unit_row(N, L, n, l)

    def rows_for(pair: tuple[int, int], pure: tuple[int, int], chain: int) -> list:
        out = []
        for n in range(1, N + 1):
            out.append(xor_rows(u(n, pair[0]), u(n, pair[1])))
            out.append(u(n, pure[0]))
            out.append(u(n, pure[1]))
        for n in range(1, N):
            out.append(xor_rows(u(n, chain), u(n + 1, chain - 1)))
        return out

    P1 = FieldMatrix.from_rows(GF2, rows_for((1, 2), (4, 5), 2))
    P2 = FieldMatrix.from_rows(GF2, rows_for((3, 4), (1, 6), 4))
    P3 = FieldMatrix.from_rows(GF2, rows_for((5, 6), (2, 3), 6))
    placement = (P1, P2, P3)
    delivery = {}
    for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1):
        d1, d2, d3 = d
        if d1 == 0:
            rows = [xor_rows(u(d2, 2), u(d3, 1)), u(d3, 4), u(d2, 5)]
            sender = 1
        elif d2 == 0:
            rows = [xor_rows(u(d1, 3), u(d3, 4)), u(d3, 1), u(d1, 6)]
            sender = 2
        else:
            rows = [xor_rows(u(d1, 6), u(d2, 5)), u(d2, 2), u(d1, 3)]
            sender = 3
        delivery[d] = {sender: _signal(placement[sender - 1], rows)}
    return LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, delivery)


def _n2_seven_eighths() -> LinearScheme:
    N, L = 2, 8
    A = lambda l: unit_row(N, L, 1, l)
    B = lambda l: unit_row(N, L, 2, l)
    W = {1: A, 2: B}
    x = xor_rows
    P1 = FieldMatrix.from_rows(GF2, [
        x(A(1), B(2)), x(A(2), B(1)), B(4), A(4), A(5), B(5), x(A(7), A(8)), x(B(7), B(8)),
    ])
    P2 = FieldMatrix.from_rows(GF2, [
        A(1), B(1), x(A(3), B(4)), x(A(4), B(3)), B(6), A(6), A(7), B(7),
    ])
    P3 = FieldMatrix.from_rows(GF2, [
        B(2), A(2), A(3), B(3), x(A(5), B(6)), x(A(6), B(5)), A(8), B(8),
    ])
    placement = (P1, P2, P3)
    delivery = {}
    for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, 2, 3, 1):
        d1, d2, d3 = d
        if d1 == 0:
            if d2 != d3:
                rows = [x(W[d2](2), W[d3](1)), A(4), B(4), A(5), B(5), x(A(7), A(8)), x(B(7), B(8))]
            else:
                rows = [x(W[d2](7), W[d2](8)), A(4), B(4), A(5), B(5), x(A(1), B(2)), x(A(2), B(1))]
            sender = 1
        elif d2 == 0:
            if d1 != d3:
                rows = [x(W[d1](3), W[d3](4)), A(1), B(1), A(6), B(6), A(7), B(7)]
            else:
                rows = [W[d1](7), A(1), B(1), A(6), B(6), x(A(3), B(4)), x(A(4), B(3))]
            sender = 2
        else:
            if d1 != d2:
                rows = [x(W[d1](6), W[d2](5)), A(2), B(2), A(3), B(3), A(8), B(8)]
            else:
                rows = [W[d1](8), A(2), B(2), A(3), B(3), x(A(5), B(6)), x(A(6), B(5))]
            sender = 3
        delivery[d] = {sender: _signal(placement[sender - 1], rows)}
    return LinearScheme(ModelKind.TWO_RR_ONE_S, 2, 3, 1, L, GF2, placement, delivery)


# ---------------------------------------------------------------------------
# Traditional three-user model (every user requests and transmits)
# ---------------------------------------------------------------------------

def build_traditional_scheme(point: CornerPointId, N: int) -> LinearScheme:
    if point is not CornerPointId.TRAD_CODED_ONE_ONE or N != 2:
        raise ConfigurationError("only the N=2 coded (1, 1) design is cataloged")
    L = 6
    A = lambda l: unit_row(N, L, 1, l)
    B = lambda l: unit_row(N, L, 2, l)
    x = xor_rows
    P1 = FieldMatrix.from_rows(GF2, [x(A(1), B(1)), x(A(2), B(2)), A(3), A(4), B(3), B(4)])
    P2 = FieldMatrix.from_rows(GF2, [x(A(3), B(3)), x(A(4), B(4)), A(5), A(6), B(5), B(6)])
    P3 = FieldMatrix.from_rows(GF2, [x(A(5), B(5)), x(A(6), B(6)), A(1), A(2), B(1), B(2)])
    placement = (P1, P2, P3)
    W = {1: A, 2: B}
    delivery = {}
    for d in enumerate_demands(ModelKind.TRADITIONAL_D2D, N, 3, 0):
        d1, d2, d3 = d
        delivery[d] = {
            1: _signal(P1, [W[d3](3), W[d3](4)], [(3,), (3,)]),
            2: _signal(P2, [W[d1](5), W[d1](6)], [(1,), (1,)]),
            3: _signal(P3, [W[d2](1), W[d2](2)], [(2,), (2,)]),
        }
    return LinearScheme(ModelKind.TRADITIONAL_D2D, N, 3, 0, L, GF2, placement, delivery)


# ---------------------------------------------------------------------------
# K users, s designated senders
# ---------------------------------------------------------------------------

def build_kuser_scheme(point: CornerPointId, N: int, K: int, s: int) -> LinearScheme:
    if N < 2:
        raise ConfigurationError("need at least two files")
    idle_counts(ModelKind.K_USER_S_SENDERS, N, K, s)
    if point is CornerPointId.KU_FULL:
        return _full_scheme(ModelKind.K_USER_S_SENDERS, N, K, s)
    if point is CornerPointId.KU_MDS:
        return _kuser_mds(N, K, s)
    if point is CornerPointId.KU_MAN:
        return _kuser_man(N, K, s)
    raise ConfigurationError(f"{point.value} is not a K-user corner point")


def _kuser_mds(N: int, K: int, s: int) -> LinearScheme:
    spec = FieldSpec(min_extension_degree(K))
    L = s + 1
    G = mds_generator(K, L, spec)
    # user k caches row k of G applied to the L subfiles of every file
    placement = tuple(
        FieldMatrix(spec, N, N * L, tuple(g << symbol_col(N, L, n, 1) * spec.m
                                          for n in range(1, N + 1)))
        for g in G.images
    )
    delivery = {}
    for d in enumerate_demands(ModelKind.K_USER_S_SENDERS, N, K, s):
        distinct = sorted({v for v in d if v})
        # every sender sends cache row f - 1, its coded symbol of file f, as it is
        units = tuple(1 << (f - 1) * spec.m for f in distinct)
        serves = tuple(tuple(r + 1 for r, v in enumerate(d) if v == f) for f in distinct)
        signal = SenderSignal(FieldMatrix(spec, len(units), N, units), serves or None)
        delivery[d] = {k: signal for k in senders_of(d)}
    return LinearScheme(ModelKind.K_USER_S_SENDERS, N, K, s, L, spec, placement, delivery)


def _kuser_man(N: int, K: int, s: int) -> LinearScheme:
    L = K
    placement = tuple(
        FieldMatrix.from_rows(
            GF2,
            [unit_row(N, L, n, j) for n in range(1, N + 1) for j in range(1, K + 1) if j != k],
        )
        for k in range(1, K + 1)
    )
    delivery = {}
    for d in enumerate_demands(ModelKind.K_USER_S_SENDERS, N, K, s):
        senders = senders_of(d)
        lead = min(senders)
        row = xor_rows(*[unit_row(N, L, d[k - 1], k) for k in range(1, K + 1) if d[k - 1]])
        per_sender = {}
        for k in senders:
            if k == lead:
                per_sender[k] = _signal(placement[k - 1], [row])
            else:
                per_sender[k] = SenderSignal(FieldMatrix.empty(GF2, placement[k - 1].nrows))
        delivery[d] = per_sender
    return LinearScheme(ModelKind.K_USER_S_SENDERS, N, K, s, L, GF2, placement, delivery)
