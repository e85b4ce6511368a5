"""Constructors for every built-in caching/delivery scheme.

Each builder returns a scheme whose verified memory and worst-case rate
land exactly on the advertised corner point.  Builders write rows as
binary images: symbol (n, l) is `unit_image(N, L, n, l)` and a sum of
symbols is the XOR of their images.  A delivery row designed in symbol
space is expressed over the sender's cache (`model.encoded_signal`), so a
construction bug surfaces as an EncodingError instead of a bad scheme.

Relabelling the files of a demand relabels its delivery rows, so every
builder but one writes one delivery per file pattern and returns an
OrbitScheme; a moved kuser/mds demand sends its rows in first-appearance
order of its files.  n2-7-8 stays an explicit LinearScheme: it has only
12 demands, and its rows list symbols of both files in a fixed order
(A4, B4, ...) that a moved demand would send swapped, changing its export.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import ConfigurationError
from .field import GF2, FieldMatrix, FieldSpec, mds_generator, min_extension_degree
# unused here; benchmarks/tests/test_benchmark.py::test_tracer_restores_the_program reads it
from .field import solve_in_rowspace  # noqa: F401
from .model import (
    LinearScheme,
    ModelKind,
    OrbitScheme,
    Scheme,
    SenderSignal,
    demand_count,
    encoded_signal,
    enumerate_demands,
    enumerate_patterns,
    senders_of,
    unit_image,
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


# (memory, worst-case rate) of each corner, from N, K and s
_CORNERS = {
    CornerPointId.FULL: lambda N, K, s: (N, 0),
    CornerPointId.MDS_HALF: lambda N, K, s: (Fraction(N, 2), 1),
    CornerPointId.MAN_TWO_THIRDS: lambda N, K, s: (Fraction(2 * N, 3), Fraction(1, 3)),
    CornerPointId.HALF_RATE: lambda N, K, s: (Fraction(4 * N - 1, 6), Fraction(1, 2)),
    CornerPointId.N2_SEVEN_EIGHTHS: lambda N, K, s: (1, Fraction(7, 8)),
    CornerPointId.TRAD_CODED_ONE_ONE: lambda N, K, s: (1, 1),
    CornerPointId.KU_MDS: lambda N, K, s: (Fraction(N, s + 1), Fraction(s * min(N, K - s), s + 1)),
    CornerPointId.KU_MAN: lambda N, K, s: (Fraction((K - 1) * N, K), Fraction(1, K)),
    CornerPointId.KU_FULL: lambda N, K, s: (N, 0),
}


def corner_value(point: CornerPointId, N: int, K: int = 3, s: int = 1) -> tuple[Fraction, Fraction]:
    """The (memory, worst-case rate) pair a builder is expected to hit."""
    if not isinstance(point, CornerPointId):
        raise ConfigurationError(f"unknown corner point {point}")
    memory, rate = _CORNERS[point](N, K, s)
    return Fraction(memory), Fraction(rate)


def _idle_signals(placement: Sequence[FieldMatrix]) -> tuple[SenderSignal, ...]:
    """One empty signal per user, shared by every demand in which it sends nothing."""
    return tuple(SenderSignal(FieldMatrix.empty(P.spec, P.nrows)) for P in placement)


# ---------------------------------------------------------------------------
# Two random requesters, one sender (K = 3)
# ---------------------------------------------------------------------------

def build_2rr1s_scheme(point: CornerPointId, N: int) -> Scheme:
    if N < 2:
        raise ConfigurationError("need at least two files")
    # checked before any placement is built: each user caches O(N) rows
    demand_count(ModelKind.TWO_RR_ONE_S, N, 3, 1)
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


def _full_scheme(model: ModelKind, N: int, K: int, s: Optional[int]) -> OrbitScheme:
    placement = tuple(FieldMatrix.identity(GF2, N) for _ in range(K))
    idle = _idle_signals(placement)
    patterns = {d: {k: idle[k - 1] for k in senders_of(d)}
                for d in enumerate_patterns(model, N, K, s)}
    return OrbitScheme(model, N, K, s, 1, GF2, placement, patterns)


def _cache(N: int, L: int, images: Sequence[int]) -> FieldMatrix:
    """A GF(2) placement whose rows are the given symbol-space images."""
    return FieldMatrix(GF2, len(images), N * L, tuple(images))


def _idle_sender_scheme(N: int, L: int, placement: tuple[FieldMatrix, ...],
                        rows: Mapping[int, Callable[[int, int], list[int]]]) -> OrbitScheme:
    """A GF(2) two-requester design in which idle user k sends rows[k](a, b).

    a and b are the two requests in user order; the rows are symbol-space
    images, expressed over user k's cache.
    """
    patterns = {}
    for d in enumerate_patterns(ModelKind.TWO_RR_ONE_S, N, 3, 1):
        k = d.index(0) + 1
        a, b = (f for f in d if f)
        patterns[d] = {k: encoded_signal(placement[k - 1], rows[k](a, b))}
    return OrbitScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, GF2, placement, patterns)


def _mds_half(N: int) -> OrbitScheme:
    L = 2
    u = lambda n, l: unit_image(N, L, n, l)
    files = range(1, N + 1)
    parity = {n: u(n, 1) ^ u(n, 2) for n in files}
    P1 = _cache(N, L, [parity[n] for n in files])
    P2 = _cache(N, L, [u(n, 1) for n in files])
    P3 = _cache(N, L, [u(n, 2) for n in files])
    return _idle_sender_scheme(N, L, (P1, P2, P3), {
        1: lambda a, b: [parity[a], parity[b]],
        2: lambda a, b: [u(a, 1), u(b, 1)],
        3: lambda a, b: [u(a, 2), u(b, 2)],
    })


def _man_two_thirds(N: int) -> OrbitScheme:
    # subfile slots: 1 <-> {1,2}, 2 <-> {1,3}, 3 <-> {2,3}
    L = 3
    u = lambda n, l: unit_image(N, L, n, l)
    slots_of_user = {1: (1, 2), 2: (1, 3), 3: (2, 3)}
    placement = tuple(
        _cache(N, L, [u(n, sl) for n in range(1, N + 1) for sl in slots_of_user[k]])
        for k in (1, 2, 3)
    )
    return _idle_sender_scheme(N, L, placement, {
        1: lambda a, b: [u(a, 2) ^ u(b, 1)],
        2: lambda a, b: [u(a, 3) ^ u(b, 1)],
        3: lambda a, b: [u(a, 3) ^ u(b, 2)],
    })


def _half_rate(N: int) -> OrbitScheme:
    """Chained coded placement at memory (4N-1)/6 and constant rate 1/2.

    Per user the layout keeps, for every file, one coded pair and two
    pure subfiles, plus a cross-file chain row per adjacent file pair
    that lets the sender preprocess any needed pairwise combination.
    """
    L = 6
    u = lambda n, l: unit_image(N, L, n, l)

    def cache(pair: tuple[int, int], pure: tuple[int, int], chain: int) -> FieldMatrix:
        out = []
        for n in range(1, N + 1):
            out.append(u(n, pair[0]) ^ u(n, pair[1]))
            out.append(u(n, pure[0]))
            out.append(u(n, pure[1]))
        for n in range(1, N):
            out.append(u(n, chain) ^ u(n + 1, chain - 1))
        return _cache(N, L, out)

    placement = (cache((1, 2), (4, 5), 2), cache((3, 4), (1, 6), 4), cache((5, 6), (2, 3), 6))
    return _idle_sender_scheme(N, L, placement, {
        1: lambda a, b: [u(a, 2) ^ u(b, 1), u(b, 4), u(a, 5)],
        2: lambda a, b: [u(a, 3) ^ u(b, 4), u(b, 1), u(a, 6)],
        3: lambda a, b: [u(a, 6) ^ u(b, 5), u(b, 2), u(a, 3)],
    })


def _n2_seven_eighths() -> LinearScheme:
    N, L = 2, 8
    A = lambda l: unit_image(N, L, 1, l)
    B = lambda l: unit_image(N, L, 2, l)
    W = {1: A, 2: B}
    P1 = _cache(N, L, [
        A(1) ^ B(2), A(2) ^ B(1), B(4), A(4), A(5), B(5), A(7) ^ A(8), B(7) ^ B(8),
    ])
    P2 = _cache(N, L, [
        A(1), B(1), A(3) ^ B(4), A(4) ^ B(3), B(6), A(6), A(7), B(7),
    ])
    P3 = _cache(N, L, [
        B(2), A(2), A(3), B(3), A(5) ^ B(6), A(6) ^ B(5), A(8), B(8),
    ])
    placement = (P1, P2, P3)
    delivery = {}
    for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, 2, 3, 1):
        d1, d2, d3 = d
        if d1 == 0:
            if d2 != d3:
                rows = [W[d2](2) ^ W[d3](1), A(4), B(4), A(5), B(5), A(7) ^ A(8), B(7) ^ B(8)]
            else:
                rows = [W[d2](7) ^ W[d2](8), A(4), B(4), A(5), B(5), A(1) ^ B(2), A(2) ^ B(1)]
            sender = 1
        elif d2 == 0:
            if d1 != d3:
                rows = [W[d1](3) ^ W[d3](4), A(1), B(1), A(6), B(6), A(7), B(7)]
            else:
                rows = [W[d1](7), A(1), B(1), A(6), B(6), A(3) ^ B(4), A(4) ^ B(3)]
            sender = 2
        else:
            if d1 != d2:
                rows = [W[d1](6) ^ W[d2](5), A(2), B(2), A(3), B(3), A(8), B(8)]
            else:
                rows = [W[d1](8), A(2), B(2), A(3), B(3), A(5) ^ B(6), A(6) ^ B(5)]
            sender = 3
        delivery[d] = {sender: encoded_signal(placement[sender - 1], rows)}
    return LinearScheme(ModelKind.TWO_RR_ONE_S, 2, 3, 1, L, GF2, placement, delivery)


# ---------------------------------------------------------------------------
# Traditional three-user model (every user requests and transmits)
# ---------------------------------------------------------------------------

def build_traditional_scheme(point: CornerPointId, N: int) -> OrbitScheme:
    if point is not CornerPointId.TRAD_CODED_ONE_ONE or N != 2:
        raise ConfigurationError("only the N=2 coded (1, 1) design is cataloged")
    L = 6
    A = lambda l: unit_image(N, L, 1, l)
    B = lambda l: unit_image(N, L, 2, l)
    P1 = _cache(N, L, [A(1) ^ B(1), A(2) ^ B(2), A(3), A(4), B(3), B(4)])
    P2 = _cache(N, L, [A(3) ^ B(3), A(4) ^ B(4), A(5), A(6), B(5), B(6)])
    P3 = _cache(N, L, [A(5) ^ B(5), A(6) ^ B(6), A(1), A(2), B(1), B(2)])
    placement = (P1, P2, P3)
    W = {1: A, 2: B}
    patterns = {}
    for d in enumerate_patterns(ModelKind.TRADITIONAL_D2D, N, 3, 0):
        d1, d2, d3 = d
        patterns[d] = {
            1: encoded_signal(P1, [W[d3](3), W[d3](4)]),
            2: encoded_signal(P2, [W[d1](5), W[d1](6)]),
            3: encoded_signal(P3, [W[d2](1), W[d2](2)]),
        }
    return OrbitScheme(ModelKind.TRADITIONAL_D2D, N, 3, 0, L, GF2, placement, patterns)


# ---------------------------------------------------------------------------
# K users, s designated senders
# ---------------------------------------------------------------------------

def build_kuser_scheme(point: CornerPointId, N: int, K: int, s: int) -> Scheme:
    if N < 2:
        raise ConfigurationError("need at least two files")
    # checked before any placement is built, which can be as large as N * K^2 rows
    demand_count(ModelKind.K_USER_S_SENDERS, N, K, s)
    if point is CornerPointId.KU_FULL:
        return _full_scheme(ModelKind.K_USER_S_SENDERS, N, K, s)
    if point is CornerPointId.KU_MDS:
        return _kuser_mds(N, K, s)
    if point is CornerPointId.KU_MAN:
        return _kuser_man(N, K, s)
    raise ConfigurationError(f"{point.value} is not a K-user corner point")


def _kuser_mds(N: int, K: int, s: int) -> OrbitScheme:
    spec = FieldSpec(min_extension_degree(K))
    L = s + 1
    G = mds_generator(K, L, spec)
    # user k caches row k of G applied to the L subfiles of every file
    placement = tuple(
        FieldMatrix(spec, N, N * L, tuple(g * unit_image(N, L, n, 1, spec.m)
                                          for n in range(1, N + 1)))
        for g in G.images
    )
    # every sender sends cache rows 0..max(d) - 1, its coded symbols of files
    # 1..max(d), as they are: one signal per file count, shared by all senders
    units = tuple(unit_image(N, 1, f, 1, spec.m) for f in range(1, N + 1))
    signal = [SenderSignal(FieldMatrix(spec, j, N, units[:j])) for j in range(N + 1)]
    patterns = {d: dict.fromkeys(senders_of(d), signal[max(d)])
                for d in enumerate_patterns(ModelKind.K_USER_S_SENDERS, N, K, s)}
    return OrbitScheme(ModelKind.K_USER_S_SENDERS, N, K, s, L, spec, placement, patterns)


def _kuser_man(N: int, K: int, s: int) -> OrbitScheme:
    L = K
    u = lambda n, l: unit_image(N, L, n, l)
    placement = tuple(
        _cache(N, L, [u(n, j) for n in range(1, N + 1) for j in range(1, K + 1) if j != k])
        for k in range(1, K + 1)
    )
    idle = _idle_signals(placement)
    patterns = {}
    for d in enumerate_patterns(ModelKind.K_USER_S_SENDERS, N, K, s):
        # user k misses subfile k; the lead sender XORs every requester's missing subfile
        row = 0
        for k, f in enumerate(d, start=1):
            if f:
                row ^= u(f, k)
        lead, *rest = senders_of(d)
        per_sender = {lead: encoded_signal(placement[lead - 1], [row])}
        for k in rest:
            per_sender[k] = idle[k - 1]
        patterns[d] = per_sender
    return OrbitScheme(ModelKind.K_USER_S_SENDERS, N, K, s, L, GF2, placement, patterns)
