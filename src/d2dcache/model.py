"""Data model for linear caching/delivery schemes.

A scheme stores one placement matrix per user (rows are cached linear
combinations of the N*L global subfile symbols) and, for every demand
vector, one encoding matrix per sender mapping that sender's cache rows
to transmitted rows.  Demands are 1-based file ids with 0 marking an
idle (non-requesting) user.

The delivery models differ only in how many users of a demand may be
idle, and one rule says who sends: idle users send, and when nobody is
idle every user sends.

==============  ======  ==========  ===============  ====================
model           K       s           idle per demand  senders
==============  ======  ==========  ===============  ====================
2rr1s           3       None or 1   1                the idle user
traditional     any     None or 0   0                all users
kuser           any     1..K-2      s                the s idle users
request_random  3       any         0..3             idle users, or all
==============  ======  ==========  ===============  ====================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import ConfigurationError
from .field import FieldMatrix, FieldSpec

Demand = tuple[int, ...]


class ModelKind(str, Enum):
    TWO_RR_ONE_S = "2rr1s"
    TRADITIONAL_D2D = "traditional"
    K_USER_S_SENDERS = "kuser"
    REQUEST_RANDOM = "request_random"


# Per model: the K it requires (None: any), the values of s it accepts for a
# given K, and the idle-user counts a demand may have for given K and s.
_MODELS: dict[ModelKind, tuple[Optional[int], Callable, Callable]] = {
    ModelKind.TWO_RR_ONE_S: (3, lambda K, s: s in (None, 1), lambda K, s: (1,)),
    ModelKind.TRADITIONAL_D2D: (None, lambda K, s: s in (None, 0), lambda K, s: (0,)),
    ModelKind.K_USER_S_SENDERS: (
        None, lambda K, s: s is not None and 1 <= s <= K - 2, lambda K, s: (s,)),
    ModelKind.REQUEST_RANDOM: (3, lambda K, s: True, lambda K, s: range(K + 1)),
}


def idle_counts(model: ModelKind, N: int, K: int, s: Optional[int]) -> Sequence[int]:
    """Check the model parameters; return how many users a demand may leave idle."""
    required_K, s_ok, idle = _MODELS[model]
    if N < 1:
        raise ConfigurationError("N must be positive")
    if required_K is not None and K != required_K:
        raise ConfigurationError(f"{model.value} model requires K={required_K}, got K={K}")
    if not s_ok(K, s):
        raise ConfigurationError(f"{model.value} model does not accept s={s} for K={K}")
    return idle(K, s)


def requesters_of(d: Demand) -> tuple[int, ...]:
    """1-based indices of users with a file request."""
    return tuple(k + 1 for k, v in enumerate(d) if v != 0)


def senders_of(d: Demand) -> tuple[int, ...]:
    """1-based indices of the users that transmit for demand d.

    Idle users send; when nobody is idle, every user sends.
    """
    idle = tuple(k + 1 for k, v in enumerate(d) if v == 0)
    return idle or tuple(range(1, len(d) + 1))


def canonical_file_pattern(d: Demand) -> Demand:
    """Renumber files by first appearance; zeros are preserved.

    Two demands share a pattern iff a relabelling of the files maps one
    onto the other.
    """
    relabel: dict[int, int] = {}
    out = []
    for v in d:
        if v == 0:
            out.append(0)
        else:
            if v not in relabel:
                relabel[v] = len(relabel) + 1
            out.append(relabel[v])
    return tuple(out)


def enumerate_demands(model: ModelKind, N: int, K: int, s: Optional[int] = None) -> list[Demand]:
    """Deterministic lexicographic demand list for a model."""
    out = []
    for z in idle_counts(model, N, K, s):
        for idle in itertools.combinations(range(K), z):
            for files in itertools.product(range(1, N + 1), repeat=K - z):
                d = list(files)
                for i in idle:  # ascending, so each 0 lands at its final index
                    d.insert(i, 0)
                out.append(tuple(d))
    return sorted(out)


@dataclass(frozen=True)
class SenderSignal:
    """One sender's contribution for one demand.

    ``matrix`` holds encoding rows over the sender's cache rows.  A row
    may optionally be tagged with the requesters it was written for
    (``serves``).  ``raw_rows`` holds symbol-space rows that could not be
    expressed over the cache; they are counted and transmitted but mark
    the scheme as violating the cache-encodability constraint.
    """

    matrix: FieldMatrix
    serves: Optional[tuple[Optional[tuple[int, ...]], ...]] = None
    raw_rows: Optional[FieldMatrix] = None

    def __post_init__(self):
        if self.serves is not None and len(self.serves) != self.matrix.nrows:
            raise ConfigurationError("serves tags must align with encoding rows")

    @property
    def row_count(self) -> int:
        extra = self.raw_rows.nrows if self.raw_rows is not None else 0
        return self.matrix.nrows + extra

    @property
    def clean(self) -> bool:
        return self.raw_rows is None or self.raw_rows.nrows == 0


DeliveryRule = Mapping[Demand, Mapping[int, SenderSignal]]


def symbol_col(N: int, L: int, n: int, l: int) -> int:
    """Flattened symbol index of subfile l of file n (both 1-based)."""
    if not (1 <= n <= N and 1 <= l <= L):
        raise ConfigurationError(f"symbol ({n},{l}) outside [{N}]x[{L}]")
    return (n - 1) * L + (l - 1)


def unit_image(N: int, L: int, n: int, l: int, m: int = 1) -> int:
    """Binary image of the unit selector of subfile l of file n (an m-bit lane)."""
    return 1 << symbol_col(N, L, n, l) * m


@dataclass(frozen=True)
class LinearScheme:
    """A complete linear caching-and-delivery design."""

    model: ModelKind
    N: int
    K: int
    s: Optional[int]
    L: int
    field: FieldSpec
    placement: tuple[FieldMatrix, ...]
    delivery: dict[Demand, dict[int, SenderSignal]]

    def __post_init__(self):
        idle = idle_counts(self.model, self.N, self.K, self.s)
        if self.L < 1:
            raise ConfigurationError("L must be positive")
        if len(self.placement) != self.K:
            raise ConfigurationError("need one placement matrix per user")
        cols = self.symbol_count
        for k, P in enumerate(self.placement, start=1):
            if P.ncols != cols:
                raise ConfigurationError(f"user {k} placement has {P.ncols} columns, expected {cols}")
            if P.spec != self.field:
                raise ConfigurationError(f"user {k} placement uses a different field")
        for d, per_sender in self.delivery.items():
            if len(d) != self.K or d.count(0) not in idle:
                raise ConfigurationError(f"demand {d} has an invalid zero pattern")
            if any(not 0 <= v <= self.N for v in d):
                raise ConfigurationError(f"demand {d} requests a file outside 1..{self.N}")
            expected = set(senders_of(d))
            if set(per_sender) != expected:
                raise ConfigurationError(
                    f"demand {d}: senders {sorted(per_sender)} != expected {sorted(expected)}"
                )
            for k, sig in per_sender.items():
                if sig.matrix.ncols != self.placement[k - 1].nrows:
                    raise ConfigurationError(
                        f"demand {d} sender {k}: encoding width {sig.matrix.ncols} "
                        f"!= cache rows {self.placement[k - 1].nrows}"
                    )
                if sig.raw_rows is not None and sig.raw_rows.ncols != cols:
                    raise ConfigurationError(f"demand {d} sender {k}: raw row width mismatch")

    @property
    def symbol_count(self) -> int:
        return self.N * self.L

    def placement_rows(self, k: int) -> int:
        return self.placement[k - 1].nrows

    def placement_matrix(self, k: int) -> FieldMatrix:
        return self.placement[k - 1]

    def memory(self, k: int) -> Fraction:
        return Fraction(self.placement_rows(k), self.L)

    def delivery_row_counts(self, d: Demand) -> dict[int, int]:
        return {k: sig.row_count for k, sig in self.delivery[d].items()}

    def transmitted_rows(self, d: Demand) -> dict[int, FieldMatrix]:
        """Symbol-space rows each sender puts on the air for demand d."""
        out = {}
        for k, sig in self.delivery[d].items():
            rows = sig.matrix.matmul(self.placement[k - 1])
            if sig.raw_rows is not None:
                rows = rows.stack(sig.raw_rows)
            out[k] = rows
        return out

    def delivery_demands(self) -> Iterable[Demand]:
        return self.delivery.keys()

    @property
    def encoding_clean(self) -> bool:
        return all(sig.clean for per in self.delivery.values() for sig in per.values())


def _as_perm(perm: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    p = tuple(perm)
    if sorted(p) != list(range(1, n + 1)):
        raise ConfigurationError(f"{what} must be a permutation of 1..{n}")
    return p


def apply_demand_perm(d: Demand, user_perm: Sequence[int], file_perm: Sequence[int]) -> Demand:
    """Demand induced by relabeling users and files (0 stays 0)."""
    K = len(d)
    out = [0] * K
    for i in range(K):
        v = d[i]
        out[user_perm[i] - 1] = 0 if v == 0 else file_perm[v - 1]
    return tuple(out)


def permute_scheme(scheme: LinearScheme, user_perm: Sequence[int], file_perm: Sequence[int]) -> LinearScheme:
    """Relabel users and files; the design is otherwise unchanged."""
    up = _as_perm(user_perm, scheme.K, "user_perm")
    fp = _as_perm(file_perm, scheme.N, "file_perm")
    N, L = scheme.N, scheme.L
    col_map = [0] * (N * L)
    for n in range(1, N + 1):
        for l in range(1, L + 1):
            col_map[symbol_col(N, L, n, l)] = symbol_col(N, L, fp[n - 1], l)
    new_placement: list[Optional[FieldMatrix]] = [None] * scheme.K
    for k in range(1, scheme.K + 1):
        new_placement[up[k - 1] - 1] = scheme.placement[k - 1].map_columns(col_map, N * L)
    new_delivery: dict[Demand, dict[int, SenderSignal]] = {}
    for d, per_sender in scheme.delivery.items():
        nd = apply_demand_perm(d, up, fp)
        new_per = {}
        for k, sig in per_sender.items():
            serves = None
            if sig.serves is not None:
                serves = tuple(
                    None if tags is None else tuple(sorted(up[u - 1] for u in tags))
                    for tags in sig.serves
                )
            raw = sig.raw_rows.map_columns(col_map, N * L) if sig.raw_rows is not None else None
            new_per[up[k - 1]] = SenderSignal(sig.matrix, serves, raw)
        new_delivery[nd] = new_per
    return LinearScheme(
        scheme.model, N, scheme.K, scheme.s, L, scheme.field,
        tuple(new_placement), new_delivery,
    )
