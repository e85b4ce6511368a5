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

A file permutation pi relabels symbol (n, l) as (pi(n), l).  Demands with
the same first-appearance file pattern (`canonical_file_pattern`) form one
orbit under such relabellings; the pattern is the orbit's first demand in
enumeration order, and its file i is file order[i] of d, where
`file_order(d, N)` lists d's files by first appearance, then the files d
does not request, ascending.  Two scheme forms share one accessor surface:

- `LinearScheme` stores a delivery for every demand;
- `OrbitScheme` stores one delivery per pattern.  Its placement passes the
  file-invariance test (`file_symmetric`), so every cache span is fixed by
  every pi, and d's delivery is by definition the pattern's transmitted
  rows moved onto d by its file order (`move_files`).  Each pattern's rows
  are fixed by every permutation of the files it does not request, so any
  other pi onto d moves them the same way.  `signals(d)` is the one
  expansion: moved products are expressed over each sender's cache, moved
  raw rows stay raw, and equal encodings share one signal; `delivery` maps
  it over every demand when first read.

What a sender puts on the air is always `SenderSignal.sent`: its encoding
rows times its cache, then its raw rows.

Every transform but `permute_scheme`, which relabels only the demands a
scheme delivers, builds its output with `derived_scheme`.

Every demand is listed and reported, so before anything is enumerated the
demand count is capped at `DEMAND_BUDGET`, and the entries of all demands
together, K per demand, at 10 * `DEMAND_BUDGET`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import ConfigurationError, EncodingError, ResourceBudgetError
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
    if K < 1:
        raise ConfigurationError("K must be positive")
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


# Largest demand count a model instance may have.  Every demand gets its own
# report entry, so this and the cap of 10 * DEMAND_BUDGET entries over all
# demands (K per demand) bound the work and memory of `verify`.
DEMAND_BUDGET = 10 ** 6


def demand_count(model: ModelKind, N: int, K: int, s: Optional[int] = None) -> int:
    """Check the model parameters; the number of demands, sum over z of C(K, z) * N^(K-z).

    Raises ResourceBudgetError when it exceeds DEMAND_BUDGET, or when the
    demands hold more than 10 * DEMAND_BUDGET entries in all.
    """
    limit = math.log(DEMAND_BUDGET) + 1
    total = 0
    for z in idle_counts(model, N, K, s):
        # a term far over the budget is recognised from its logarithm, not computed
        log_term = (math.lgamma(K + 1) - math.lgamma(z + 1) - math.lgamma(K - z + 1)
                    + (K - z) * math.log(N))
        total += math.comb(K, z) * N ** (K - z) if log_term <= limit else DEMAND_BUDGET + 1
        if total > DEMAND_BUDGET:
            raise ResourceBudgetError(
                f"{model.value} model with N={N}, K={K}, s={s} has more than "
                f"{DEMAND_BUDGET} demands")
    if total * K > 10 * DEMAND_BUDGET:
        raise ResourceBudgetError(
            f"{model.value} model with N={N}, K={K}, s={s} has {total} demands of {K} "
            f"entries, more than {10 * DEMAND_BUDGET} entries")
    return total


def _with_idle(files: Sequence[int], idle: Sequence[int]) -> Demand:
    d = list(files)
    for i in idle:  # ascending, so each 0 lands at its final index
        d.insert(i, 0)
    return tuple(d)


def enumerate_demands(model: ModelKind, N: int, K: int, s: Optional[int] = None) -> list[Demand]:
    """Deterministic lexicographic demand list for a model."""
    demand_count(model, N, K, s)
    out = []
    for z in idle_counts(model, N, K, s):
        for idle in itertools.combinations(range(K), z):
            for files in itertools.product(range(1, N + 1), repeat=K - z):
                out.append(_with_idle(files, idle))
    return sorted(out)


def enumerate_patterns(model: ModelKind, N: int, K: int, s: Optional[int] = None) -> list[Demand]:
    """The canonical file pattern of every demand, in lexicographic order.

    A pattern numbers files by first appearance, so its requests form a
    string in which each entry is at most one more than the largest before it.
    """
    demand_count(model, N, K, s)
    out = []
    for z in idle_counts(model, N, K, s):
        strings: list[tuple[int, ...]] = [()]
        for _ in range(K - z):
            strings = [t + (v,) for t in strings
                       for v in range(1, min(max(t, default=0) + 1, N) + 1)]
        for idle in itertools.combinations(range(K), z):
            out.extend(_with_idle(files, idle) for files in strings)
    return sorted(out)


def file_order(d: Demand, N: int) -> list[int]:
    """d's files by first appearance, then the files d does not request, ascending (0-based).

    File i of d's pattern is file order[i] of d; the inverse maps d onto its pattern.
    """
    first = dict.fromkeys([v - 1 for v in d if v])
    return [*first, *[n for n in range(N) if n not in first]]


def move_files(image: int, perm: Sequence[int], block: int) -> int:
    """A binary image with the block of file n moved to block perm[n] (0-based)."""
    lane = (1 << block) - 1
    out = 0
    while image:  # one step per file the image touches
        n = ((image & -image).bit_length() - 1) // block
        out |= (image >> n * block & lane) << perm[n] * block
        image &= ~(lane << n * block)
    return out


def _generators(r: int, N: int) -> list[tuple[int, ...]]:
    """0-based file permutations that generate every permutation of files r..N-1.

    They are the transposition of the first two of those files and their
    cycle; files below r stay fixed.  Empty when fewer than two files move.
    """
    if N - r < 2:
        return []
    fixed = tuple(range(r))
    return list(dict.fromkeys([(*fixed, r + 1, r, *range(r + 2, N)),
                               (*fixed, *range(r + 1, N), r)]))


def file_symmetric(placement: Sequence[FieldMatrix], N: int, L: int) -> bool:
    """True when every user's cache row space is invariant under every file permutation.

    The transposition (1 2) and the N-cycle generate S_N, so it suffices
    that each of them maps every cache row back into its user's span, read
    from the placement's cached echelon.
    """
    block = L * placement[0].spec.m
    generators = _generators(0, N)
    return all(
        P._echelon.contains(move_files(image, perm, block))
        for P in placement
        for perm in generators
        for image in P.images
    )


@dataclass(frozen=True)
class SenderSignal:
    """One sender's contribution for one demand.

    ``matrix`` holds encoding rows over the sender's cache rows.
    ``raw_rows`` holds symbol-space rows that could not be expressed over
    the cache; they are counted and transmitted but mark the scheme as
    violating the cache-encodability constraint.  Nothing records which
    requester a row was written for: transforms work that out from the
    rows themselves, so a loaded scheme carries everything they read.
    """

    matrix: FieldMatrix
    raw_rows: Optional[FieldMatrix] = None

    @property
    def row_count(self) -> int:
        extra = self.raw_rows.nrows if self.raw_rows is not None else 0
        return self.matrix.nrows + extra

    @property
    def clean(self) -> bool:
        return self.raw_rows is None or self.raw_rows.nrows == 0

    @property
    def raw_images(self) -> tuple[int, ...]:
        return () if self.raw_rows is None else self.raw_rows.images

    def sent(self, P: FieldMatrix) -> tuple[int, ...]:
        """The images a sender with cache P puts on the air: its products, then its raw rows."""
        return self.matrix.matmul(P).images + self.raw_images


def symbol_col(N: int, L: int, n: int, l: int) -> int:
    """Flattened symbol index of subfile l of file n (both 1-based)."""
    if not (1 <= n <= N and 1 <= l <= L):
        raise ConfigurationError(f"symbol ({n},{l}) outside [{N}]x[{L}]")
    return (n - 1) * L + (l - 1)


def unit_image(N: int, L: int, n: int, l: int, m: int = 1) -> int:
    """Binary image of the unit selector of subfile l of file n (an m-bit lane)."""
    return 1 << symbol_col(N, L, n, l) * m


def encoded_signal(P: FieldMatrix, images: Sequence[int]) -> SenderSignal:
    """Encoding rows that put the symbol-space images on the air from cache P.

    Each image is expressed with the echelon cached on P, whose coefficient
    mask is the encoding row's image.
    """
    echelon = P._echelon
    coeffs = []
    for image in images:
        c = echelon.express(image)
        if c is None:
            raise EncodingError("delivery row is outside the sender's cache row space")
        coeffs.append(c)
    mat = FieldMatrix(P.spec, len(coeffs), P.nrows, tuple(coeffs))
    return SenderSignal(mat)


@dataclass(frozen=True)
class _Placement:
    """The fields, placement checks and accessors shared by both scheme forms."""

    model: ModelKind
    N: int
    K: int
    s: Optional[int]
    L: int
    field: FieldSpec
    placement: tuple[FieldMatrix, ...]

    def _check_placement(self) -> Sequence[int]:
        """Check the parameters and placement; return the allowed idle counts."""
        idle = idle_counts(self.model, self.N, self.K, self.s)
        if self.L < 1:
            raise ConfigurationError("L must be positive")
        if len(self.placement) != self.K:
            raise ConfigurationError("need one placement matrix per user")
        cols = self.symbol_count
        for k, P in enumerate(self.placement, start=1):
            if P.ncols != cols:
                raise ConfigurationError(
                    f"user {k} placement has {P.ncols} columns, expected {cols}")
            if P.spec != self.field:
                raise ConfigurationError(f"user {k} placement uses a different field")
        return idle

    def _check_signals(self, d: Demand, per_sender: Mapping[int, SenderSignal]) -> None:
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
            if sig.raw_rows is not None and sig.raw_rows.ncols != self.symbol_count:
                raise ConfigurationError(f"demand {d} sender {k}: raw row width mismatch")

    @property
    def symbol_count(self) -> int:
        return self.N * self.L

    def placement_rows(self, k: int) -> int:
        return self.placement[k - 1].nrows


@dataclass(frozen=True)
class LinearScheme(_Placement):
    """A complete linear caching-and-delivery design with a delivery per demand."""

    delivery: dict[Demand, dict[int, SenderSignal]]

    def __post_init__(self):
        idle = self._check_placement()
        for d, per_sender in self.delivery.items():
            if len(d) != self.K or d.count(0) not in idle:
                raise ConfigurationError(f"demand {d} has an invalid zero pattern")
            if any(not 0 <= v <= self.N for v in d):
                raise ConfigurationError(f"demand {d} requests a file outside 1..{self.N}")
            self._check_signals(d, per_sender)

    def signals(self, d: Demand) -> dict[int, SenderSignal]:
        return self.delivery[d]

    def delivery_row_counts(self, d: Demand) -> dict[int, int]:
        return {k: sig.row_count for k, sig in self.delivery[d].items()}

    def transmitted_rows(self, d: Demand) -> dict[int, FieldMatrix]:
        """Symbol-space rows each sender puts on the air for demand d."""
        cols = self.symbol_count
        out = {}
        for k, sig in self.delivery[d].items():
            images = sig.sent(self.placement[k - 1])
            out[k] = FieldMatrix(self.field, len(images), cols, images)
        return out

    def delivery_demands(self) -> Iterable[Demand]:
        return self.delivery.keys()

    @property
    def encoding_clean(self) -> bool:
        return all(sig.clean for per in self.delivery.values() for sig in per.values())


@dataclass(frozen=True)
class OrbitScheme(_Placement):
    """A design whose delivery is stored once per file pattern.

    ``patterns`` maps each canonical file pattern of the model's demands
    to its senders' signals; the pattern is its own orbit's representative.
    The delivery of d is the pattern's transmitted rows, raw rows included,
    moved onto d by `file_order`.  The constructor checks that the placement
    is file-symmetric, so each cache span is fixed by pi: moved products lie
    in the sender's span, and moved raw rows are kept as raw rows.  It also
    checks the stabilizer contract: every permutation of the files a
    pattern does not request fixes each of its transmitted images, raw rows
    included.  So every pi with d = pi(pattern) moves the pattern's rows
    onto the same rows, and delivery(pi(d)) = pi(delivery(d)) for every
    file permutation pi and demand d, not only for `file_order`'s choice.
    """

    patterns: dict[Demand, dict[int, SenderSignal]]

    def __post_init__(self):
        self._check_placement()
        if set(self.patterns) != set(enumerate_patterns(self.model, self.N, self.K, self.s)):
            raise ConfigurationError("patterns must be exactly the canonical file patterns "
                                     "of the model's demands")
        for d, per_sender in self.patterns.items():
            self._check_signals(d, per_sender)
        if not file_symmetric(self.placement, self.N, self.L):
            raise ConfigurationError("placement is not invariant under file relabelling")
        block = self.L * self.field.m
        for d, sent in self._pattern_images.items():
            if any(move_files(image, perm, block) != image
                   for perm in _generators(max(d), self.N)
                   for images in sent.values() for image in images):
                raise ConfigurationError(
                    f"pattern {d} sends rows that move with files it does not request")

    def _pattern(self, d: Demand) -> Demand:
        """d's pattern; KeyError when d is not a demand of the model."""
        pattern = canonical_file_pattern(d)
        if (len(d) != self.K or not all(0 <= v <= self.N for v in d)
                or pattern not in self.patterns):
            raise KeyError(d)
        return pattern

    @functools.cached_property
    def _pattern_images(self) -> dict[Demand, dict[int, tuple[int, ...]]]:
        """Each pattern's transmitted images per sender."""
        return {d: {k: sig.sent(self.placement[k - 1]) for k, sig in per_sender.items()}
                for d, per_sender in self.patterns.items()}

    def _moved_images(self, pattern: Demand, d: Demand) -> dict[int, tuple[int, ...]]:
        """Per sender, the pattern's transmitted images moved onto d, a demand of its orbit."""
        order = file_order(d, self.N)
        block = self.L * self.field.m
        return {k: tuple([move_files(image, order, block) for image in images])
                for k, images in self._pattern_images[pattern].items()}

    def delivery_row_counts(self, d: Demand) -> dict[int, int]:
        return {k: sig.row_count for k, sig in self.patterns[self._pattern(d)].items()}

    def transmitted_rows(self, d: Demand) -> dict[int, FieldMatrix]:
        """The pattern's transmitted rows, each moved onto d by `file_order`."""
        cols = self.symbol_count
        return {k: FieldMatrix(self.field, len(images), cols, images)
                for k, images in self._moved_images(self._pattern(d), d).items()}

    def signals(self, d: Demand) -> dict[int, SenderSignal]:
        """Demand d's signal per sender."""
        return self._signals(self._pattern(d), d)

    @functools.cached_property
    def _caches(self) -> tuple[dict, dict]:
        """`_signals`' memos: signals by (sender, moved images), and by encoding."""
        return {}, {(sig.matrix.ncols, sig.matrix.images, sig.raw_images): sig
                    for per_sender in self.patterns.values() for sig in per_sender.values()}

    def _signals(self, pattern: Demand, d: Demand) -> dict[int, SenderSignal]:
        """d's signal per sender: its pattern's, or its moved rows expressed.

        A sender with no rows keeps the pattern's signal.  The first
        `matrix.nrows` moved images are the moved products, which stay in the
        cache span because every file relabelling fixes it, and are expressed
        over it; the rest are the moved raw rows and stay raw.  Each distinct
        (sender, moved images) is expressed once per scheme, and equal
        encodings share one signal, a pattern's where one has it.
        """
        stored = self.patterns[pattern]
        if d == pattern:
            return stored
        expressed, interned = self._caches
        out = {}
        for k, images in self._moved_images(pattern, d).items():
            sig = expressed.get((k, images)) if images else stored[k]
            if sig is None:
                n = stored[k].matrix.nrows
                matrix = encoded_signal(self.placement[k - 1], images[:n]).matrix
                raw = images[n:]
                new = SenderSignal(matrix, FieldMatrix(self.field, len(raw), self.symbol_count,
                                                       raw) if raw else None)
                key = (matrix.ncols, matrix.images, raw)
                sig = expressed[k, images] = interned.setdefault(key, new)
            out[k] = sig
        return out

    @functools.cached_property
    def delivery(self) -> Mapping[Demand, dict[int, SenderSignal]]:
        """Every demand's signals, read-only, built once on first access."""
        return MappingProxyType({d: self._signals(canonical_file_pattern(d), d)
                                 for d in enumerate_demands(self.model, self.N, self.K, self.s)})

    def delivery_demands(self) -> Iterable[Demand]:
        return enumerate_demands(self.model, self.N, self.K, self.s)

    @property
    def encoding_clean(self) -> bool:
        # moved raw rows stay raw, so the patterns decide
        return all(sig.clean for per in self.patterns.values() for sig in per.values())


Scheme = Union[LinearScheme, OrbitScheme]


def derived_scheme(bases: Iterable[Scheme], model: ModelKind, N: int, K: int, s: Optional[int],
                   L: int, field: FieldSpec, placement: Sequence[FieldMatrix],
                   signals: Callable[[Demand], dict[int, SenderSignal]]) -> Scheme:
    """A transform's output, with `signals(d)` as demand d's delivery.

    An OrbitScheme of the file patterns when every base is one; its
    constructor checks that the rule moves with file relabelling.
    Otherwise a LinearScheme of every demand.
    """
    orbit = all(isinstance(base, OrbitScheme) for base in bases)
    demands = (enumerate_patterns if orbit else enumerate_demands)(model, N, K, s)
    return (OrbitScheme if orbit else LinearScheme)(
        model, N, K, s, L, field, tuple(placement), {d: signals(d) for d in demands})


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


def permute_scheme(scheme: Scheme, user_perm: Sequence[int], file_perm: Sequence[int]) -> LinearScheme:
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
            raw = sig.raw_rows.map_columns(col_map, N * L) if sig.raw_rows is not None else None
            new_per[up[k - 1]] = SenderSignal(sig.matrix, raw)
        new_delivery[nd] = new_per
    return LinearScheme(
        scheme.model, N, scheme.K, scheme.s, L, scheme.field,
        tuple(new_placement), new_delivery,
    )
