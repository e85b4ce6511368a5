"""Space-sharing composition: memory sharing and full symmetrization.

Both transformations lay copies of base schemes on disjoint subfile-slot
blocks of every file.  Memory sharing builds the composite scheme through
`model.derived_scheme`, so a composite of OrbitSchemes, raw rows and all,
is built once per file pattern.
Symmetrization over all joint user/file permutations returns a scheme
whose rate accounting is one pass over the base, summed per joint
(demand, sender) orbit type, since the explicit matrices grow with N!.K!;
only `to_explicit` enumerates the permutations, once, on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigurationError, ResourceBudgetError
from .field import FieldMatrix, FieldSpec
from .model import (
    Demand,
    LinearScheme,
    Scheme,
    SenderSignal,
    derived_scheme,
    enumerate_demands,
    permute_scheme,
    senders_of,
    symbol_col,
)

DEFAULT_SYMMETRIZE_BUDGET = 10 ** 6


def _block_col_map(N: int, L_part: int, L_total: int, offset: int) -> list[int]:
    """Map part-local symbol (n, l) onto slot offset+l of the composite."""
    out = [0] * (N * L_part)
    for n in range(1, N + 1):
        for l in range(1, L_part + 1):
            out[symbol_col(N, L_part, n, l)] = symbol_col(N, L_total, n, offset + l)
    return out


def _stacked(spec: FieldSpec, ncols: int, blocks: Iterable[FieldMatrix]) -> FieldMatrix:
    """One matrix holding the rows of every block, in order."""
    images = tuple(image for block in blocks for image in block.images)
    return FieldMatrix(spec, len(images), ncols, images)


def concatenate_blocks(parts: Sequence[tuple[Scheme, int]]) -> Scheme:
    """Run each scheme on its own block of subfile slots, `count` times over.

    The composite has sum(count * L) slots per file; over
    DEFAULT_SYMMETRIZE_BUDGET it raises ResourceBudgetError before anything
    is built.  Each block is read through `signals(d)`.  When every block
    is an OrbitScheme, so is the composite (`derived_scheme`): each block
    keeps its file-symmetric spans and the stabilizer contract on its own
    slots, raw rows included, so each pattern gets the block-diagonal
    signal an explicit composite gives that demand.
    """
    if any(count < 0 for _, count in parts):
        raise ConfigurationError("block count must be nonnegative")
    parts = [(scheme, count) for scheme, count in parts if count]
    L_total = sum(scheme.L * count for scheme, count in parts)
    if L_total > DEFAULT_SYMMETRIZE_BUDGET:
        raise ResourceBudgetError(f"the composite needs {L_total} subfile slots per file, "
                                  f"over the budget of {DEFAULT_SYMMETRIZE_BUDGET}")
    instances = [scheme for scheme, count in parts for _ in range(count)]
    if not instances:
        raise ConfigurationError("nothing to concatenate")
    first = instances[0]
    for sch in instances[1:]:
        if (sch.model, sch.N, sch.K, sch.s, sch.field) != (
            first.model, first.N, first.K, first.s, first.field,
        ):
            raise ConfigurationError("block schemes must share model, N, K, s and field")
    N, K = first.N, first.K
    offsets = []
    acc = 0
    for sch in instances:
        offsets.append(acc)
        acc += sch.L

    col_maps = [_block_col_map(N, sch.L, L_total, off) for sch, off in zip(instances, offsets)]

    placement = [
        _stacked(first.field, N * L_total,
                 (sch.placement[k - 1].map_columns(cmap, N * L_total)
                  for sch, cmap in zip(instances, col_maps)))
        for k in range(1, K + 1)
    ]

    def signals(d: Demand) -> dict[int, SenderSignal]:
        # each scheme's signals once, whatever its count
        try:
            per_part = [sch.signals(d) for sch, _ in parts]
        except KeyError:
            raise ConfigurationError(f"a block scheme has no delivery for demand {d}") from None
        blocks_of = [per for per, (_, count) in zip(per_part, parts) for _ in range(count)]
        per_sender: dict[int, SenderSignal] = {}
        for k in senders_of(d):
            blocks = [per[k] for per in blocks_of]
            widths = [sch.placement_rows(k) for sch in instances]
            images: list[int] = []
            raw_blocks: list[FieldMatrix] = []
            col_off = 0
            for sig, w, cmap in zip(blocks, widths, col_maps):
                images.extend(image << col_off * first.field.m for image in sig.matrix.images)
                if sig.raw_rows is not None:
                    raw_blocks.append(sig.raw_rows.map_columns(cmap, N * L_total))
                col_off += w
            raw = _stacked(first.field, N * L_total, raw_blocks)
            per_sender[k] = SenderSignal(
                FieldMatrix(first.field, len(images), sum(widths), tuple(images)),
                raw if raw.nrows else None,
            )
        return per_sender

    return derived_scheme(instances, first.model, N, K, first.s, L_total, first.field,
                          placement, signals)


def memory_share(a: Scheme, b: Scheme, alpha: Fraction) -> Scheme:
    """Run scheme a on the first alpha of every file and b on the rest.

    With alpha = p/q in lowest terms the composite splits each file into
    q*L_a*L_b slots; memory and every per-demand rate interpolate exactly.
    A float alpha is taken exactly (0.4 has q = 2^53), so it usually
    exceeds the slot budget of `concatenate_blocks`.
    """
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ConfigurationError("alpha must lie in [0, 1]")
    if (a.model, a.N, a.K, a.s, a.field) != (b.model, b.N, b.K, b.s, b.field):
        raise ConfigurationError("memory sharing requires matching model, N, K, s and field")
    p, q = alpha.numerator, alpha.denominator
    parts = []
    if p:
        parts.append((a, p * b.L))
    if q - p:
        parts.append((b, (q - p) * a.L))
    return concatenate_blocks(parts)


def _joint_type(d: Demand, j: int) -> tuple[tuple[int, ...], int]:
    """The orbit of (demand d, sender j) under joint user and file relabelling.

    It is fixed by the sorted request counts of d's files and by how many
    users request j's file (0 when j is idle).
    """
    counts = Counter(v for v in d if v)
    return tuple(sorted(counts.values())), counts[d[j - 1]]


class SymmetrizedScheme:
    """Space-sharing of every jointly permuted copy of a base scheme.

    Presents the same accessor surface as LinearScheme.  Copy g sends, for
    sender j at demand d, the base's rows at g^-1(d, j); so over the group
    G, j's count is |G| / |orbit| times the base's counts summed over the
    joint orbit of (d, j), which the constructor sums per `_joint_type` in
    one pass over the base.  All else reads `to_explicit`, the only
    enumeration of G, built once on first use (practical only at small N).
    """

    def __init__(self, base: Scheme):
        group_order = math.factorial(base.N) * math.factorial(base.K)
        L_total = group_order * base.L
        if L_total > DEFAULT_SYMMETRIZE_BUDGET:
            raise ResourceBudgetError(f"symmetrization needs {L_total} subfile slots per file, "
                                      f"over the budget of {DEFAULT_SYMMETRIZE_BUDGET}")
        self.base = base
        self.model = base.model
        self.N = base.N
        self.K = base.K
        self.s = base.s
        self.L = L_total
        self.field = base.field
        self._demands = enumerate_demands(base.model, base.N, base.K, base.s)
        type_rows = defaultdict(list)
        for e in self._demands:
            try:
                counts = base.delivery_row_counts(e)
            except KeyError:
                raise ConfigurationError(f"the base has no delivery for demand {e}") from None
            for i, rows in counts.items():
                type_rows[_joint_type(e, i)].append(rows)
        # each list holds one count per orbit member; its length divides |G|
        self._type_rows = {t: group_order // len(rows) * sum(rows)
                           for t, rows in type_rows.items()}

    # -- accounting ---------------------------------------------------------

    @property
    def symbol_count(self) -> int:
        return self.N * self.L

    @property
    def encoding_clean(self) -> bool:
        return self.base.encoding_clean

    def delivery_demands(self):
        return self._demands

    def placement_rows(self, k: int) -> int:
        total = sum(self.base.placement_rows(j) for j in range(1, self.K + 1))
        return math.factorial(self.N) * math.factorial(self.K - 1) * total

    def delivery_row_counts(self, d: Demand) -> dict[int, int]:
        return {j: self._type_rows[_joint_type(d, j)] for j in senders_of(d)}

    # -- matrices -----------------------------------------------------------

    @functools.cached_property
    def _explicit(self) -> LinearScheme:
        return self.to_explicit()

    @property
    def placement(self) -> tuple[FieldMatrix, ...]:
        return self._explicit.placement

    @property
    def delivery(self) -> dict[Demand, dict[int, SenderSignal]]:
        return self._explicit.delivery

    def signals(self, d: Demand) -> dict[int, SenderSignal]:
        return self._explicit.signals(d)

    def transmitted_rows(self, d: Demand) -> dict[int, FieldMatrix]:
        return self._explicit.transmitted_rows(d)

    def to_explicit(self) -> LinearScheme:
        """Materialize the block-diagonal composite (small N only)."""
        copies = [(permute_scheme(self.base, up, fp), 1)
                  for up in itertools.permutations(range(1, self.K + 1))
                  for fp in itertools.permutations(range(1, self.N + 1))]
        return concatenate_blocks(copies)


def symmetrize(scheme: Scheme) -> SymmetrizedScheme:
    """All-permutation space sharing; never increases the worst-case rate."""
    return SymmetrizedScheme(scheme)
