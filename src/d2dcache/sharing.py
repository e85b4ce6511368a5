"""Space-sharing composition: memory sharing and full symmetrization.

Both transformations lay copies of base schemes on disjoint subfile-slot
blocks of every file.  Memory sharing builds the composite scheme, and a
composite of OrbitSchemes is built once per file pattern.
Symmetrization over all joint user/file permutations returns a scheme
whose rate accounting is lazy, computed exactly from orbit sums, since
the explicit matrices grow with N!.K!; its matrices come from
`to_explicit`, built once on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigurationError, ResourceBudgetError
from .field import FieldMatrix, FieldSpec
from .model import (
    Demand,
    LinearScheme,
    OrbitScheme,
    Scheme,
    SenderSignal,
    apply_demand_perm,
    canonical_file_pattern,
    enumerate_demands,
    enumerate_patterns,
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
    is built.  When every block is an
    OrbitScheme, so is the composite: each block keeps its file-symmetric
    spans and the stabilizer contract on its own slots, so only the file
    patterns are built, each with the same block-diagonal signal an
    explicit composite gives that demand.  Otherwise every demand is built.
    """
    if any(count < 0 for _, count in parts):
        raise ConfigurationError("block count must be nonnegative")
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
                 (sch.placement_matrix(k).map_columns(cmap, N * L_total)
                  for sch, cmap in zip(instances, col_maps)))
        for k in range(1, K + 1)
    ]

    orbit = all(isinstance(sch, OrbitScheme) for sch in instances)
    demands = (enumerate_patterns if orbit else enumerate_demands)(first.model, N, K, first.s)
    delivery: dict[Demand, dict[int, SenderSignal]] = {}
    for d in demands:
        per_sender: dict[int, SenderSignal] = {}
        for k in senders_of(d):
            blocks = [(sch.patterns if orbit else sch.delivery)[d][k] for sch in instances]
            widths = [sch.placement_rows(k) for sch in instances]
            total_w = sum(widths)
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
                FieldMatrix(first.field, len(images), total_w, tuple(images)),
                raw if raw.nrows else None,
            )
        delivery[d] = per_sender

    form = OrbitScheme if orbit else LinearScheme
    return form(first.model, N, K, first.s, L_total, first.field, tuple(placement), delivery)


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


class SymmetrizedScheme:
    """Space-sharing of every jointly permuted copy of a base scheme.

    Presents the same accessor surface as LinearScheme.  Row counts and
    memory come lazily from exact orbit sums over the full permutation
    group.  Matrices come from `to_explicit`, built once on the first
    placement or delivery read (practical only at small N; like every
    composite, refused over DEFAULT_SYMMETRIZE_BUDGET slots per file even
    when `budget` allows the accounting).
    """

    def __init__(self, base: Scheme, budget: int = DEFAULT_SYMMETRIZE_BUDGET):
        group_order = math.factorial(base.N) * math.factorial(base.K)
        L_total = group_order * base.L
        if L_total > budget:
            raise ResourceBudgetError(
                f"symmetrization needs {L_total} subfile slots per file, over the budget of {budget}"
            )
        self.base = base
        self.model = base.model
        self.N = base.N
        self.K = base.K
        self.s = base.s
        self.L = L_total
        self.field = base.field
        self.group = [
            (up, fp)
            for up in itertools.permutations(range(1, base.K + 1))
            for fp in itertools.permutations(range(1, base.N + 1))
        ]
        self._demands = enumerate_demands(base.model, base.N, base.K, base.s)
        self._base_sender_rows = {d: base.delivery_row_counts(d) for d in base.delivery_demands()}
        self._user_perms = list(itertools.permutations(range(1, base.K + 1)))
        self._orbit_cache: dict[tuple[Demand, int], int] = {}

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

    def _relabel_sum(self, pattern: Demand, sender: int) -> int:
        """Sum of base sender-row counts over all file relabelings of pattern.

        The pattern requests files 1..r, so each relabelling is fixed by the
        images of those r files and is counted (N-r)! times.
        """
        key = (pattern, sender)
        cached = self._orbit_cache.get(key)
        if cached is None:
            users = tuple(range(1, self.K + 1))
            r = max(pattern)
            total = sum(self._base_sender_rows[apply_demand_perm(pattern, users, image)][sender]
                        for image in itertools.permutations(range(1, self.N + 1), r))
            cached = self._orbit_cache[key] = total * math.factorial(self.N - r)
        return cached

    def delivery_row_counts(self, d: Demand) -> dict[int, int]:
        identity_fp = tuple(range(1, self.N + 1))
        counts = {k: 0 for k in senders_of(d)}
        for v in self._user_perms:
            moved = apply_demand_perm(d, v, identity_fp)
            pattern = canonical_file_pattern(moved)
            for j in counts:
                counts[j] += self._relabel_sum(pattern, v[j - 1])
        return counts

    # -- matrices -----------------------------------------------------------

    @functools.cached_property
    def _explicit(self) -> LinearScheme:
        return self.to_explicit()

    def placement_matrix(self, k: int) -> FieldMatrix:
        return self._explicit.placement_matrix(k)

    def transmitted_rows(self, d: Demand) -> dict[int, FieldMatrix]:
        return self._explicit.transmitted_rows(d)

    def to_explicit(self) -> LinearScheme:
        """Materialize the block-diagonal composite (small N only)."""
        copies = [(permute_scheme(self.base, up, fp), 1) for up, fp in self.group]
        return concatenate_blocks(copies)


def symmetrize(scheme: Scheme, budget: int = DEFAULT_SYMMETRIZE_BUDGET) -> SymmetrizedScheme:
    """All-permutation space sharing; never increases the worst-case rate."""
    return SymmetrizedScheme(scheme, budget=budget)
