"""Scheme transformations between delivery models.

- rotate_2rr1s: turn a two-requester/one-sender scheme into a scheme for
  the traditional model by halving every subfile and letting each user
  run the base rule for the demand in which it is the sender.  An
  OrbitScheme base rotates to an OrbitScheme, raw rows and all.
- adapt_request_random: reuse a two-requester base when 0..3 users
  request, with a fake requester and signal pruning when only one user
  requests.

Each is one `signals(d)` rule for `model.derived_scheme`, and reads its
inputs one demand at a time, so no OrbitScheme's delivery is expanded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .errors import ConfigurationError
from .field import FieldMatrix
from .model import (
    Demand,
    ModelKind,
    Scheme,
    SenderSignal,
    derived_scheme,
    enumerate_demands,
    requesters_of,
    senders_of,
    symbol_col,
)
from .verify import verify, _failing

Probability = Union[Fraction, float]


# ---------------------------------------------------------------------------
# Rotation to the traditional three-user model
# ---------------------------------------------------------------------------

def _part_maps(N: int, L: int) -> tuple[list[int], list[int]]:
    """Column maps from (n, l) onto part-a / part-b slots of a 2L split."""
    amap = [0] * (N * L)
    bmap = [0] * (N * L)
    for n in range(1, N + 1):
        for l in range(1, L + 1):
            src = symbol_col(N, L, n, l)
            amap[src] = symbol_col(N, 2 * L, n, 2 * l - 1)
            bmap[src] = symbol_col(N, 2 * L, n, 2 * l)
    return amap, bmap


def _coeff_maps(n: int) -> tuple[list[int], list[int]]:
    """Column maps from base cache row j onto r_j^a / r_j^b of [r1^a, r1^b, r2^a, ...]."""
    return [2 * j for j in range(n)], [2 * j + 1 for j in range(n)]


def _interleaved(mat: FieldMatrix, maps: tuple[list[int], list[int]], ncols: int) -> FieldMatrix:
    """Each row of mat mapped onto part a, followed by the same row mapped onto part b."""
    a, b = (mat.map_columns(cmap, ncols).images for cmap in maps)
    images = tuple(image for pair in zip(a, b) for image in pair)
    return FieldMatrix(mat.spec, len(images), ncols, images)


def _require_clean_base(base: Scheme) -> None:
    if base.model is not ModelKind.TWO_RR_ONE_S:
        raise ConfigurationError("rotation expects a two-requester/one-sender base")
    report = verify(base)
    if not report.passed:
        raise ConfigurationError("rotation rejects a base that does not verify cleanly")


def rotate_2rr1s(base: Scheme) -> Scheme:
    """Traditional-model scheme at double subpacketization and 3/2 the rate.

    The base must be a two-requester/one-sender scheme that verifies
    cleanly; anything else raises ConfigurationError before any row is
    built.  Every cache row is kept on both halves of each subfile.  For
    demand (d1, d2, d3): user 1 replays its base rule on part a, user 3
    on part b, and user 2 serves user 1 on part a of file d1 and user 3
    on part b of the rest.  The part of each user-2 row is worked out
    from the rows themselves (see `_rotated_signal`), so a loaded base
    rotates exactly like the builtin it was exported from.  Mixed rows that
    cannot be recomposed from the sender's cache are kept as raw
    transmissions and flag the report instead of silently vanishing.

    An OrbitScheme base rotates to an OrbitScheme (`derived_scheme`): every
    step above moves with a file relabelling, raw rows included, so only
    the traditional-model file patterns are built.
    """
    _require_clean_base(base)
    return _rotated(base)


def _rotated(base: Scheme) -> Scheme:
    """The rotation of a base that has already passed `_require_clean_base`."""
    N, L = base.N, base.L
    amap, bmap = _part_maps(N, L)
    placement = tuple(_interleaved(P, (amap, bmap), N * 2 * L) for P in base.placement)

    def signals(d: Demand) -> dict[int, SenderSignal]:
        return {k: _rotated_signal(base, placement[k - 1], d, sender=k, amap=amap, bmap=bmap)
                for k in (1, 2, 3)}

    return derived_scheme((base,), ModelKind.TRADITIONAL_D2D, N, 3, 0, 2 * L, base.field,
                          placement, signals)


def _rotated_signal(base: Scheme, new_P: FieldMatrix, d: Demand, sender: int,
                    amap: list[int], bmap: list[int]) -> SenderSignal:
    """Sender's rows for demand d, each placed on part a or part b.

    Users 1 and 3 send every row on their own part.  User 2 tracks `known`,
    what user 1 holds on part a: its cache, then the file-d1 entries of
    earlier rows.  A row wholly in file d1 serves user 1 on part a unless
    user 1 already knows it; then it is a repeat, which serves user 3 on
    part b (d1 = d3).  Any other row is split by file: its file-d1 entries
    ride part a, the rest part b.
    """
    d1, d2, d3 = d
    base_demand = {1: (0, d2, d3), 2: (d1, 0, d3), 3: (d1, d2, 0)}[sender]
    sig = base.signals(base_demand)[sender]
    a_map, b_map = _coeff_maps(sig.matrix.ncols)
    if sender != 2:
        return SenderSignal(sig.matrix.map_columns(a_map if sender == 1 else b_map, new_P.nrows))
    part_a, part_b = (sig.matrix.map_columns(cmap, new_P.nrows).images for cmap in (a_map, b_map))
    spec = base.field
    block = base.L * spec.m
    file_d1 = ((1 << block) - 1) << (d1 - 1) * block
    split = [a if j // base.L + 1 == d1 else b for j, (a, b) in enumerate(zip(amap, bmap))]
    symbols = sig.matrix.matmul(base.placement[1])
    known = base.placement[0]._echelon.copy()

    coeff_images: list[int] = []
    raw_images: list[int] = []
    for row, mixed, a, b in zip(symbols.images, symbols.map_columns(split, new_P.ncols).images,
                                part_a, part_b):
        if not row & ~file_d1:
            # add is False when user 1 already knows the row: a repeat
            coeff_images.append(a if known.add(row) else b)
            continue
        known.add(row & file_d1)
        solved = new_P._echelon.express(mixed)
        if solved is None:
            raw_images.append(mixed)
        else:
            coeff_images.append(solved)

    matrix = FieldMatrix(spec, len(coeff_images), new_P.nrows, tuple(coeff_images))
    raw = FieldMatrix(spec, len(raw_images), new_P.ncols, tuple(raw_images)) if raw_images else None
    return SenderSignal(matrix, raw)


# ---------------------------------------------------------------------------
# Signal pruning for fake requesters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrunedSignal:
    demand: Demand
    real_requesters: tuple[int, ...]
    kept: tuple[tuple[int, int], ...]      # (sender, row index) in scan order
    dropped: tuple[tuple[int, int], ...]
    symbol_rows: tuple[tuple[int, ...], ...]  # kept rows, symbol space

    @property
    def row_count(self) -> int:
        return len(self.kept)

    def kept_rows_of(self, sender: int) -> tuple[int, ...]:
        return tuple(i for k, i in self.kept if k == sender)


def prune_signal(scheme: Scheme, demand: Demand,
                 real_requesters: Sequence[int]) -> PrunedSignal:
    """Greedily drop delivery rows that no real requester needs.

    Rows are scanned in construction order; a row is dropped when every
    real requester still decodes from the remaining rows.  The un-pruned
    signal must already decode all real requesters.
    """
    real = tuple(sorted(set(real_requesters)))
    reqs = requesters_of(demand)
    for r in real:
        if r not in reqs:
            raise ConfigurationError(f"user {r} does not request under demand {demand}")
    signals = scheme.transmitted_rows(demand)
    order: list[tuple[int, int]] = []
    images: dict[tuple[int, int], int] = {}
    for k in sorted(signals):
        for i, image in enumerate(signals[k].images):
            order.append((k, i))
            images[(k, i)] = image

    verdicts = defaultdict(dict)

    def decodes(keys) -> bool:
        return not _failing(scheme, verdicts, demand, real, [images[key] for key in keys])

    kept = list(order)
    if not decodes(kept):
        raise ConfigurationError("un-pruned signal fails to serve a real requester")
    dropped = []
    for key in order:
        trial = [k for k in kept if k != key]
        if decodes(trial):
            kept = trial
            dropped.append(key)
    kept_images = tuple(images[k] for k in kept)
    return PrunedSignal(
        demand=demand,
        real_requesters=real,
        kept=tuple(kept),
        dropped=tuple(dropped),
        symbol_rows=FieldMatrix(scheme.field, len(kept), scheme.symbol_count, kept_images).rows,
    )


# ---------------------------------------------------------------------------
# Request-random adaptation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FakeAssignment:
    """How a single-requester demand borrows the two-requester rule."""

    demand: Demand
    fake_demand: Demand
    fakes: Mapping[int, int]   # fake user -> copied file
    sender: int


def average_rate(p: Probability, rates: Mapping[int, Fraction]) -> Probability:
    """Binomial-weighted mean of the per-request-count worst-case rates."""
    if not 0 <= p <= 1:
        raise ConfigurationError("request probability must lie in [0, 1]")
    if any(x not in rates for x in range(4)):
        raise ConfigurationError("rates must cover request counts 0..3")
    exact = isinstance(p, Fraction) or isinstance(p, int)
    p = Fraction(p) if exact else float(p)
    total = Fraction(0) if exact else 0.0
    for x in range(4):
        weight = comb(3, x) * p ** x * (1 - p) ** (3 - x)
        total += weight * (rates[x] if exact else float(rates[x]))
    return total


@dataclass(frozen=True)
class RequestRandomAdaptation:
    base: Scheme
    scheme: Scheme
    per_r_worst: Mapping[int, Fraction]
    fake_assignments: Mapping[Demand, FakeAssignment]


def _fake_assignment(d: Demand) -> FakeAssignment:
    """The lowest-index idle user sends; the other idle user fakes the one request of d."""
    (real,) = requesters_of(d)
    sender, fake = senders_of(d)
    fake_demand = tuple(d[real - 1] if k == fake else v for k, v in enumerate(d, start=1))
    return FakeAssignment(d, fake_demand, {fake: d[real - 1]}, sender)


def adapt_request_random(base: Scheme) -> RequestRandomAdaptation:
    """Serve 0..3 random requesters with a two-requester base design.

    r=2 demands replay the base rule; r=3 demands use the rotated rule;
    an r=1 demand promotes the lowest-index idle user to designated
    sender, treats the other idle user as a fake requester for the real
    file, and prunes rows only the fake needed; r=0 sends nothing.  Each
    rule moves with a file relabelling, so an OrbitScheme base adapts to
    an OrbitScheme.
    """
    _require_clean_base(base)
    rotated = _rotated(base)
    N, L2, spec = base.N, 2 * base.L, base.field
    placement = rotated.placement

    def interleaved(matrix: FieldMatrix, sender: int) -> SenderSignal:
        return SenderSignal(_interleaved(matrix, _coeff_maps(matrix.ncols),
                                         placement[sender - 1].nrows))

    most_rows = dict.fromkeys(range(4), 0)

    def signals(d: Demand) -> dict[int, SenderSignal]:
        requesters = requesters_of(d)
        if len(requesters) == 3:
            out = dict(rotated.signals(d))
        elif len(requesters) == 2:
            (sender,) = senders_of(d)
            out = {sender: interleaved(base.signals(d)[sender].matrix, sender)}
        else:
            out = {k: SenderSignal(FieldMatrix.empty(spec, placement[k - 1].nrows))
                   for k in senders_of(d)}
            if requesters:
                fake = _fake_assignment(d)
                kept = prune_signal(base, fake.fake_demand, requesters).kept_rows_of(fake.sender)
                matrix = base.signals(fake.fake_demand)[fake.sender].matrix
                out[fake.sender] = interleaved(FieldMatrix(
                    spec, len(kept), matrix.ncols, tuple(matrix.images[i] for i in kept)),
                    fake.sender)
        # every demand of a file pattern sends the pattern's rows, so this sees the worst case
        r = len(requesters)
        most_rows[r] = max(most_rows[r], sum(sig.row_count for sig in out.values()))
        return out

    scheme = derived_scheme((base,), ModelKind.REQUEST_RANDOM, N, 3, None, L2, spec, placement,
                            signals)
    fake_assignments = {d: _fake_assignment(d)
                        for d in enumerate_demands(ModelKind.REQUEST_RANDOM, N, 3)
                        if len(requesters_of(d)) == 1}
    worst = {r: Fraction(rows, L2) for r, rows in most_rows.items()}
    return RequestRandomAdaptation(base, scheme, worst, fake_assignments)
