"""Decodability verification and exact memory/rate accounting.

Every demand in the model's enumeration is decided: a requester decodes
its file iff every unit selector row of that file lies in the row space
of its own cache stacked with all transmitted rows.  Rates count
transmitted rows (duplicates included) divided by the subpacketization,
for every demand.

Demands are decided once per file-relabelling orbit when the placement
allows it.  A file permutation pi moves symbol (n, l) to (pi(n), l).  If
every user's cache row space is invariant under the transposition (1 2)
and the N-cycle, which generate S_N, it is invariant under every pi.
Demands with the same first-appearance file pattern form one orbit, and
the first one met gets the full check.  A later demand d = pi(rep) reuses
that verdict only when its transmitted rows, as a multiset, are exactly
the pi-images of the representative's.  Then the cache spans, the
transmitted span and the requested unit selectors all move under the same
pi, so each requester decodes iff it did for the representative.  Any
other demand, and every demand of a scheme that fails the invariance
test, gets the full check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .field import FieldMatrix, RowSpan
from .model import (
    Demand,
    ModelKind,
    canonical_file_pattern,
    enumerate_demands,
    idle_counts,
    requesters_of,
    unit_image,
)


@dataclass(frozen=True)
class DemandReport:
    demand: Demand
    rate: Optional[Fraction]
    sender_rows: dict[int, int]
    decodable: Optional[bool]
    failed_users: tuple[int, ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    model: ModelKind
    N: int
    K: int
    s: Optional[int]
    L: int
    field_m: int
    memory: tuple[Fraction, ...]
    demands: tuple[DemandReport, ...]
    worst_case_rate: Fraction
    placement_full_rank: Optional[bool]
    joint_recovery: Optional[bool]
    demand_coverage: bool
    encoding_clean: bool

    @property
    def all_decodable(self) -> bool:
        return all(d.decodable for d in self.demands)

    @property
    def passed(self) -> bool:
        return (
            self.all_decodable
            and self.demand_coverage
            and self.encoding_clean
            and bool(self.placement_full_rank)
            and bool(self.joint_recovery)
        )

    def rate_of(self, demand: Demand) -> Fraction:
        for entry in self.demands:
            if entry.demand == demand:
                return entry.rate
        raise KeyError(demand)

    def rate_table(self) -> dict[Demand, Fraction]:
        return {e.demand: e.rate for e in self.demands}

    def to_json_dict(self) -> dict:
        def frac(x):
            return None if x is None else str(x)

        return {
            "model": self.model.value,
            "N": self.N,
            "K": self.K,
            "s": self.s,
            "L": self.L,
            "field_m": self.field_m,
            "memory": [frac(m) for m in self.memory],
            "worst_case_rate": frac(self.worst_case_rate),
            "all_decodable": self.all_decodable,
            "feasibility": {
                "placement_full_rank": self.placement_full_rank,
                "joint_recovery": self.joint_recovery,
                "demand_coverage": self.demand_coverage,
                "encoding_clean": self.encoding_clean,
            },
            "passed": self.passed,
            "demands": [
                {
                    "demand": ",".join(str(v) for v in e.demand),
                    "rate": frac(e.rate),
                    "sender_rows": {str(k): v for k, v in sorted(e.sender_rows.items())},
                    "decodable": e.decodable,
                    "failed_users": list(e.failed_users),
                }
                for e in self.demands
            ],
        }


def _recovery_groups(scheme) -> list[tuple[int, ...]]:
    """User groups whose joint caches must span every symbol.

    A requester and the senders of its demand must jointly hold every
    symbol: z+1 users when z are idle, all K when nobody is.  The smallest
    such group over the model's idle counts is the strictest condition;
    a demand with nobody requesting needs none.
    """
    K = scheme.K
    idle = idle_counts(scheme.model, scheme.N, K, scheme.s)
    size = min(z + 1 if z else K for z in idle if z < K)
    return list(itertools.combinations(range(1, K + 1), size))


def verify(scheme, *, check_decodability: bool = True) -> VerificationReport:
    """Measure memory and per-demand rates; optionally prove decodability.

    ``check_decodability=False`` skips every rank computation (demand
    decoding and placement feasibility), leaving only the exact rational
    accounting; the corresponding report fields are None.  Works for any
    object satisfying the LinearScheme accessor surface, including lazily
    symmetrized schemes.
    """
    N, K, L = scheme.N, scheme.K, scheme.L
    demands = enumerate_demands(scheme.model, N, K, scheme.s)
    covered = set(scheme.delivery_demands())
    demand_coverage = covered == set(demands)

    memory = tuple(Fraction(scheme.placement_rows(k), L) for k in range(1, K + 1))

    placement_full_rank: Optional[bool] = None
    joint_recovery: Optional[bool] = None
    user_spans: dict[int, RowSpan] = {}
    orbits: Optional[dict[Demand, tuple]] = None
    block = L * scheme.field.m  # bits of one file in a binary image
    if check_decodability:
        placements = {k: scheme.placement_matrix(k) for k in range(1, K + 1)}
        placement_full_rank = True
        for k, P in placements.items():
            span = RowSpan(scheme.field, P.ncols)
            span.add_matrix(P)
            user_spans[k] = span
            if span.rank != P.nrows:
                placement_full_rank = False
        joint_recovery = True
        total = N * L
        for group in _recovery_groups(scheme):
            span = user_spans[group[0]].copy()
            for k in group[1:]:
                span.add_matrix(placements[k])
            if span.rank != total:
                joint_recovery = False
                break
        if N > 1 and _file_symmetric(placements, user_spans, N, block):
            orbits = {}  # pattern -> (representative, its sorted row images, its verdict)

    entries = []
    worst = Fraction(0)
    for d in demands:
        if d not in covered:
            entries.append(DemandReport(d, None, {}, False if check_decodability else None))
            continue
        sender_rows = scheme.delivery_row_counts(d)
        rate = Fraction(sum(sender_rows.values()), L)
        worst = max(worst, rate)
        decodable: Optional[bool] = None
        failed: tuple[int, ...] = ()
        if check_decodability:
            sent = scheme.transmitted_rows(d).values()
            verdict = None
            if orbits is not None:
                images = sorted(image for mat in sent for image in mat.images)
                pattern = canonical_file_pattern(d)
                verdict = _reused_verdict(orbits.get(pattern), d, images, N, block)
            if verdict is None:
                verdict = _decide(scheme, user_spans, d, sent)
                if orbits is not None:
                    orbits.setdefault(pattern, (d, images, verdict))
            decodable, failed = verdict
        entries.append(DemandReport(d, rate, sender_rows, decodable, failed))

    return VerificationReport(
        model=scheme.model,
        N=N,
        K=K,
        s=scheme.s,
        L=L,
        field_m=scheme.field.m,
        memory=memory,
        demands=tuple(entries),
        worst_case_rate=worst,
        placement_full_rank=placement_full_rank,
        joint_recovery=joint_recovery,
        demand_coverage=demand_coverage,
        encoding_clean=scheme.encoding_clean,
    )


def _decide(scheme, user_spans: dict[int, RowSpan], d: Demand,
            sent: Iterable[FieldMatrix]) -> tuple[bool, tuple[int, ...]]:
    """Full check of one demand: (every requester decodes, the requesters that fail)."""
    span_of_sent = RowSpan(scheme.field, scheme.symbol_count)
    for mat in sent:
        span_of_sent.add_matrix(mat)
    failed = []
    for r in requesters_of(d):
        span = user_spans[r].copy()
        span.add_span(span_of_sent)
        if not _file_decodable(span, scheme.N, scheme.L, d[r - 1]):
            failed.append(r)
    return not failed, tuple(failed)


def _move_files(image: int, perm: Sequence[int], block: int) -> int:
    """A binary image with the block of file n moved to block perm[n] (0-based)."""
    lane = (1 << block) - 1
    out = 0
    for n, target in enumerate(perm):
        out |= (image >> n * block & lane) << target * block
    return out


def _file_symmetric(placements: dict[int, FieldMatrix], user_spans: dict[int, RowSpan],
                    N: int, block: int) -> bool:
    """True when every user's cache row space is invariant under every file permutation.

    The transposition (1 2) and the N-cycle generate S_N, so it suffices
    that each of them maps every cache row back into its user's span.
    """
    generators = dict.fromkeys([(1, 0, *range(2, N)), (*range(1, N), 0)])
    return all(
        user_spans[k].contains(_move_files(image, perm, block))
        for k, P in placements.items()
        for perm in generators
        for image in P.images
    )


def _reused_verdict(seen: Optional[tuple], d: Demand, images: list[int], N: int,
                    block: int) -> Optional[tuple[bool, tuple[int, ...]]]:
    """The orbit representative's verdict, if d's rows are exactly its rows relabelled.

    None when the orbit has no representative yet or the sorted row images
    differ.
    """
    if seen is None:
        return None
    rep, rep_images, verdict = seen
    perm = _relabelling(rep, d, N)
    return verdict if images == sorted(_move_files(i, perm, block) for i in rep_images) else None


def _relabelling(rep: Demand, d: Demand, N: int) -> list[int]:
    """A 0-based file permutation pi with d = pi(rep), entry by entry.

    Files that rep does not request go to the files d does not request,
    both in ascending order.
    """
    perm: list[Optional[int]] = [None] * N
    for a, b in zip(rep, d):
        if a:
            perm[a - 1] = b - 1
    spare = iter(sorted(set(range(N)).difference(perm)))
    return [next(spare) if p is None else p for p in perm]


def _file_decodable(span: RowSpan, N: int, L: int, file_id: int) -> bool:
    """True when every unit selector of the file lies in the span."""
    m = span.spec.m
    first = unit_image(N, L, file_id, 1, m)
    return all(span.contains(first << l * m) for l in range(L))
