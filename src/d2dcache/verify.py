"""Decodability verification and exact memory/rate accounting.

Every demand in the model's enumeration is decided: a requester decodes
its file iff every unit selector row of that file lies in the row space
of its own cache stacked with all transmitted rows.  Rates count
transmitted rows (duplicates included) divided by the subpacketization,
for every demand.

Each demand d is decided in its frame: its first-appearance file pattern
when the placement is file-symmetric (`model.file_symmetric`: every cache
row space is fixed by the transposition (1 2) and the N-cycle, hence by
all of S_N; an OrbitScheme passed that test when it was built), and d
itself otherwise.  The inverse of d's `file_order` maps d onto its
pattern, fixes every cache span and maps d's requested unit selectors
onto the frame's, so a requester decodes d from its rows iff it decodes
the frame from their images under it.

Each distinct (sender, encoding, raw rows) becomes one int that holds
its rows at a stride of N*L*m bits: an OrbitScheme's pattern rows were
multiplied out when it was built (`OrbitScheme._pattern_images`), and any
other scheme's are multiplied out once per call (`SenderSignal.sent`).  A
demand's rows are its senders' ints concatenated, gathered onto the frame
by one masked shift per file block (`_moved`), and every demand with the
same (frame, moved rows, row count) takes one verdict.  An OrbitScheme's
rows of d are its pattern's rows moved, by definition, so only its
patterns are decided.

A full check decides each (requester, file, set of sent rows) once per
call: the verdict depends on nothing else, since the placement and L are
the scheme's.  The memo is keyed by the sorted sent images, so rows that
a demand lists in another order build no span.  Only a miss builds the
sent rows' span and grows a copy of the requester's echelon.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .field import RowSpan
from .model import (
    Demand,
    ModelKind,
    OrbitScheme,
    canonical_file_pattern,
    enumerate_demands,
    file_order,
    file_symmetric,
    idle_counts,
    requesters_of,
    unit_image,
)


@dataclass(frozen=True)
class DemandReport:
    """One demand's rate and verdict; sender_rows is read-only and shared by equal counts."""

    demand: Demand
    rate: Optional[Fraction]
    sender_rows: Mapping[int, int]
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
    object satisfying the LinearScheme accessor surface, including
    OrbitSchemes and lazily symmetrized schemes.
    """
    N, K, L = scheme.N, scheme.K, scheme.L
    demands = enumerate_demands(scheme.model, N, K, scheme.s)
    orbit_native = isinstance(scheme, OrbitScheme)
    # an OrbitScheme covers every demand by construction
    covered = None if orbit_native else set(scheme.delivery_demands())
    demand_coverage = covered is None or covered == set(demands)

    memory = tuple(Fraction(scheme.placement_rows(k), L) for k in range(1, K + 1))

    placement_full_rank: Optional[bool] = None
    joint_recovery: Optional[bool] = None
    symmetric = orbit_native
    verdicts: Optional[_Verdicts] = None
    if check_decodability:
        # each placement's cached echelon is its user's span; a grown span is a copy
        placements = scheme.placement
        placement_full_rank = all(P._echelon.rank == P.nrows for P in placements)
        joint_recovery = True
        total = N * L
        for group in _recovery_groups(scheme):
            span = placements[group[0] - 1]._echelon.copy()
            for k in group[1:]:
                span.add_matrix(placements[k - 1])
            if span.rank != total:
                joint_recovery = False
                break
        symmetric = orbit_native or N > 1 and file_symmetric(placements, N, L)
        verdicts = defaultdict(dict)

    entries, worst = _entries(scheme, demands, covered, verdicts, symmetric)
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


class _Accounts:
    """Report parts shared between demands.

    One read-only sender_rows mapping per distinct count vector and one rate
    per distinct row total, so equal entries hold the same objects.
    """

    def __init__(self, L: int):
        self.L = L
        self.rates: dict[int, Fraction] = {}
        self._shared: dict[tuple, tuple[Fraction, Mapping[int, int]]] = {}

    def __call__(self, counts: dict[int, int]) -> tuple[Fraction, Mapping[int, int]]:
        """(rate, sender_rows) of a demand with these row counts per sender.

        A new count vector's mapping wraps counts, so the caller must not change it.
        """
        key = tuple(counts.items())
        shared = self._shared.get(key)
        if shared is None:
            total = sum(counts.values())
            rate = self.rates.setdefault(total, Fraction(total, self.L))
            shared = self._shared[key] = (rate, MappingProxyType(counts))
        return shared

    @property
    def worst(self) -> Fraction:
        return max(self.rates.values(), default=Fraction(0))


_NO_ROWS: Mapping[int, int] = MappingProxyType({})

# one verify call's memo: (requester, file) -> sorted sent images -> decodes.
# Requesters share each key tuple, which keeps the sent images of every
# decided check alive until the call returns.
_Verdicts = defaultdict[tuple[int, int], dict[tuple[int, ...], bool]]


def _entries(scheme, demands: list[Demand], covered: Optional[set[Demand]],
             verdicts: Optional[_Verdicts], symmetric: bool,
             ) -> tuple[list[DemandReport], Fraction]:
    """Each demand's report, and the worst rate.

    covered is None when every demand has a delivery.  A demand is decided in
    its frame, its pattern when symmetric; accounting alone reads row counts.
    """
    block = scheme.L * scheme.field.m  # bits of one file in a binary image
    stride = scheme.N * block  # bits of one row
    orbit_native = isinstance(scheme, OrbitScheme)
    account = _Accounts(scheme.L)
    products: dict[tuple, tuple[int, int]] = {}
    decided: dict[tuple, tuple[bool, tuple[int, ...]]] = {}
    by_pattern: dict[Demand, tuple] = {}  # an OrbitScheme's entry per pattern
    entries = []
    for d in demands:
        if covered is not None and d not in covered:
            entries.append(DemandReport(d, None, _NO_ROWS, None if verdicts is None else False))
            continue
        frame = canonical_file_pattern(d) if symmetric else d
        entry = by_pattern.get(frame)
        if entry is None:
            # an OrbitScheme's rows of d are its pattern's rows moved onto d
            source = frame if orbit_native else d
            if verdicts is None:
                entry = (*account(scheme.delivery_row_counts(source)), None)
            else:
                packed, count, counts = 0, 0, {}
                for k, sig in scheme.signals(source).items():
                    key = (k, sig.matrix.images, sig.raw_images)
                    product = products.get(key)
                    if product is None:
                        images = (scheme._pattern_images[frame][k] if orbit_native
                                  else sig.sent(scheme.placement[k - 1]))
                        product = products[key] = _packed(images, stride)
                    packed |= product[0] << count * stride
                    count += product[1]
                    counts[k] = product[1]
                if source != frame:
                    packed = _moved(packed, count, file_order(d, scheme.N), block)
                key = (frame, packed, count)
                verdict = decided.get(key)
                if verdict is None:
                    verdict = _decide(scheme, verdicts, frame, _unpacked(packed, count, stride))
                    if symmetric:
                        decided[key] = verdict
                entry = (*account(counts), *verdict)
            if orbit_native:
                by_pattern[frame] = entry
        entries.append(DemandReport(d, *entry))
    return entries, account.worst


def _packed(images: tuple[int, ...], stride: int) -> tuple[int, int]:
    """(packed rows, row count) of the row images: row i takes bits [i*stride, (i+1)*stride)."""
    packed = 0
    for i, image in enumerate(images):
        packed |= image << i * stride
    return packed, len(images)


def _unpacked(packed: int, count: int, stride: int) -> list[int]:
    """The count row images held in packed rows."""
    row = (1 << stride) - 1
    return [packed >> i * stride & row for i in range(count)]


def _decide(scheme, verdicts: _Verdicts, d: Demand,
            sent: Iterable[int]) -> tuple[bool, tuple[int, ...]]:
    """Full check of one demand: (every requester decodes, the requesters that fail).

    sent holds the images of every transmitted row; verdicts is the call's memo.
    """
    failed = _failing(scheme, verdicts, d, requesters_of(d), sent)
    return not failed, failed


def _failing(scheme, verdicts: _Verdicts, d: Demand, requesters: Iterable[int],
             sent: Iterable[int]) -> tuple[int, ...]:
    """The requesters that do not decode their file of d from the sent row images.

    Within one scheme a verdict depends only on the requester, its file and
    the set of sent rows, so it is kept in verdicts under (requester, file)
    and the sorted images, one key tuple shared by every requester.  On a
    miss the sent rows' span is built, once for all requesters, and joins a
    copy of the requester's echelon (`_decodes`).
    """
    key = tuple(sorted(sent))
    span_of_sent = None
    failed = []
    for r in requesters:
        file_id = d[r - 1]
        known = verdicts[r, file_id]
        verdict = known.get(key)
        if verdict is None:
            if span_of_sent is None:
                span_of_sent = RowSpan(scheme.field, scheme.symbol_count)
                for image in key:
                    span_of_sent.add(image)
            verdict = known[key] = _decodes(scheme.placement[r - 1]._echelon, span_of_sent,
                                            scheme.N, scheme.L, file_id)
        if not verdict:
            failed.append(r)
    return tuple(failed)


def _decodes(cache: RowSpan, sent: RowSpan, N: int, L: int, file_id: int) -> bool:
    """The elimination: True when a copy of cache grown with sent holds the file."""
    span = cache.copy()
    span.add_span(sent)
    return _file_decodable(span, N, L, file_id)


def _moved(packed: int, count: int, order: list[int], block: int) -> int:
    """count packed rows, file order[i]'s block gathered into block i (0-based), one shift each."""
    stride = len(order) * block
    # file 0's block in every row
    lanes = ((1 << count * stride) - 1) // ((1 << stride) - 1) * ((1 << block) - 1)
    moved = 0
    for i, n in enumerate(order):
        part = packed & lanes << n * block
        moved |= part << (i - n) * block if i >= n else part >> (n - i) * block
    return moved


def _file_decodable(span: RowSpan, N: int, L: int, file_id: int) -> bool:
    """True when every unit selector of the file lies in the span."""
    m = span.spec.m
    first = unit_image(N, L, file_id, 1, m)
    return all(span.contains(first << l * m) for l in range(L))
