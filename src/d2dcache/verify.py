"""Decodability verification and exact memory/rate accounting.

Every demand in the model's enumeration is decided: a requester decodes
its file iff every unit selector row of that file lies in the row space
of its own cache stacked with all transmitted rows.  Rates count
transmitted rows (duplicates included) divided by the subpacketization,
for every demand.

Demands are decided once per file-relabelling orbit when the placement
allows it.  A file permutation pi moves symbol (n, l) to (pi(n), l).  If
every user's cache row space is invariant under the transposition (1 2)
and the N-cycle, which generate S_N, it is invariant under every pi
(`model.file_symmetric`).  Demands with the same first-appearance file
pattern form one orbit, whose first demand is the pattern itself.

- An OrbitScheme passed that test when it was built, and the delivery of
  d = pi(pattern), raw rows included, is the pattern's delivery moved by
  pi by definition.  So only the patterns are multiplied out and decided,
  and every demand takes its pattern's row counts and verdict.
- An explicit scheme's pattern gets the full check.  A later demand
  d = pi(rep) reuses that verdict only when its transmitted rows, as a
  multiset, are exactly the pi-images of the representative's.  Any other
  demand, and every demand of a scheme that fails the invariance test,
  gets the full check.

  Within one call, each distinct (sender, encoding, raw rows) is
  multiplied out once (`SenderSignal.sent`) and kept as one packed int, its rows at a stride of N*L*m bits, and a
  demand's rows are its senders' packed ints concatenated.  The reuse test
  first moves the representative's packed rows by pi (one masked shift per
  file block, for all rows at once) and compares them with d's: equal ints
  of equal row count are equal rows in order, hence as a multiset.  Only
  when they differ are both row lists sorted and compared.  So verdicts are
  reused on exactly the demands the multiset rule allows.

Either way the cache spans, the transmitted span and the requested unit
selectors all move under the same pi, so each requester decodes iff it
did for the representative.

Within one call, a full check decides each (requester, file, set of sent
rows) once.  The verdict depends on nothing else, since the requester's
placement and L are the scheme's, so it is kept in a dict that lives for
the call and read back by every later check with the same key.  Only a
miss builds the sent rows' span and grows a copy of the echelon.
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
    file_relabelling,
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

    memory = tuple(Fraction(scheme.placement_rows(k), L) for k in range(1, K + 1))

    placement_full_rank: Optional[bool] = None
    joint_recovery: Optional[bool] = None
    symmetric = False
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
        symmetric = not orbit_native and N > 1 and file_symmetric(placements, N, L)
        verdicts = defaultdict(dict)

    if orbit_native:
        demand_coverage = True
        entries, worst = _pattern_entries(scheme, demands, verdicts)
    else:
        covered = set(scheme.delivery_demands())
        demand_coverage = covered == set(demands)
        entries, worst = _demand_entries(scheme, demands, covered, verdicts, symmetric)

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


def _pattern_entries(scheme: OrbitScheme, demands: list[Demand],
                     verdicts: Optional[_Verdicts],
                     ) -> tuple[list[DemandReport], Fraction]:
    """Each demand's report from its pattern's row counts and verdict, and the worst rate.

    Only patterns are multiplied out and decided, each once.
    """
    account = _Accounts(scheme.L)
    by_pattern: dict[Demand, tuple] = {}
    entries = []
    for d in demands:
        pattern = canonical_file_pattern(d)
        known = by_pattern.get(pattern)
        if known is None:
            verdict = (None, ())
            if verdicts is not None:
                verdict = _decide(scheme, verdicts, pattern,
                                  [image for mat in scheme.transmitted_rows(pattern).values()
                                   for image in mat.images])
            known = by_pattern[pattern] = (*account(scheme.delivery_row_counts(pattern)),
                                           *verdict)
        entries.append(DemandReport(d, *known))
    return entries, account.worst


def _demand_entries(scheme, demands: list[Demand], covered: set[Demand],
                    verdicts: Optional[_Verdicts], symmetric: bool,
                    ) -> tuple[list[DemandReport], Fraction]:
    """Each demand's report from its own delivery, and the worst rate.

    Accounting alone reads only the row counts.  A full check multiplies out
    each distinct (sender, encoding) once, into packed rows (`_packed_rows`).
    With a file-symmetric placement, a demand reuses its pattern's verdict
    when its rows are exactly the pattern's rows relabelled.
    """
    account = _Accounts(scheme.L)
    if verdicts is None:
        return [DemandReport(d, *account(scheme.delivery_row_counts(d)), None)
                if d in covered else DemandReport(d, None, _NO_ROWS, None)
                for d in demands], account.worst
    N = scheme.N
    block = scheme.L * scheme.field.m  # bits of one file in a binary image
    stride = N * block  # bits of one row
    products: dict[tuple, tuple[int, int]] = {}
    orbits: Optional[dict[Demand, tuple]] = {} if symmetric else None
    entries = []
    for d in demands:
        if d not in covered:
            entries.append(DemandReport(d, None, _NO_ROWS, False))
            continue
        packed, count, counts = 0, 0, {}
        for k, sig in scheme.signals(d).items():
            key = (k, sig.matrix.images, sig.raw_images)
            product = products.get(key)
            if product is None:
                product = products[key] = _packed_rows(scheme, k, sig, stride)
            packed |= product[0] << count * stride
            count += product[1]
            counts[k] = product[1]
        verdict = None
        if orbits is not None:
            pattern = canonical_file_pattern(d)
            seen = orbits.get(pattern)
            if seen is not None:
                verdict = _reused_verdict(seen, d, packed, count, N, block)
        if verdict is None:
            verdict = _decide(scheme, verdicts, d, _unpacked(packed, count, stride))
            if orbits is not None:
                orbits.setdefault(pattern, (d, packed, count, verdict))
        entries.append(DemandReport(d, *account(counts), *verdict))
    return entries, account.worst


def _packed_rows(scheme, k: int, sig, stride: int) -> tuple[int, int]:
    """(packed rows, row count) that sender k puts on the air for signal sig.

    Row i of the product, then of the raw rows, takes bits [i*stride, (i+1)*stride).
    """
    images = sig.sent(scheme.placement[k - 1])
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


def _reused_verdict(seen: tuple, d: Demand, packed: int, count: int, N: int,
                    block: int) -> Optional[tuple[bool, tuple[int, ...]]]:
    """The orbit representative's verdict, if d's rows are exactly its rows relabelled.

    None when the row multisets differ.  The representative's packed rows are
    moved by pi block by block; only when that differs from d's packed rows,
    as a row order may, are both row lists sorted and compared.
    """
    rep, rep_packed, rep_count, verdict = seen
    if count != rep_count:
        return None
    stride = N * block
    # file 0's block in every row
    lanes = ((1 << count * stride) - 1) // ((1 << stride) - 1) * ((1 << block) - 1)
    moved = 0
    for n, p in enumerate(file_relabelling(rep, d, N)):
        part = rep_packed & lanes << n * block
        moved |= part << (p - n) * block if p >= n else part >> (n - p) * block
    if moved == packed:
        return verdict
    if sorted(_unpacked(moved, count, stride)) == sorted(_unpacked(packed, count, stride)):
        return verdict
    return None


def _file_decodable(span: RowSpan, N: int, L: int, file_id: int) -> bool:
    """True when every unit selector of the file lies in the span."""
    m = span.spec.m
    first = unit_image(N, L, file_id, 1, m)
    return all(span.contains(first << l * m) for l in range(L))
