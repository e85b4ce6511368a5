"""Decodability verification and exact memory/rate accounting.

Every demand in the model's enumeration is checked: a requester decodes
its file iff every unit selector row of that file lies in the row space
of its own cache stacked with all transmitted rows.  Rates count
transmitted rows (duplicates included) divided by the subpacketization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .field import RowSpan
from .model import (
    Demand,
    ModelKind,
    enumerate_demands,
    idle_counts,
    requesters_of,
    symbol_col,
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
    if check_decodability:
        placement_full_rank = True
        for k in range(1, K + 1):
            P = scheme.placement_matrix(k)
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
                span.add_matrix(scheme.placement_matrix(k))
            if span.rank != total:
                joint_recovery = False
                break

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
            sent = RowSpan(scheme.field, scheme.symbol_count)
            for mat in scheme.transmitted_rows(d).values():
                sent.add_matrix(mat)
            bad = []
            for r in requesters_of(d):
                span = user_spans[r].copy()
                span.add_span(sent)
                if not _file_decodable(span, N, L, d[r - 1]):
                    bad.append(r)
            decodable = not bad
            failed = tuple(bad)
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


def _file_decodable(span: RowSpan, N: int, L: int, file_id: int) -> bool:
    """True when every unit selector of the file lies in the span."""
    m = span.spec.m
    base = symbol_col(N, L, file_id, 1)
    return all(span.contains(1 << ((base + l) * m)) for l in range(L))
