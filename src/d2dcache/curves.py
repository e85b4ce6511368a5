"""Exact rational rate-memory points and lower convex envelopes."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ConfigurationError, FeasibilityError


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(text: str) -> Fraction:
    """Exact rational from 'p/q' or an integer literal; ValueError for anything else.

    Decimal and exponent forms are refused before any Fraction is built:
    '1e999999999' would otherwise compute 10**999999999.
    """
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"{text!r} has a zero denominator") from exc


@dataclass(frozen=True)
class RatePoint:
    """An achievable (memory, worst-case rate) pair."""

    M: Fraction
    R: Fraction
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "M", Fraction(self.M))
        object.__setattr__(self, "R", Fraction(self.R))
        if self.R < 0:
            raise ConfigurationError("rates are nonnegative")
        if self.M <= 0:
            raise ConfigurationError("memory must be positive")


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear lower envelope; vertices ascend strictly in M."""

    vertices: tuple[RatePoint, ...]

    @property
    def min_M(self) -> Fraction:
        return self.vertices[0].M

    @property
    def max_M(self) -> Fraction:
        return self.vertices[-1].M

    def value_at(self, M) -> Fraction:
        M = Fraction(M)
        if M < self.min_M:
            raise FeasibilityError(f"M={M} is left of the curve's first corner {self.min_M}")
        if M >= self.max_M:
            return self.vertices[-1].R
        for left, right in zip(self.vertices, self.vertices[1:]):
            if left.M <= M <= right.M:
                t = (M - left.M) / (right.M - left.M)
                return left.R + t * (right.R - left.R)
        raise AssertionError("unreachable")

    def corner_Ms(self) -> tuple[Fraction, ...]:
        return tuple(v.M for v in self.vertices)


def envelope(points: Iterable[RatePoint]) -> TradeoffCurve:
    """Lower convex envelope of achievable points.

    Dominated points (another point with no larger M and no larger R)
    are discarded, then the lower hull is kept; collinear interior
    points are not vertices.
    """
    pts = list(points)
    if not pts:
        raise ConfigurationError("envelope needs at least one point")
    best: dict[Fraction, RatePoint] = {}
    for p in pts:
        cur = best.get(p.M)
        if cur is None or p.R < cur.R:
            best[p.M] = p
    pts = sorted(best.values(), key=lambda p: p.M)
    undominated = []
    for p in pts:
        if undominated and undominated[-1].R <= p.R:
            continue  # an earlier point has no more memory and no more rate
        undominated.append(p)
    hull: list[RatePoint] = []
    for p in undominated:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            lhs = (b.R - a.R) * (p.M - a.M)
            rhs = (p.R - a.R) * (b.M - a.M)
            if lhs >= rhs:  # b above or on segment a-p: not a vertex
                hull.pop()
            else:
                break
        hull.append(p)
    return TradeoffCurve(tuple(hull))


def first_crossing(a: TradeoffCurve, b: TradeoffCurve,
                   lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """Smallest M in [lo, hi] where curve a falls strictly below curve b."""
    lo, hi = Fraction(lo), Fraction(hi)
    marks = sorted({lo, hi, *(m for m in a.corner_Ms() if lo <= m <= hi),
                    *(m for m in b.corner_Ms() if lo <= m <= hi)})
    for left, right in zip(marks, marks[1:]):
        fa_l, fb_l = a.value_at(left), b.value_at(left)
        if fa_l < fb_l:
            return left
        fa_r, fb_r = a.value_at(right), b.value_at(right)
        d_l = fa_l - fb_l
        d_r = fa_r - fb_r
        if d_r < 0:
            # both curves are linear on (left, right); find the zero of d
            t = d_l / (d_l - d_r)
            return left + t * (right - left)
    if a.value_at(hi) < b.value_at(hi):
        return hi
    return None
