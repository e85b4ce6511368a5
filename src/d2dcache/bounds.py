"""Converse bound lines, printed corner-point lists, and external curves."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .catalog import CornerPointId as C, corner_value
from .curves import RatePoint, TradeoffCurve, envelope, parse_fraction
from .errors import ConfigurationError, FeasibilityError, InterchangeError

DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class BoundLine:
    """a*M + b*R >= c with b > 0, solvable for the rate."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.b <= 0:
            raise ConfigurationError("bound line needs b > 0")

    def rate_at(self, M: Fraction) -> Fraction:
        return (self.c - self.a * Fraction(M)) / self.b

    def holds(self, M: Fraction, R: Fraction) -> bool:
        return self.a * Fraction(M) + self.b * Fraction(R) >= self.c


def bound_lines_2rr1s(N: int) -> tuple[BoundLine, ...]:
    if N < 2:
        raise ConfigurationError("need N >= 2")
    if N == 2:
        return (BoundLine(18, 8, 25), BoundLine(3, 3, 5), BoundLine(1, 2, 2))
    if N == 3:
        return (BoundLine(6, 4, 13), BoundLine(3, 3, 7), BoundLine(1, 3, 3))
    return (BoundLine(4, N, 3 * N), BoundLine(1, N, N))


def converse_2rr1s(N: int, M) -> Fraction:
    """Optimal worst-case rate lower bound for the one-sender model."""
    M = Fraction(M)
    if M < Fraction(N, 2):
        raise FeasibilityError(
            f"M={M} < N/2={Fraction(N, 2)}: two caches cannot jointly hold every file"
        )
    if M > N:
        raise ConfigurationError(f"M={M} exceeds the library size N={N}")
    return max(Fraction(0), *(line.rate_at(M) for line in bound_lines_2rr1s(N)))


TRADITIONAL_N2_LINES = (BoundLine(2, 1, 3), BoundLine(3, 2, 5), BoundLine(3, 4, 6))


def converse_traditional_n2(M) -> Fraction:
    """Optimal rate lower bound for the traditional 3-user model, N=2."""
    M = Fraction(M)
    if M < Fraction(2, 3):
        raise FeasibilityError(f"M={M} is outside the characterized range [2/3, 2]")
    if M > 2:
        raise ConfigurationError(f"M={M} exceeds the library size 2")
    return max(Fraction(0), *(line.rate_at(M) for line in TRADITIONAL_N2_LINES))


def prop2_bound(N: int, M) -> Fraction:
    """Cut-set style line 3M + 2NR >= 3N for the traditional 3-user model."""
    if N < 2:
        raise ConfigurationError("need N >= 2")
    M = Fraction(M)
    if M < 0:
        raise ConfigurationError("memory is nonnegative")
    return max(Fraction(0), BoundLine(3, 2 * N, 3 * N).rate_at(M))


REGIMES = (
    "2rr1s", "trad_n2", "kuser",
    "rr_ours_r1", "rr_ours_r2", "rr_ours_r3",
    "rr_baseline_r1", "rr_baseline_r2",
)


def paper_corner_points(regime: str, N: Optional[int] = None,
                        K: Optional[int] = None, s: Optional[int] = None) -> list[RatePoint]:
    """The exact printed corner lists for a regime.

    The 2rr1s, rr_ours_r2 and kuser lists are builders' corners
    (`catalog.corner_value`); the rest are cited and stay literal.
    """
    if regime not in REGIMES:
        raise ConfigurationError(f"unknown regime {regime!r}; expected one of {REGIMES}")

    def pts(pairs, tag):
        return [RatePoint(Fraction(m), Fraction(r), tag) for m, r in pairs]

    if regime == "trad_n2":
        return pts([(Fraction(2, 3), Fraction(5, 3)), (1, 1),
                    (Fraction(4, 3), Fraction(1, 2)), (2, 0)], "trad_n2")
    if N is None or N < 2:
        raise ConfigurationError(f"regime {regime} needs N >= 2")
    if regime == "kuser":
        if K is None or s is None or not 1 <= s <= K - 2:
            raise ConfigurationError("regime kuser needs K and 1 <= s <= K-2")
        return pts([corner_value(point, N, K, s) for point in (C.KU_MDS, C.KU_MAN, C.KU_FULL)],
                   "kuser")
    if regime in ("2rr1s", "rr_ours_r2"):
        first = [C.N2_SEVEN_EIGHTHS, C.HALF_RATE] if N == 2 else [C.MDS_HALF]
        if N == 3:
            first.append(C.HALF_RATE)
        return pts([corner_value(point, N) for point in (*first, C.MAN_TWO_THIRDS, C.FULL)],
                   regime)
    if regime == "rr_ours_r1":
        if N == 2:
            pairs = [(1, Fraction(5, 8)), (Fraction(7, 6), Fraction(1, 2)),
                     (Fraction(4, 3), Fraction(1, 3)), (2, 0)]
        elif N == 3:
            pairs = [(Fraction(3, 2), Fraction(1, 2)), (Fraction(11, 6), Fraction(1, 2)),
                     (2, Fraction(1, 3)), (3, 0)]
        else:
            pairs = [(Fraction(N, 2), Fraction(1, 2)), (Fraction(2 * N, 3), Fraction(1, 3)), (N, 0)]
        return pts(pairs, regime)
    if regime == "rr_ours_r3":
        base = paper_corner_points("2rr1s", N)
        return [RatePoint(p.M, Fraction(3, 2) * p.R, "rr_ours_r3") for p in base]
    if regime == "rr_baseline_r1":
        return pts([(Fraction(N, 3), Fraction(2, 3)), (Fraction(2 * N, 3), Fraction(1, 3)), (N, 0)],
                   regime)
    if regime == "rr_baseline_r2":
        return pts([(Fraction(N, 3), Fraction(4, 3)), (Fraction(2 * N, 3), Fraction(1, 2)), (N, 0)],
                   regime)
    raise AssertionError("unreachable")


def load_external_curve(source: Union[str, Path], N: Optional[int] = None) -> TradeoffCurve:
    """Envelope of `M, R` rational pairs from a text file (# comments)."""
    path = Path(source)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InterchangeError(f"cannot read curve file {path}: {exc}") from exc
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise InterchangeError("expected `M, R` pair", line=lineno)
        try:
            M, R = parse_fraction(parts[0]), parse_fraction(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise InterchangeError(f"non-rational entry: {exc}", line=lineno) from exc
        if R < 0:
            raise InterchangeError("negative rate", line=lineno)
        if M <= 0:
            raise InterchangeError("memory must be positive", line=lineno)
        if N is not None and M > N:
            raise InterchangeError(f"M={M} exceeds the library size N={N}", line=lineno)
        points.append(RatePoint(M, R, str(path.name)))
    if not points:
        raise InterchangeError(f"curve file {path} holds no points")
    return envelope(points)


def shipped_curve(name: str) -> Path:
    """Path of a packaged baseline curve file."""
    path = DATA_DIR / name
    if not path.exists():
        raise ConfigurationError(
            f"no shipped curve {name!r}; available: "
            + ", ".join(sorted(p.name for p in DATA_DIR.glob("*.curve")))
        )
    return path
