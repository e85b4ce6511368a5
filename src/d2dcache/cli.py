"""Command-line surface: verify, sweep, rr-compare, export.

Exit codes: 0 success, 1 usage or load error, 2 verification failure.
Rational CSV cells are printed as exact `p/q` strings; probability
averages as decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

from .adapters import average_rate
from .bounds import (
    converse_2rr1s,
    converse_traditional_n2,
    load_external_curve,
    paper_corner_points,
)
from .curves import envelope, parse_fraction
from .errors import D2DCacheError, FeasibilityError
from .io import resolve_scheme, scheme_to_dict
from .verify import verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

# Each sample is one exact Fraction held in memory, so the grid is capped.
MAX_SAMPLES = 10_000

# Encoder pieces joined into one write.  Joining all of them would hold the
# whole document as a list of ~10^5-10^6 small strings plus their join.
# Writing each piece alone is one system call per piece when stdout is
# unbuffered (PYTHONUNBUFFERED=1), which is slower than building the text.
JSON_BATCH = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="d2dcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_args(p):
        p.add_argument("source", help="builtin:<name> or a scheme JSON file path")
        p.add_argument("--N", type=int, default=None, help="number of files")
        p.add_argument("--K", type=int, default=None, help="number of users")
        p.add_argument("--s", type=int, default=None, help="number of designated senders")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="verify a scheme and print its report")
    add_scheme_args(p_verify)

    p_export = sub.add_parser("export", help="emit a scheme's interchange JSON")
    add_scheme_args(p_export)

    p_sweep = sub.add_parser("sweep", help="rate-memory sweep as CSV")
    p_sweep.add_argument("--model", choices=["2rr1s", "trad"], required=True)
    p_sweep.add_argument("--N", type=int, required=True)
    p_sweep.add_argument("--M-min", dest="m_min", default=None, help="rational, e.g. 7/6")
    p_sweep.add_argument("--M-max", dest="m_max", default=None)
    p_sweep.add_argument("--samples", type=int, default=9)
    p_sweep.add_argument("--baseline", action="append", default=[],
                         metavar="NAME=PATH", help="extra curve column from a file")
    p_sweep.add_argument("--out", default=None)

    p_rr = sub.add_parser("rr-compare", help="average worst-case rate comparison as CSV")
    p_rr.add_argument("--p", type=float, required=True, help="request probability in [0,1]")
    p_rr.add_argument("--N", type=int, required=True)
    p_rr.add_argument("--M-min", dest="m_min", default=None)
    p_rr.add_argument("--M-max", dest="m_max", default=None)
    p_rr.add_argument("--samples", type=int, default=9)
    p_rr.add_argument("--baseline", action="append", default=[],
                      metavar="r1|r2|r3=PATH", help="per-r baseline curve files")
    p_rr.add_argument("--out", default=None)

    return parser


@contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """stdout, or a temp file beside `out` that replaces `out` only on success.

    Opened before the command runs, so an unusable `out` fails first, by its own name.
    """
    if out is None:
        yield sys.stdout
        return
    target = Path(out)
    if target.is_dir():
        raise IsADirectoryError(f"is a directory: {out!r}")
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=".d2dcache-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_json(doc: object, out: TextIO) -> None:
    """`json.dumps(doc, indent=2)` and a newline, without ever holding the whole text."""
    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := list(islice(pieces, JSON_BATCH)):
        out.write("".join(batch))
    out.write("\n")


def _parse_baselines(items: Sequence[str]) -> dict[str, str]:
    out = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"--baseline expects NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        out[name.strip()] = path.strip()
    return out


def _sample_grid(lo: Fraction, hi: Fraction, samples: int,
                 corner_Ms: Sequence[Fraction]) -> list[Fraction]:
    if not 2 <= samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must lie in 2..{MAX_SAMPLES}")
    if hi < lo:
        raise UsageError("--M-max must not be below --M-min")
    grid = {lo, hi}
    for i in range(samples):
        grid.add(lo + (hi - lo) * Fraction(i, samples - 1))
    for m in corner_Ms:
        if lo <= m <= hi:
            grid.add(m)
    return sorted(grid)


def cmd_verify(args, out: TextIO) -> int:
    scheme = resolve_scheme(args.source, args.N, args.K, args.s)
    report = verify(scheme)
    _write_json(report.to_json_dict(), out)
    if report.passed:
        return EXIT_OK
    failing = [",".join(str(v) for v in e.demand) for e in report.demands if not e.decodable]
    print(
        "verification failed: "
        + (f"undecodable demands: {'; '.join(failing)}" if failing
           else "feasibility flags not satisfied"),
        file=sys.stderr,
    )
    return EXIT_VERIFY_FAILED


def cmd_export(args, out: TextIO) -> int:
    scheme = resolve_scheme(args.source, args.N, args.K, args.s)
    _write_json(scheme_to_dict(scheme), out)
    return EXIT_OK


def cmd_sweep(args, out: TextIO) -> int:
    model, N = args.model, args.N
    if model == "trad" and N != 2:
        raise UsageError("the traditional-model sweep is characterized only for --N 2")
    if model == "2rr1s":
        curve = envelope(paper_corner_points("2rr1s", N))
        converse = lambda M: converse_2rr1s(N, M)
    else:
        curve = envelope(paper_corner_points("trad_n2"))
        converse = converse_traditional_n2
    lo = parse_fraction(args.m_min) if args.m_min else curve.min_M
    hi = parse_fraction(args.m_max) if args.m_max else curve.max_M
    if lo < curve.min_M or hi > curve.max_M:
        raise UsageError(
            f"M range [{lo}, {hi}] outside the feasible range [{curve.min_M}, {curve.max_M}]"
        )

    baselines = _parse_baselines(args.baseline)
    loaded = {name: load_external_curve(path, N) for name, path in baselines.items()}

    corner_Ms = list(curve.corner_Ms())
    for c in loaded.values():
        corner_Ms.extend(c.corner_Ms())
    grid = _sample_grid(lo, hi, args.samples, corner_Ms)

    header = ["M", "R_achievable", "R_converse"] + [f"baseline_{n}" for n in sorted(loaded)]
    lines = [",".join(header)]
    for M in grid:
        row = [str(M), str(curve.value_at(M)), str(converse(M))]
        for name in sorted(loaded):
            c = loaded[name]
            row.append(str(c.value_at(M)) if M >= c.min_M else "")
        lines.append(",".join(row))
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_rr_compare(args, out: TextIO) -> int:
    if not 0 <= args.p <= 1:
        raise UsageError("--p must lie in [0, 1]")
    N = args.N
    baselines = _parse_baselines(args.baseline)
    missing = [r for r in ("r1", "r2", "r3") if r not in baselines]
    if missing:
        raise UsageError(f"missing baseline file(s) for {', '.join(missing)}")
    base_curves = {r: load_external_curve(baselines[r], N) for r in ("r1", "r2", "r3")}
    ours = {
        1: envelope(paper_corner_points("rr_ours_r1", N)),
        2: envelope(paper_corner_points("rr_ours_r2", N)),
        3: envelope(paper_corner_points("rr_ours_r3", N)),
    }

    lo_default = max(c.min_M for c in ours.values())
    lo = parse_fraction(args.m_min) if args.m_min else lo_default
    hi = parse_fraction(args.m_max) if args.m_max else Fraction(N)
    corner_Ms = [m for c in ours.values() for m in c.corner_Ms()]
    corner_Ms += [m for c in base_curves.values() for m in c.corner_Ms()]
    grid = _sample_grid(lo, hi, args.samples, corner_Ms)

    lines = ["M,avg_ours,avg_baseline"]
    for M in grid:
        rates_ours = {0: Fraction(0)}
        rates_base = {0: Fraction(0)}
        try:
            for r in (1, 2, 3):
                rates_ours[r] = ours[r].value_at(M)
                rates_base[r] = base_curves[f"r{r}"].value_at(M)
        except FeasibilityError:
            continue
        avg_ours = average_rate(args.p, rates_ours)
        avg_base = average_rate(args.p, rates_base)
        lines.append(f"{M},{avg_ours:.15g},{avg_base:.15g}")
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "export": cmd_export,
    "sweep": cmd_sweep,
    "rr-compare": cmd_rr_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _output(args.out) as out:
            return _COMMANDS[args.command](args, out)
    except (UsageError, D2DCacheError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
