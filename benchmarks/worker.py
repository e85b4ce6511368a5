"""One pass over a workload's job list, in a fresh process.

    python3 benchmarks/worker.py --workload kuser-gf2 --seed 1 [--trace 0|1] [--setup-only]

The process first imports d2dcache and finishes the workload's lazy set-up
(GF(2^m) tables, or the CLI module), timing that as `setup_s`; with
--setup-only it prints that time as JSON and stops there. It then runs
every job, reads its own peak RSS (for the CLI workload, the largest
child's), and only then checks the outputs, so the checks add neither to
the timed wall time nor to the peak. The last line of stdout is the
pass's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150


class PassContext:
    """What a job may use: timed program calls, CLI children and a work directory."""

    def __init__(self, root: Path, workdir: Path, tracer=None):
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.wall = 0.0
        self.cli_layers: dict[str, float] = {}
        self._children = 0

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - start

    def add_output_bytes(self, n: int) -> None:
        self._add("cli.out_bytes", n)

    def _add(self, key: str, value) -> None:
        self.cli_layers[key] = self.cli_layers.get(key, 0) + value

    def cli(self, kind: str, *args: str) -> subprocess.CompletedProcess:
        """Run `d2dcache <args>` as a child process and wait for it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        trace_out = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "d2dcache.cli", *args]
        else:
            self._children += 1
            trace_out = self.workdir / f"child-{self._children}.trace.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=str(self.root),
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        self._add(f"cli.{kind}_s", elapsed)
        self.add_output_bytes(len(proc.stdout.encode()))
        if trace_out is not None and trace_out.exists():
            self.tracer.merge(json.loads(trace_out.read_text()), prefix=f"c{self._children}.")
            trace_out.unlink()
        return proc


def lazy_setup(workload: str) -> float:
    """Import d2dcache and do the set-up the first job would otherwise pay; returns seconds.

    The benchmark's own modules are imported in between and not timed.
    """
    start = time.perf_counter()
    import d2dcache  # noqa: F401
    if workload == "cli-roundtrip":
        import d2dcache.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if workload == "kuser-gf8":
        from jobs import SIZES
        from d2dcache.field import FieldSpec, min_extension_degree
        start = time.perf_counter()
        spec = FieldSpec(min_extension_degree(SIZES["full"]["kuser"][1]))
        spec.mul(spec.generator(), spec.generator())
        elapsed += time.perf_counter() - start
    return elapsed


def run_pass(workload: str, seed: int, size: str = "full", trace: bool = False,
             reference: dict | None = None, root: Path = ROOT) -> dict:
    """Run every job once, then check each; returns the pass's result."""
    from jobs import Checker, load_reference, make_jobs
    from tracer import SPAN, Tracer

    jobs = make_jobs(workload, seed, size)
    checker = Checker(load_reference() if reference is None else reference)
    workdir = root / ".bench_out" / f"work-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    ctx = PassContext(root, workdir, tracer)
    outcomes = []
    try:
        if tracer is not None:
            tracer.install()
        for job in jobs:
            run = job.run
            if tracer is not None:
                tracer.job = job.name
                run = tracer.wrap(run, "job", SPAN)
            try:
                outcomes.append(run(ctx))
            except Exception as exc:  # a job that raises is a wrong verdict, not a crash
                outcomes.append(exc)
            if tracer is not None:
                tracer.flush_probes()
    finally:
        if tracer is not None:
            tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if workload == "cli-roundtrip" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(who).ru_maxrss / 1024

    results, demands = [], 0
    for job, outcome in zip(jobs, outcomes):
        before = len(checker.problems)
        if isinstance(outcome, Exception):
            problems = [f"{job.name}: raised {type(outcome).__name__}: {outcome}"]
        else:
            demands += outcome.demands
            try:
                outcome.check(checker)
            except Exception as exc:
                checker.problems.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
            problems = checker.problems[before:]
        results.append({"name": job.name, "control": job.control, "ok": not problems,
                        "problems": problems})
    shutil.rmtree(workdir, ignore_errors=True)

    out = {"workload": workload, "seed": seed, "wall_s": ctx.wall, "demands": demands,
           "peak_rss_mib": peak_mib, "jobs": results, "observed": checker.observed}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, ctx.cli_layers)
        out["trace"] = tracer.dump()
    return out


def layer_metrics(tracer, cli_layers: dict) -> dict:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    t, c = tracer.times, tracer.counts
    verify_s = t.get("verify", 0.0)
    accounting_s = t.get("verify.accounting", 0.0)
    out = {
        "field.solve_calls": c.get("field.solve", 0),
        "field.solve_s": t.get("field.solve", 0.0),
        "field.rowspan_ops": c.get("field.rowspan", 0),
        "field.rowspan_s": t.get("field.rowspan", 0.0),
        "field.matrix_builds": c.get("field.matrix_builds", 0),
        "field.stack_s": t.get("field.stack", 0.0),
        "field.matmul_s": t.get("field.matmul", 0.0),
        "catalog.build_s": t.get("catalog.build", 0.0),
        "sharing.memory_share_s": t.get("sharing.memory_share", 0.0),
        "sharing.to_explicit_s": t.get("sharing.to_explicit", 0.0),
        "sharing.sym_verify_s": t.get("sharing.sym_verify", 0.0),
        "adapters.rotate_s": t.get("adapters.rotate", 0.0),
        "adapters.adapt_s": t.get("adapters.adapt", 0.0),
        "model.transmitted_rows_s": t.get("model.transmitted_rows", 0.0),
        "verify.s": verify_s,
        "verify.accounting_s": accounting_s,
        "verify.decode_s": max(verify_s - accounting_s, 0.0),
        "verify.demands": c.get("verify.demands", 0),
        "verify.requester_checks": c.get("verify.requester_checks", 0),
        "verify.failed_demands": c.get("verify.failed_demands", 0),
        "io.dump_s": t.get("io.dump", 0.0),
        "io.load_s": t.get("io.load", 0.0),
        "io.scheme_bytes": c.get("io.scheme_bytes", 0),
        "cli.import_s": t.get("cli.import", 0.0),
    }
    for key in ("cli.verify_s", "cli.export_s", "cli.sweep_s", "cli.rr_compare_s", "cli.out_bytes"):
        out[key] = cli_layers.get(key, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and finish lazy set-up, and print its time")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    setup_s = lazy_setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run_pass(args.workload, args.seed, trace=bool(args.trace))
    result["setup_s"] = setup_s
    if args.trace:
        trace_dir = ROOT / ".bench_out" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps(result.pop("trace")))
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
