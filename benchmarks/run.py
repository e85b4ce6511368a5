"""The d2dcache benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload kuser-gf2 --seed 1 --seconds 20 --trace 0

Passes over the workload's job list run one after another, each in a fresh
worker process (closed loop, no pools), until --seconds have passed and at
least MIN_PASSES have run. Every pass is checked against the known
answers. With --trace 0 the end-to-end metrics are medians over the
passes; each pass's set-up time is the fastest of SETUP_SAMPLES fresh
processes, so a busy neighbour on a shared machine does not set it. With
--trace 1 untraced and traced passes alternate, and the per-layer metrics
come from the traced ones, together with the tracing overhead; counts that
differ between traced passes make the run incorrect. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_SAMPLES = 5         # fresh-process set-ups per untraced pass, the pass's own included
DEADLINE_S = 160          # start no pass that could end after this


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_worker(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop of worker passes; in trace mode untraced and traced passes alternate.

    Once the minimum has run, a pass starts only if a typical pass still
    fits in --seconds, so runs end close to --seconds.
    """
    passes: list[dict] = []
    took: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(took) if took else 0.0
        if len(passes) >= (2 if trace else MIN_PASSES) and elapsed + typical > seconds:
            return passes
        if passes and elapsed + 2 * max(took) > DEADLINE_S:
            return passes
        traced = trace and len(passes) % 2 == 1
        timeout = DEADLINE_S + 15 - elapsed
        begun = time.perf_counter()
        setups = [] if trace else [run_worker(workload, seed, timeout, "--setup-only")["setup_s"]
                                   for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(workload, seed, timeout, "--trace", str(int(traced)))
        took.append(time.perf_counter() - begun)
        if not trace:
            result["setup_s"] = min(setups + [result["setup_s"]])
        result["traced"] = traced
        passes.append(result)


def summarize(passes: list[dict], trace: bool) -> tuple[dict, list[str], list[str]]:
    """Metrics with units, human-readable notes, and the counts that did not repeat."""
    notes, unsteady = [], []
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        samples = {
            "wall_s": [p["wall_s"] for p in plain],
            "demands_per_s": [p["demands"] / p["wall_s"] for p in plain],
            "peak_rss_mib": [p["peak_rss_mib"] for p in plain],
            "setup_s": [p["setup_s"] for p in plain],
        }
        for name, values in samples.items():
            notes.append(f"{name}: median of {len(values)} passes, "
                         f"range {min(values):.6g} to {max(values):.6g}")
        notes[-1] += f", each the fastest of {SETUP_SAMPLES} set-ups"
        units = metric_units("end_to_end")
        return {k: {"value": statistics.median(v), "unit": units[k]}
                for k, v in samples.items()}, notes, unsteady
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        if name.startswith("trace."):
            continue
        values = [p["layers"][name] for p in traced]
        if unit == "s":
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        else:
            if len(set(values)) != 1:
                unsteady.append(name)
                notes.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    notes.extend(f"trace written to {p['trace_file']}" for p in traced)
    return metrics, notes, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "d2dcache" / "__init__.py").is_file():
        print(f"error: no d2dcache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    controls = [j for j in jobs if j["control"] and j["ok"]]
    metrics, notes, unsteady = summarize(passes, bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wrong_verdict_ratio':28s} {len(failed)}/{len(jobs)}")
    print(f"  negative controls failing as expected: {len(controls)}")
    for line in notes + sorted({p for j in failed for p in j["problems"]})[:20]:
        print(f"  {line}")
    print(json.dumps({"correct": not failed and not unsteady, "attempted": len(jobs),
                      "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
