"""Record the regression digests in reference.json from the current sources.

    python3 benchmarks/record.py

Runs every workload at both sizes, over enough seeds to meet every seeded
input that has a digest of its own (each memory_share alpha), and stores
the sha256 of every report and CLI output. It refuses to record when any
independent answer (corner values, failure sets, broken-copy reports)
disagrees, so only a digest can be missing from a pass it records.
Record only at a commit whose reports are known to be right.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from jobs import ALPHAS, REFERENCE_PATH, WORKLOADS, make_jobs  # noqa: E402
from worker import run_pass  # noqa: E402


def seeds_covering_alphas(size: str) -> list[int]:
    seeds, seen = [], set()
    seed = 0
    while len(seen) < len(ALPHAS):
        alpha = dict(make_jobs("2rr1s-transforms", seed, size)[1].params)["alpha"]
        if alpha not in seen:
            seen.add(alpha)
            seeds.append(seed)
        seed += 1
    return seeds


def main() -> int:
    observed: dict[str, str] = {}
    for size in ("tiny", "full"):
        for workload in WORKLOADS:
            seeds = seeds_covering_alphas(size) if workload == "2rr1s-transforms" else [0]
            for seed in seeds:
                result = run_pass(workload, seed, size, reference={})
                for job in result["jobs"]:
                    other = [p for p in job["problems"] if not p.endswith("no reference digest")]
                    if other:
                        print(f"{workload} {size} seed {seed}: {job['name']}: {other}",
                              file=sys.stderr)
                        return 1
                observed.update(result["observed"])
                print(f"{workload} {size} seed {seed}: {len(result['observed'])} digests")
    REFERENCE_PATH.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(observed)} digests to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
