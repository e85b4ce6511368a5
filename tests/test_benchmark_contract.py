"""The benchmark's workloads still run on the package, at tiny sizes.

`benchmarks/jobs.py` calls package functions by name and checks each
report against a digest in `benchmarks/reference.json`.  The in-process
workloads run with two seeds, which pick different broken demands and, in
2rr1s-transforms, a different share weight; a verdict that leaks from a
valid scheme into its broken copy fails one of them.  Running those
jobs here means a package change that breaks a job, or moves a report,
fails the package's own tests and not only `benchmarks/tests`.
cli-roundtrip runs its CLI children from a root whose `src` links to this
package: their stdout digests, exit codes and one-line stderr are checked.
"""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "benchmarks"


RUNS = [(workload, seed) for seed in (1, 2)
        for workload in ("kuser-gf2", "kuser-gf8", "2rr1s-transforms")]


@pytest.mark.parametrize("workload,seed", RUNS,
                         ids=[w if seed == 1 else f"{w}-seed{seed}" for w, seed in RUNS])
def test_every_in_process_job_passes_its_checks(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from worker import run_pass

    result = run_pass(workload, seed=seed, size="tiny", root=tmp_path)
    failed = {job["name"]: job["problems"] for job in result["jobs"] if not job["ok"]}
    assert failed == {}
    assert result["jobs"]


def test_every_cli_job_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from worker import run_pass

    (tmp_path / "src").symlink_to(REPO / "src")
    result = run_pass("cli-roundtrip", seed=1, size="tiny", root=tmp_path)
    failed = {job["name"]: job["problems"] for job in result["jobs"] if not job["ok"]}
    assert failed == {}
    assert result["jobs"]
