"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import jobs
from jobs import WORKLOADS, load_reference, make_jobs
from run import summarize
from worker import run_pass

from conftest import BENCH

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def failed_jobs(result: dict) -> list[str]:
    return [j["name"] for j in result["jobs"] if not j["ok"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_list_runs_end_to_end(workload):
    result = run_pass(workload, seed=3, size="tiny")
    assert failed_jobs(result) == []
    assert result["demands"] > 0 and result["wall_s"] > 0
    assert any(j["control"] for j in result["jobs"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_layer_and_repeats_its_counts(workload):
    first = run_pass(workload, seed=5, size="tiny", trace=True)
    second = run_pass(workload, seed=5, size="tiny", trace=True)
    names = {m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("trace.")}
    assert set(first["layers"]) == names
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    assert first["layers"]["verify.demands"] > 0
    assert first["trace"]["spans"] and failed_jobs(first) == []


def test_counts_that_differ_between_traced_passes_are_reported():
    passes = [dict(run_pass("kuser-gf2", seed=5, size="tiny", trace=traced), traced=traced,
                   trace_file="trace.json") for traced in (False, True, True)]
    assert summarize(passes, trace=True)[2] == []
    passes[2]["layers"]["verify.demands"] += 1
    assert summarize(passes, trace=True)[2] == ["verify.demands"]


def test_tracer_restores_the_program():
    import d2dcache.catalog
    import d2dcache.field
    import d2dcache.io
    before = (d2dcache.field.RowSpan.add, d2dcache.catalog.solve_in_rowspace,
              dict(d2dcache.io._BUILTINS))
    run_pass("2rr1s-transforms", seed=1, size="tiny", trace=True)
    assert before == (d2dcache.field.RowSpan.add, d2dcache.catalog.solve_in_rowspace,
                      dict(d2dcache.io._BUILTINS))


def test_corrupted_reference_digest_is_a_wrong_verdict():
    reference = load_reference()
    key = "verify 2rr1s/half-rate N=4"
    reference[key] = "0" * 64
    result = run_pass("2rr1s-transforms", seed=3, size="tiny", reference=reference)
    assert failed_jobs(result) == ["verify 2rr1s/half-rate N=4"]


def test_flipped_verdict_is_a_wrong_verdict(monkeypatch):
    original = jobs.verify_mod.verify

    def flip_first(scheme, **kwargs):
        report = original(scheme, **kwargs)
        head = dataclasses.replace(report.demands[0], decodable=not report.demands[0].decodable)
        return dataclasses.replace(report, demands=(head,) + report.demands[1:])

    monkeypatch.setattr(jobs.verify_mod, "verify", flip_first)
    result = run_pass("kuser-gf2", seed=3, size="tiny")
    assert len(failed_jobs(result)) == 2


def test_answering_decodable_more_often_fails_the_negative_controls(monkeypatch):
    original = jobs.verify_mod.verify

    def all_decodable(scheme, **kwargs):
        report = original(scheme, **kwargs)
        entries = tuple(dataclasses.replace(e, decodable=True, failed_users=())
                        if e.decodable is False else e for e in report.demands)
        return dataclasses.replace(report, demands=entries)

    monkeypatch.setattr(jobs.verify_mod, "verify", all_decodable)
    for workload in ("kuser-gf8", "2rr1s-transforms"):
        result = run_pass(workload, seed=3, size="tiny")
        controls = [j["name"] for j in result["jobs"] if j["control"]]
        assert failed_jobs(result) == controls


def test_same_seed_same_jobs_and_another_seed_moves_the_broken_demand():
    def params(workload, seed):
        return [(j.name, j.params) for j in make_jobs(workload, seed)]

    for workload in WORKLOADS:
        assert params(workload, 11) == params(workload, 11)
    for workload in ("kuser-gf2", "kuser-gf8", "cli-roundtrip"):
        broken = {dict(j.params)["demand"] for seed in (11, 12)
                  for j in make_jobs(workload, seed) if "demand" in dict(j.params)}
        assert len(broken) == 2
    alphas = {dict(make_jobs("2rr1s-transforms", seed)[1].params)["alpha"] for seed in range(20)}
    assert alphas == {str(a) for a in jobs.ALPHAS}


def test_broken_copy_report_is_derived_exactly():
    from d2dcache import build_kuser_scheme, verify
    from d2dcache.catalog import CornerPointId
    from d2dcache.model import LinearScheme

    scheme = build_kuser_scheme(CornerPointId.KU_MDS, 2, 4, 2)
    demand = (0, 1, 0, 2)
    got = verify(LinearScheme(*jobs.remove_delivery(scheme, demand))).to_json_dict()
    want = jobs.without_delivery(verify(scheme).to_json_dict(), demand)
    assert got == want
    assert jobs.failing_demands(got) == {"0,1,0,2"}


def _run_command(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    proc = _run_command("--workload", "kuser-gf2", "--seed", "2", "--seconds", "0",
                        "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_command("--workload", "kuser-gf2", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
