"""Seeded job lists of the d2dcache benchmark and their known answers.

A job takes one part of the pipeline from scheme spec to final report. It
calls the program through a pass context, which times those calls, and
returns an Outcome whose check compares the output with two kinds of
answer:

- independent answers: the builders' advertised corners (`corner_value`),
  the documented failure set of rotated man-2-3 ({d1 = d3}), and the
  seeded broken copies, whose expected report is derived exactly from the
  valid one;
- regression answers: the sha256 of each report's canonical
  `to_json_dict()` (or CLI output), recorded in reference.json.

Jobs call the program through module attributes (`catalog.build_...`,
`verify_mod.verify`) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from d2dcache import adapters, catalog, sharing
from d2dcache.catalog import CornerPointId
from d2dcache.field import FieldMatrix
from d2dcache.model import LinearScheme, ModelKind, SenderSignal, enumerate_demands, requesters_of

# `d2dcache.verify` is rebound to the function by the package, so fetch the module.
verify_mod = importlib.import_module("d2dcache.verify")

WORKLOADS = ("kuser-gf2", "kuser-gf8", "2rr1s-transforms", "cli-roundtrip")

# "full" is what the benchmark measures; "tiny" keeps every job's shape at
# sizes small enough for the benchmark's own tests.
SIZES = {
    "full": {
        "kuser": (4, 7, 3),
        "half_rate_N": 12,
        "share_N": 8,
        "sym_N": 3,
        "rotate_N": 8,
        "adapt_N": 6,
        "control_N": 6,
        "cli_verify": (4, 6, 2),
        "cli_export": (4, 7, 3),
        "sweep_N": 8,
    },
    "tiny": {
        "kuser": (2, 6, 3),
        "half_rate_N": 4,
        "share_N": 2,
        "sym_N": 2,
        "rotate_N": 2,
        "adapt_N": 2,
        "control_N": 2,
        "cli_verify": (2, 4, 2),
        "cli_export": (2, 5, 2),
        "sweep_N": 4,
    },
}

# Each alpha is applied both ways round (half-rate first, then man-2-3
# first). With alpha in {2/5, 3/5} both seeds then build the same two block
# layouts, 6 half-rate + 18 man-2-3 blocks and 9 + 12, in swapped order, so
# the seed moves the reports but not the work or the peak memory. Every
# composite has 5*6*3 = 90 slots per file.
ALPHAS = (Fraction(2, 5), Fraction(3, 5))

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())


def digest(doc) -> str:
    """sha256 of a JSON document in canonical form (sorted keys, no spaces)."""
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Collects every difference between the program's output and the reference."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.observed: dict[str, str] = {}
        self.problems: list[str] = []

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")

    def matches_reference(self, key: str, doc) -> None:
        got = digest(doc)
        self.observed[key] = got
        want = self.reference.get(key)
        if want is None:
            self.problems.append(f"{key}: no reference digest")
        elif got != want:
            self.problems.append(f"{key}: digest {got[:12]} differs from reference {want[:12]}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


@dataclass(frozen=True)
class Outcome:
    demands: int                       # demands decided (verified or found failing)
    check: Callable[[Checker], None]   # runs after timing; adds any mismatch to the checker


@dataclass(frozen=True)
class Job:
    name: str
    params: tuple                      # seeded inputs; equal seeds give equal params
    run: Callable[[object], Outcome]   # takes the pass context
    control: bool = False              # a negative control: its verdict must be "fails"


def demand_key(d) -> str:
    return ",".join(str(v) for v in d)


def failing_demands(doc: dict) -> set[str]:
    return {e["demand"] for e in doc["demands"] if not e["decodable"]}


def without_delivery(valid: dict, demand) -> dict:
    """The report of `valid`'s scheme after every delivery row of `demand` is removed.

    That demand then sends nothing, so each of its requesters fails and its
    rate drops to 0; every other entry is unchanged.
    """
    key = demand_key(demand)
    entries = []
    for e in valid["demands"]:
        if e["demand"] == key:
            e = dict(e, rate="0", sender_rows={k: 0 for k in e["sender_rows"]},
                     decodable=False, failed_users=list(requesters_of(demand)))
        entries.append(e)
    rates = [Fraction(e["rate"]) for e in entries if e["rate"] is not None]
    worst = max(rates, default=Fraction(0))
    return dict(valid, demands=entries, all_decodable=False, passed=False,
                worst_case_rate=str(worst))


def remove_delivery(scheme: LinearScheme, demand) -> tuple:
    """Constructor arguments of `scheme` with every delivery row of `demand` removed."""
    delivery = dict(scheme.delivery)
    delivery[demand] = {
        k: SenderSignal(FieldMatrix.empty(scheme.field, scheme.placement_rows(k)))
        for k in delivery[demand]
    }
    return (scheme.model, scheme.N, scheme.K, scheme.s, scheme.L, scheme.field,
            scheme.placement, delivery)


def _expect_corner(chk: Checker, what: str, doc: dict, memory: Fraction, rate: Fraction,
                   passed: bool = True) -> None:
    chk.expect(f"{what} memory", doc["memory"], [str(memory)] * doc["K"])
    chk.expect(f"{what} worst_case_rate", doc["worst_case_rate"], str(rate))
    chk.expect(f"{what} passed", doc["passed"], passed)


def _expect_doc(chk: Checker, what: str, got: dict, want: dict) -> None:
    if got == want:
        return
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    first = next((f"{a['demand']}" for a, b in zip(got.get("demands", []), want.get("demands", []))
                  if a != b), None)
    chk.problems.append(f"{what}: report differs in {keys}"
                        + (f", first at demand {first}" if first else ""))


# ---------------------------------------------------------------------------
# kuser-gf2 / kuser-gf8: one large K-user scheme and a seeded broken copy
# ---------------------------------------------------------------------------

def _kuser_jobs(point: CornerPointId, size: dict, rng: random.Random) -> list[Job]:
    N, K, s = size["kuser"]
    tag = f"kuser/{'man' if point is CornerPointId.KU_MAN else 'mds'} N={N} K={K} s={s}"
    broken = rng.choice(enumerate_demands(ModelKind.K_USER_S_SENDERS, N, K, s))
    state: dict = {}

    def valid(ctx) -> Outcome:
        scheme = ctx.call(catalog.build_kuser_scheme, point, N, K, s)
        report = ctx.call(verify_mod.verify, scheme)
        state["scheme"] = scheme

        def check(chk: Checker) -> None:
            doc = state["doc"] = report.to_json_dict()
            chk.matches_reference(f"verify {tag}", doc)
            memory, rate = catalog.corner_value(point, N, K, s)
            _expect_corner(chk, tag, doc, memory, rate)

        return Outcome(len(report.demands), check)

    def control(ctx) -> Outcome:
        copy = ctx.call(LinearScheme, *remove_delivery(state.pop("scheme"), broken))
        report = ctx.call(verify_mod.verify, copy)

        def check(chk: Checker) -> None:
            doc = report.to_json_dict()
            chk.expect(f"{tag} broken: failing demands", failing_demands(doc), {demand_key(broken)})
            _expect_doc(chk, f"{tag} broken", doc, without_delivery(state["doc"], broken))

        return Outcome(len(report.demands), check)

    return [
        Job(f"verify {tag}", (), valid),
        Job(f"verify {tag}, delivery of one demand removed", (("demand", broken),), control,
            control=True),
    ]


# ---------------------------------------------------------------------------
# 2rr1s-transforms: small schemes pushed through every transform
# ---------------------------------------------------------------------------

def _build(ctx, point: CornerPointId, N: int) -> LinearScheme:
    return ctx.call(catalog.build_2rr1s_scheme, point, N)


def _transform_jobs(size: dict, rng: random.Random) -> list[Job]:
    hr_N, share_N, sym_N = size["half_rate_N"], size["share_N"], size["sym_N"]
    rot_N, adapt_N, ctl_N = size["rotate_N"], size["adapt_N"], size["control_N"]
    alpha = rng.choice(ALPHAS)
    HR, MAN, MDS = CornerPointId.HALF_RATE, CornerPointId.MAN_TWO_THIRDS, CornerPointId.MDS_HALF

    def half_rate(ctx) -> Outcome:
        report = ctx.call(verify_mod.verify, _build(ctx, HR, hr_N))

        def check(chk: Checker) -> None:
            doc = report.to_json_dict()
            chk.matches_reference(f"verify 2rr1s/half-rate N={hr_N}", doc)
            _expect_corner(chk, "half-rate", doc, *catalog.corner_value(HR, hr_N))

        return Outcome(len(report.demands), check)

    def shared(first: CornerPointId, second: CornerPointId) -> Callable:
        def run(ctx) -> Outcome:
            a, b = _build(ctx, first, share_N), _build(ctx, second, share_N)
            mix = ctx.call(sharing.memory_share, a, b, alpha)
            report = ctx.call(verify_mod.verify, mix)

            def check(chk: Checker) -> None:
                doc = report.to_json_dict()
                what = f"memory_share({first.value}, {second.value}, {alpha}) N={share_N}"
                chk.matches_reference(f"verify {what}", doc)
                (ma, ra), (mb, rb) = (catalog.corner_value(first, share_N),
                                      catalog.corner_value(second, share_N))
                rate = alpha * ra + (1 - alpha) * rb
                _expect_corner(chk, what, doc, alpha * ma + (1 - alpha) * mb, rate)
                chk.expect(f"{what} per-demand rates", {e["rate"] for e in doc["demands"]},
                           {str(rate)})

            return Outcome(len(report.demands), check)

        return run

    def symmetrized(ctx) -> Outcome:
        sym = ctx.call(sharing.symmetrize, _build(ctx, HR, sym_N))
        lazy = ctx.call(verify_mod.verify, sym, check_decodability=False)
        full = ctx.call(verify_mod.verify, ctx.call(sym.to_explicit))

        def check(chk: Checker) -> None:
            lazy_doc, full_doc = lazy.to_json_dict(), full.to_json_dict()
            chk.matches_reference(f"verify symmetrize(half-rate) N={sym_N} lazily", lazy_doc)
            chk.matches_reference(f"verify symmetrize(half-rate) N={sym_N} explicitly", full_doc)
            memory, rate = catalog.corner_value(HR, sym_N)
            chk.expect("symmetrized memory", full_doc["memory"], [str(memory)] * 3)
            chk.expect("symmetrized passed", full_doc["passed"], True)
            chk.expect("symmetrized worst rate is at most the base's",
                       Fraction(full_doc["worst_case_rate"]) <= rate, True)
            chk.expect("lazy and explicit rates agree", lazy.rate_table(), full.rate_table())
            chk.expect("lazy and explicit memory agree", lazy_doc["memory"], full_doc["memory"])

        return Outcome(len(full.demands), check)

    def rotated(ctx) -> Outcome:
        rotated_scheme = ctx.call(adapters.rotate_2rr1s, _build(ctx, MDS, rot_N))
        report = ctx.call(verify_mod.verify, rotated_scheme)

        def check(chk: Checker) -> None:
            doc = report.to_json_dict()
            chk.matches_reference(f"verify rotate_2rr1s(mds-half) N={rot_N}", doc)
            memory, rate = catalog.corner_value(MDS, rot_N)
            _expect_corner(chk, "rotate(mds-half)", doc, memory, rate * Fraction(3, 2))

        return Outcome(len(report.demands), check)

    def adapted(point: CornerPointId, N: int, per_r_worst: dict, passes: bool) -> Callable:
        def run(ctx) -> Outcome:
            adaptation = ctx.call(adapters.adapt_request_random, _build(ctx, point, N))
            report = ctx.call(verify_mod.verify, adaptation.scheme)

            def check(chk: Checker) -> None:
                doc = report.to_json_dict()
                chk.matches_reference(f"verify adapt_request_random({point.value}) N={N}", doc)
                chk.expect(f"adapt({point.value}) per_r_worst", dict(adaptation.per_r_worst),
                           per_r_worst)
                chk.expect(f"adapt({point.value}) passed", doc["passed"], passes)
                if not passes:
                    # r = 3 demands inherit the rotation gap of cross-file coded placements
                    want = {e["demand"] for e in doc["demands"]
                            if "0" not in e["demand"].split(",")}
                    chk.expect(f"adapt({point.value}) failing demands", failing_demands(doc), want)

            return Outcome(len(report.demands), check)

        return run

    def rotated_man(ctx) -> Outcome:
        rotated_scheme = ctx.call(adapters.rotate_2rr1s, _build(ctx, MAN, ctl_N))
        report = ctx.call(verify_mod.verify, rotated_scheme)

        def check(chk: Checker) -> None:
            doc = report.to_json_dict()
            chk.matches_reference(f"verify rotate_2rr1s(man-2-3) N={ctl_N}", doc)
            want = {demand_key(d) for d in enumerate_demands(ModelKind.TRADITIONAL_D2D, ctl_N, 3, 0)
                    if d[0] == d[2]}
            chk.expect("rotate(man-2-3) failing demands", failing_demands(doc), want)
            memory, rate = catalog.corner_value(MAN, ctl_N)
            _expect_corner(chk, "rotate(man-2-3)", doc, memory, rate * Fraction(3, 2), passed=False)

        return Outcome(len(report.demands), check)

    F = Fraction
    return [
        Job(f"verify 2rr1s/half-rate N={hr_N}", (), half_rate),
        Job(f"memory_share(half-rate, man-2-3) N={share_N}", (("alpha", str(alpha)),),
            shared(HR, MAN)),
        Job(f"memory_share(man-2-3, half-rate) N={share_N}", (("alpha", str(alpha)),),
            shared(MAN, HR)),
        Job(f"symmetrize(half-rate) N={sym_N}", (), symmetrized),
        Job(f"rotate_2rr1s(mds-half) N={rot_N}", (), rotated),
        Job("adapt_request_random(n2-7-8) N=2", (),
            adapted(CornerPointId.N2_SEVEN_EIGHTHS, 2,
                    {0: F(0), 1: F(5, 8), 2: F(7, 8), 3: F(21, 16)}, passes=False),
            control=True),
        Job(f"adapt_request_random(mds-half) N={adapt_N}", (),
            adapted(MDS, adapt_N, {0: F(0), 1: F(1, 2), 2: F(1), 3: F(3, 2)}, passes=True)),
        Job(f"rotate_2rr1s(man-2-3) N={ctl_N}", (), rotated_man, control=True),
    ]


# ---------------------------------------------------------------------------
# cli-roundtrip: the CLI as a user runs it, one child process at a time
# ---------------------------------------------------------------------------

def _cli_jobs(size: dict, rng: random.Random) -> list[Job]:
    vN, vK, vs = size["cli_verify"]
    eN, eK, es = size["cli_export"]
    sweep_N = size["sweep_N"]
    export_tag = f"kuser/man N={eN} K={eK} s={es}"
    broken = rng.choice(enumerate_demands(ModelKind.K_USER_S_SENDERS, eN, eK, es))
    cut = rng.randrange(64, 4096)
    state: dict = {}

    def cli_verify(ctx) -> Outcome:
        proc = ctx.cli("verify", "verify", "builtin:kuser/mds", "--N", str(vN), "--K", str(vK),
                       "--s", str(vs))

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 0)
            doc = json.loads(proc.stdout)
            tag = f"kuser/mds N={vN} K={vK} s={vs}"
            chk.matches_reference(f"verify {tag}", doc)
            _expect_corner(chk, tag, doc, *catalog.corner_value(CornerPointId.KU_MDS, vN, vK, vs))

        return Outcome(_count_demands(proc.stdout), check)

    def cli_export(ctx) -> Outcome:
        path = state["export"] = ctx.workdir / "export.json"
        proc = ctx.cli("export", "export", "builtin:kuser/man", "--N", str(eN), "--K", str(eK),
                       "--s", str(es), "--out", str(path))
        ctx.add_output_bytes(path.stat().st_size if path.exists() else 0)

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 0)
            chk.matches_reference(f"export {export_tag}", json.loads(path.read_text()))

        return Outcome(0, check)

    def cli_verify_file(ctx) -> Outcome:
        proc = ctx.cli("verify", "verify", str(state["export"]))

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 0)
            doc = state["doc"] = json.loads(proc.stdout)
            chk.matches_reference(f"verify {export_tag}", doc)
            _expect_corner(chk, export_tag, doc,
                           *catalog.corner_value(CornerPointId.KU_MAN, eN, eK, es))

        return Outcome(_count_demands(proc.stdout), check)

    def cli_sweep(ctx) -> Outcome:
        proc = ctx.cli("sweep", "sweep", "--model", "2rr1s", "--N", str(sweep_N))

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 0)
            chk.expect("sweep header", proc.stdout.split("\n", 1)[0], "M,R_achievable,R_converse")
            chk.matches_reference(f"sweep 2rr1s N={sweep_N}", proc.stdout)

        return Outcome(0, check)

    def cli_rr_compare(ctx) -> Outcome:
        data = ctx.root / "src" / "d2dcache" / "data"
        curves = [f"--baseline=r{r}={data / f'rr_baseline_r{r}_n30.curve'}" for r in (1, 2, 3)]
        proc = ctx.cli("rr_compare", "rr-compare", "--p", "0.59", "--N", "30", *curves)

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 0)
            chk.expect("rr-compare header", proc.stdout.split("\n", 1)[0],
                       "M,avg_ours,avg_baseline")
            chk.matches_reference("rr-compare p=0.59 N=30", proc.stdout)

        return Outcome(0, check)

    def cli_broken(ctx) -> Outcome:
        doc = json.loads(state["export"].read_text())
        senders = doc["delivery"][demand_key(broken)]
        doc["delivery"][demand_key(broken)] = {k: [] for k in senders}
        path = ctx.workdir / "broken.json"
        path.write_text(json.dumps(doc))
        proc = ctx.cli("verify", "verify", str(path))

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 2)
            chk.expect("stderr names the failing demand",
                       proc.stderr.strip().endswith(f"undecodable demands: {demand_key(broken)}"),
                       True)
            _expect_doc(chk, f"{export_tag} broken", json.loads(proc.stdout),
                        without_delivery(state["doc"], broken))

        return Outcome(_count_demands(proc.stdout), check)

    def cli_malformed(ctx) -> Outcome:
        path = ctx.workdir / "malformed.json"
        path.write_text(state["export"].read_text()[:cut])
        proc = ctx.cli("verify", "verify", str(path))

        def check(chk: Checker) -> None:
            chk.expect("exit code", proc.returncode, 1)
            chk.expect("stderr is one error line", proc.stderr.startswith("error: not valid JSON")
                       and "Traceback" not in proc.stderr, True)

        return Outcome(0, check)

    return [
        Job(f"d2dcache verify builtin:kuser/mds N={vN} K={vK} s={vs}", (), cli_verify),
        Job(f"d2dcache export builtin:{export_tag}", (), cli_export),
        Job(f"d2dcache verify <export of {export_tag}>", (), cli_verify_file),
        Job(f"d2dcache sweep --model 2rr1s --N {sweep_N}", (), cli_sweep),
        Job("d2dcache rr-compare --p 0.59 --N 30 (shipped curves)", (), cli_rr_compare),
        Job(f"d2dcache verify <export with delivery of one demand removed>",
            (("demand", broken),), cli_broken, control=True),
        Job("d2dcache verify <truncated export>", (("cut", cut),), cli_malformed, control=True),
    ]


def _count_demands(stdout: str) -> int:
    try:
        return len(json.loads(stdout)["demands"])
    except (ValueError, KeyError, TypeError):
        return 0


def make_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of a workload; the seed picks the broken demands, alpha and the cut."""
    rng = random.Random(f"{workload}/{seed}")
    sizes = SIZES[size]
    if workload == "kuser-gf2":
        return _kuser_jobs(CornerPointId.KU_MAN, sizes, rng)
    if workload == "kuser-gf8":
        return _kuser_jobs(CornerPointId.KU_MDS, sizes, rng)
    if workload == "2rr1s-transforms":
        return _transform_jobs(sizes, rng)
    if workload == "cli-roundtrip":
        return _cli_jobs(sizes, rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
