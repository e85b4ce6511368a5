"""Interchange round-trips and the command-line surface."""

import io
import json
import sys
import time
from fractions import Fraction

import pytest

from d2dcache.adapters import adapt_request_random, rotate_2rr1s
from d2dcache.catalog import CornerPointId
from d2dcache import cli
from d2dcache.cli import MAX_SAMPLES, main
from d2dcache.errors import InterchangeError
from d2dcache.io import (
    builtin_names,
    dump_scheme,
    load_scheme_text,
    resolve_scheme,
    scheme_to_dict,
)
from d2dcache.sharing import memory_share
from d2dcache.verify import verify

from conftest import TWO_RR_POINTS, cached_2rr1s, cached_kuser, cached_traditional


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda: cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2),
    lambda: cached_2rr1s(CornerPointId.HALF_RATE, 3),
    lambda: cached_traditional(),
    lambda: cached_kuser(CornerPointId.KU_MDS, 4, 5, 2),
])
def test_round_trip_preserves_report(maker):
    scheme = maker()
    reloaded = load_scheme_text(dump_scheme(scheme))
    assert verify(reloaded) == verify(scheme)


def test_export_shape_of_half_rate_n3():
    doc = scheme_to_dict(cached_2rr1s(CornerPointId.HALF_RATE, 3))
    assert doc["model"] == "2rr1s"
    assert doc["L"] == 6
    assert len(doc["placement"]) == 3
    assert all(len(P) == 11 for P in doc["placement"])
    assert len(doc["delivery"]) == 27
    assert set(doc["delivery"]["0,1,2"]) == {"1"}


def test_export_traditional_shape():
    doc = scheme_to_dict(cached_traditional())
    assert doc["L"] == 6
    assert all(len(P) == 6 for P in doc["placement"])
    assert set(doc["delivery"]["1,1,1"]) == {"1", "2", "3"}


def _set_entry(rows, value):
    rows[0][0] = value(rows[0][0])


# (name, change to a valid mds-half N=2 document, text the error must hold)
BAD_DOCUMENTS = [
    ("missing-L", lambda doc: doc.pop("L"), "field: L"),
    ("unknown-model", lambda doc: doc.update(model="unknown"), "field: model"),
    ("model-list", lambda doc: doc.update(model=["2rr1s"]), "field: model"),
    ("short-row", lambda doc: doc["placement"][0].__setitem__(0, [9, 9]), "placement[1]"),
    ("float-entry", lambda doc: _set_entry(doc["placement"][0], lambda v: v + 0.9),
     "field: placement[1]"),
    ("bool-entry", lambda doc: _set_entry(doc["delivery"]["0,1,1"]["1"], bool),
     "field: delivery[0,1,1][1]"),
    ("string-entry", lambda doc: _set_entry(doc["delivery"]["0,1,1"]["1"], lambda v: "one"),
     "field: delivery[0,1,1][1]"),
    ("file-outside-N",
     lambda doc: doc["delivery"].__setitem__("0,9,1", doc["delivery"].pop("0,1,1")),
     "outside 1..2"),
    # a second spelling of a demand or sender would silently replace the first's delivery
    ("aliased-demand-key",
     lambda doc: doc["delivery"].__setitem__("00,1,1", doc["delivery"]["0,1,1"]),
     "field: delivery"),
    ("spaced-demand-key",
     lambda doc: doc["delivery"].__setitem__("0, 1,1", doc["delivery"].pop("0,1,1")),
     "field: delivery"),
    ("aliased-sender-key",
     lambda doc: doc["delivery"]["0,1,1"].__setitem__("01", doc["delivery"]["0,1,1"].pop("1")),
     "field: delivery[0,1,1]"),
    ("spaced-sender-key",
     lambda doc: doc["delivery"]["0,1,1"].__setitem__(" 1", doc["delivery"]["0,1,1"].pop("1")),
     "field: delivery[0,1,1]"),
    # degrees outside 1..16 are refused before any field is built
    ("field-m-zero", lambda doc: doc.update(field_m=0), "field: field_m"),
    ("field-m-17", lambda doc: doc.update(field_m=17), "field: field_m"),
    ("field-m-huge", lambda doc: doc.update(field_m=10 ** 6), "field: field_m"),
    # sizes below 1 are refused before any matrix is built
    ("L-zero", lambda doc: doc.update(L=0, placement=[[], [], []], delivery={}), "field: L"),
    ("L-negative", lambda doc: doc.update(L=-1, placement=[[], [], []], delivery={}),
     "field: L"),
    # a tiny document may still name more symbols than any row span should hold
    ("L-huge", lambda doc: doc.update(L=10 ** 6, placement=[[], [], []], delivery={}),
     "field: L"),
    ("K-zero", lambda doc: doc.update(model="traditional", K=0, s=0, placement=[], delivery={}),
     "field: K"),
    ("N-zero", lambda doc: doc.update(N=0), "field: N"),
    ("N-negative", lambda doc: doc.update(N=-1, placement=[[], [], []], delivery={}),
     "field: N"),
]


def _bad_document(change):
    doc = scheme_to_dict(cached_2rr1s(CornerPointId.MDS_HALF, 2))
    change(doc)
    return json.dumps(doc)


def test_loader_names_bad_fields():
    for _, change, expected in BAD_DOCUMENTS:
        with pytest.raises(InterchangeError) as err:
            load_scheme_text(_bad_document(change))
        assert expected in str(err.value)

    with pytest.raises(InterchangeError):
        load_scheme_text("not json")

    text = _bad_document(lambda doc: None)
    with pytest.raises(InterchangeError) as err:
        load_scheme_text(text.replace('"0,1,1": ', '"0,1,1": {"1": []}, "0,1,1": ', 1))
    assert "duplicate key '0,1,1'" in str(err.value)
    # "0,2,2" is written first, but the first repeat in the document is "0,1,1"
    with pytest.raises(InterchangeError) as err:
        load_scheme_text(text.replace(
            '"0,1,1": ', '"0,2,2": {"1": []}, "0,1,1": {"1": []}, "0,1,1": ', 1))
    assert "duplicate key '0,1,1'" in str(err.value)
    assert "0,2,2" not in str(err.value)


@pytest.mark.parametrize("change,expected", [c[1:] for c in BAD_DOCUMENTS],
                         ids=[c[0] for c in BAD_DOCUMENTS])
def test_cli_verify_rejects_bad_document(tmp_path, capsys, change, expected):
    path = tmp_path / "bad.json"
    path.write_text(_bad_document(change))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert expected in err


# 1000^10 demands: verify would list them without end
HUGE_DOCUMENT = ('{"model":"traditional","N":1000,"K":10,"s":0,"L":1,"field_m":1,'
                 '"placement":[[],[],[],[],[],[],[],[],[],[]],"delivery":{}}')


@pytest.mark.parametrize("args", [
    ["verify", "<huge document>"],
    ["verify", "builtin:kuser/man", "--N", "1000", "--K", "20", "--s", "3"],
    ["export", "builtin:kuser/mds", "--N", "1000", "--K", "20", "--s", "3"],
])
def test_cli_refuses_more_demands_than_the_budget(tmp_path, capsys, args):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_DOCUMENT)
    start = time.perf_counter()
    assert main([str(path) if a == "<huge document>" else a for a in args]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "demands" in err
    assert len(err.splitlines()) == 1


def test_cli_refuses_more_demand_entries_than_the_budget(capsys):
    # 718,800 demands, under DEMAND_BUDGET, of 600 entries each
    start = time.perf_counter()
    assert main(["verify", "builtin:kuser/man", "--N", "2", "--K", "600", "--s", "598"]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "entries" in err
    assert len(err.splitlines()) == 1


def test_cli_verify_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nests too deeply" in err


def test_loader_rejects_rank_deficient_placement():
    doc = scheme_to_dict(cached_2rr1s(CornerPointId.MDS_HALF, 2))
    doc["placement"][0].append(doc["placement"][0][0])
    doc["delivery"] = {
        key: {sender: [row + [0] for row in rows] for sender, rows in per.items()}
        for key, per in doc["delivery"].items()
    }
    with pytest.raises(InterchangeError) as err:
        load_scheme_text(json.dumps(doc))
    assert "linearly dependent" in str(err.value)


def test_loader_hands_out_one_signal_per_distinct_encoding():
    doc = scheme_to_dict(cached_kuser(CornerPointId.KU_MAN, 4, 5, 2))
    scheme = load_scheme_text(json.dumps(doc))
    signals = [sig for per in scheme.delivery.values() for sig in per.values()]
    distinct = {(sig.matrix.ncols, sig.matrix.images) for sig in signals}
    assert len({id(sig) for sig in signals}) == len(distinct) < len(signals)


@pytest.mark.parametrize("entry", [True, 1.0])
def test_loader_rejects_a_repeat_of_a_valid_matrix_that_only_compares_equal(entry):
    # [[True]] == [[1.0]] == [[1]]: a repeat must not pass as the checked matrix
    doc = scheme_to_dict(cached_kuser(CornerPointId.KU_MAN, 3, 4, 1))
    seen = set()
    for per in doc["delivery"].values():
        for sender, rows in per.items():
            shared = (len(doc["placement"][int(sender) - 1]), json.dumps(rows))
            if shared in seen and any(1 in row for row in rows):
                per[sender] = [[entry if v == 1 else v for v in row] for row in rows]
                assert per[sender] == rows
                with pytest.raises(InterchangeError) as err:
                    load_scheme_text(json.dumps(doc))
                assert "outside GF(2^1)" in str(err.value)
                return
            seen.add(shared)
    pytest.fail("no repeated delivery matrix")


def test_random_schemes_round_trip(tmp_path):
    import random
    from d2dcache.field import GF2, FieldMatrix, FieldSpec, mat_rank
    from d2dcache.model import (
        LinearScheme, ModelKind, SenderSignal, enumerate_demands, senders_of,
    )

    rng = random.Random(31)
    for trial in range(8):
        spec = GF2 if trial % 2 else FieldSpec(2)
        N, L = rng.choice([(2, 2), (2, 3), (3, 2)])
        placement = []
        for _ in range(3):
            while True:
                rows = [[rng.randrange(spec.size) for _ in range(N * L)]
                        for _ in range(rng.randint(1, 3))]
                matrix = FieldMatrix.from_rows(spec, rows, ncols=N * L)
                if mat_rank(matrix) == matrix.nrows:
                    break
            placement.append(matrix)
        delivery = {}
        for d in enumerate_demands(ModelKind.TWO_RR_ONE_S, N, 3, 1):
            delivery[d] = {}
            for k in senders_of(d):
                width = placement[k - 1].nrows
                rows = [[rng.randrange(spec.size) for _ in range(width)]
                        for _ in range(rng.randint(0, 2))]
                mat = (FieldMatrix.from_rows(spec, rows, ncols=width)
                       if rows else FieldMatrix.empty(spec, width))
                delivery[d][k] = SenderSignal(mat)
        scheme = LinearScheme(ModelKind.TWO_RR_ONE_S, N, 3, 1, L, spec,
                              tuple(placement), delivery)
        reloaded = load_scheme_text(dump_scheme(scheme))
        assert verify(reloaded) == verify(scheme)


def _round_trip_bases():
    for N in (2, 3, 4):
        for point in TWO_RR_POINTS:
            yield f"{point.value} N={N}", lambda p=point, n=N: cached_2rr1s(p, n)
    yield "n2-7-8 N=2", lambda: cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    yield ("share(mds-half, man-2-3, 1/3) N=2",
           lambda: memory_share(cached_2rr1s(CornerPointId.MDS_HALF, 2),
                                cached_2rr1s(CornerPointId.MAN_TWO_THIRDS, 2), Fraction(1, 3)))


ROUND_TRIP_BASES = list(_round_trip_bases())


@pytest.mark.parametrize("make", [make for _, make in ROUND_TRIP_BASES],
                         ids=[name for name, _ in ROUND_TRIP_BASES])
def test_adapted_scheme_round_trips(make):
    """A loaded base rotates and adapts exactly like the scheme it was exported from."""
    base = make()
    loaded = load_scheme_text(dump_scheme(base))
    report = lambda scheme: verify(scheme).to_json_dict()
    assert report(rotate_2rr1s(loaded)) == report(rotate_2rr1s(base))
    adapted, adapted_loaded = adapt_request_random(base), adapt_request_random(loaded)
    assert report(adapted_loaded.scheme) == report(adapted.scheme)
    assert adapted_loaded.per_r_worst == adapted.per_r_worst
    if adapted.scheme.encoding_clean:
        reloaded = load_scheme_text(dump_scheme(adapted.scheme))
        assert reloaded.model.value == "request_random"
        assert verify(reloaded) == verify(adapted.scheme)


def test_resolve_builtins_and_errors():
    assert "builtin:2rr1s/mds-half" in builtin_names()
    scheme = resolve_scheme("builtin:2rr1s/mds-half", N=4)
    assert scheme.N == 4
    assert resolve_scheme("builtin:2rr1s/n2-7-8").N == 2
    with pytest.raises(InterchangeError):
        resolve_scheme("builtin:absent")
    with pytest.raises(InterchangeError):
        resolve_scheme("builtin:2rr1s/mds-half")  # N required
    with pytest.raises(InterchangeError):
        resolve_scheme("builtin:kuser/mds", N=4)  # K, s required


def test_rotated_scheme_with_raw_rows_refuses_export():
    rotated = rotate_2rr1s(cached_2rr1s(CornerPointId.HALF_RATE, 2))
    with pytest.raises(InterchangeError):
        dump_scheme(rotated)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_builtin(capsys):
    code = main(["verify", "builtin:2rr1s/n2-7-8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["worst_case_rate"] == "7/8"
    assert out["passed"] is True


def test_cli_verify_kuser(capsys):
    code = main(["verify", "builtin:kuser/mds", "--N", "4", "--K", "5", "--s", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["memory"] == ["4/3"] * 5


@pytest.mark.parametrize("source,flags,message", [
    ("builtin:2rr1s/full", ["--N", "3", "--K", "7", "--s", "4"], "has K=3, not --K 7"),
    ("builtin:2rr1s/n2-7-8", ["--s", "2"], "has s=1, not --s 2"),
    ("builtin:trad/coded-1-1", ["--K", "2"], "has K=3, not --K 2"),
    ("n2.json", ["--N", "5", "--K", "9"], "has N=2, not --N 5"),
])
def test_cli_refuses_sizes_the_scheme_does_not_have(source, flags, message, tmp_path, capsys):
    if not source.startswith("builtin:"):
        source = str(tmp_path / source)
        assert main(["export", "builtin:2rr1s/n2-7-8", "--out", source]) == 0
    for command in ("verify", "export"):
        assert main([command, source, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_cli_accepts_sizes_the_scheme_has(tmp_path, capsys):
    assert main(["verify", "builtin:2rr1s/n2-7-8", "--N", "2", "--K", "3", "--s", "1"]) == 0
    path = str(tmp_path / "n2.json")
    assert main(["export", "builtin:2rr1s/n2-7-8", "--out", path]) == 0
    assert main(["verify", path, "--N", "2"]) == 0
    capsys.readouterr()


def test_cli_unknown_builtin_is_usage_error(capsys):
    assert main(["verify", "builtin:nope"]) == 1
    assert "unknown builtin" in capsys.readouterr().err


def _corrupted_n2_document(tmp_path):
    """CLI arguments naming n2-7-8 with one row cut from demand 0,1,2, and its scheme."""
    doc = scheme_to_dict(cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2))
    doc["delivery"]["0,1,2"]["1"] = doc["delivery"]["0,1,2"]["1"][1:]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return [str(path)], load_scheme_text(path.read_text())


def test_cli_detects_corrupted_scheme(tmp_path, capsys):
    args, _ = _corrupted_n2_document(tmp_path)
    code = main(["verify", *args])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    failing = [e["demand"] for e in report["demands"] if not e["decodable"]]
    assert "0,1,2" in failing
    assert "0,1,2" in captured.err


def test_cli_export_round_trip(tmp_path, capsys):
    out = tmp_path / "scheme.json"
    assert main(["export", "builtin:2rr1s/half-rate", "--N", "3", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["worst_case_rate"] == "1/2"
    assert report["L"] == 6


@pytest.mark.parametrize("target", ["missing/x.json", "adir"])
def test_cli_refuses_an_unusable_out_before_verifying(target, tmp_path, capsys, monkeypatch):
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    verified = []
    monkeypatch.setattr(cli, "verify", lambda scheme: verified.append(scheme))
    args = ["verify", "builtin:kuser/man", "--N", "3", "--K", "4", "--s", "1", "--out", target]
    assert main(args) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ") and repr(target) in errors[0]
    assert not verified
    assert not list(tmp_path.rglob(".d2dcache-*"))


@pytest.mark.parametrize("source", ["n2-7-8", "kuser/mds N=4 K=5 s=2", "corrupted"])
def test_cli_writes_the_bytes_of_json_dumps(tmp_path, capsys, source):
    """Streamed output is byte for byte the indent=2 text and one newline."""
    if source == "corrupted":
        args, scheme = _corrupted_n2_document(tmp_path)
    elif source == "n2-7-8":
        args, scheme = ["builtin:2rr1s/n2-7-8"], cached_2rr1s(CornerPointId.N2_SEVEN_EIGHTHS, 2)
    else:
        args = ["builtin:kuser/mds", "--N", "4", "--K", "5", "--s", "2"]
        scheme = cached_kuser(CornerPointId.KU_MDS, 4, 5, 2)
    report = verify(scheme)
    assert main(["verify", *args]) == (0 if report.passed else 2)
    assert capsys.readouterr().out == json.dumps(report.to_json_dict(), indent=2) + "\n"

    exported = dump_scheme(scheme) + "\n"
    assert main(["export", *args]) == 0
    assert capsys.readouterr().out == exported
    out = tmp_path / "export.json"
    assert main(["export", *args, "--out", str(out)]) == 0
    assert out.read_text() == exported
    assert capsys.readouterr().out == ""


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_cli_writes_json_in_batches(monkeypatch):
    # neither one write of the whole text nor one write per encoder piece
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify", "builtin:kuser/mds", "--N", "4", "--K", "5", "--s", "2"]) == 0
    total = len(stdout.getvalue())
    assert total == sum(stdout.sizes) > 100_000
    assert 3 <= len(stdout.sizes) <= 50
    assert max(stdout.sizes) <= total / 4


def test_cli_sweep_rows_exact(capsys):
    assert main(["sweep", "--model", "2rr1s", "--N", "4", "--samples", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "M,R_achievable,R_converse"
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert rows["2"] == ["1", "1"]
    assert rows["3"] == ["1/4", "1/4"]
    assert rows["4"] == ["0", "0"]
    assert rows["8/3"] == ["1/3", "1/3"]  # corner abscissa joins the grid
    for cell_M, (ach, conv) in rows.items():
        assert Fraction(ach) >= Fraction(conv)


def test_cli_sweep_single_sample_point(capsys):
    assert main(["sweep", "--model", "2rr1s", "--N", "2",
                 "--M-min", "1", "--M-max", "1", "--samples", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "1,7/8,7/8"


def test_cli_sweep_traditional_matches_converse(capsys):
    assert main(["sweep", "--model", "trad", "--N", "2", "--samples", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        _, ach, conv = line.split(",")[:3]
        assert Fraction(ach) == Fraction(conv)


def test_cli_sweep_with_baseline_column(tmp_path, capsys):
    from d2dcache.bounds import shipped_curve
    path = shipped_curve("trad3_n2_uncoded_oneshot.curve")
    assert main(["sweep", "--model", "trad", "--N", "2", "--samples", "3",
                 "--baseline", f"oneshot={path}"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "M,R_achievable,R_converse,baseline_oneshot"
    rows = {line.split(",")[0]: line.split(",")[3] for line in lines[1:]}
    assert rows["4/3"] == "1/2"


def test_cli_sweep_infeasible_range(capsys):
    assert main(["sweep", "--model", "2rr1s", "--N", "4", "--M-min", "1"]) == 1


@pytest.mark.parametrize("value", ["1e999999999", "2.5", "1/0"])
def test_cli_rejects_a_bound_that_is_not_an_integer_or_p_q(capsys, value):
    assert main(["sweep", "--model", "2rr1s", "--N", "4", "--M-min", value]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rr_compare(tmp_path, capsys):
    from d2dcache.bounds import shipped_curve
    args = ["rr-compare", "--p", "0.59", "--N", "30",
            "--M-min", "20", "--M-max", "20", "--samples", "2"]
    for r in ("r1", "r2", "r3"):
        args += ["--baseline", f"{r}={shipped_curve(f'rr_baseline_{r}_n30.curve')}"]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "M,avg_ours,avg_baseline"
    _, ours, base = lines[1].split(",")
    gain = (float(base) - float(ours)) / float(base)
    assert abs(gain - 0.17) <= 0.01


def test_cli_rr_compare_requires_baselines(capsys):
    assert main(["rr-compare", "--p", "0.5", "--N", "30"]) == 1
    assert "missing baseline" in capsys.readouterr().err


def test_cli_rr_compare_edge_probabilities(capsys):
    from d2dcache.bounds import shipped_curve
    common = ["--N", "30", "--M-min", "20", "--M-max", "20", "--samples", "2"]
    for r in ("r1", "r2", "r3"):
        common += ["--baseline", f"{r}={shipped_curve(f'rr_baseline_{r}_n30.curve')}"]
    assert main(["rr-compare", "--p", "0"] + common) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert line.split(",")[1:] == ["0", "0"]
    assert main(["rr-compare", "--p", "1"] + common) == 0
    line = capsys.readouterr().out.strip().splitlines()[1]
    assert line.split(",")[1] == "0.5"


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10 ** 9])
def test_cli_caps_the_sample_count(capsys, samples):
    from d2dcache.bounds import shipped_curve
    rr = ["rr-compare", "--p", "0.5", "--N", "30"]
    for r in ("r1", "r2", "r3"):
        rr += ["--baseline", f"{r}={shipped_curve(f'rr_baseline_{r}_n30.curve')}"]
    for args in (["sweep", "--model", "2rr1s", "--N", "4"], rr):
        assert main(args + ["--samples", str(samples)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"2..{MAX_SAMPLES}" in err


def test_cli_usage_errors(capsys):
    assert main(["verify"]) == 1
    assert main(["sweep", "--model", "trad", "--N", "3"]) == 1
    assert main(["sweep", "--model", "2rr1s", "--N", "4", "--samples", "1"]) == 1
    assert main(["export", "builtin:2rr1s/full", "--N", "2",
                 "--out", "/nonexistent-dir/x.json"]) == 1
