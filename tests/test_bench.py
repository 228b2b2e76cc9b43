import csv
import gc
import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import fza.bench
import fza.sublog
from fza import Commodity, GenSpec, Instance, PricingFunction, Tree, gen_random, normalize
from fza.bench import SOLVERS, BenchConfig, run_bench
from fza.files import write_instance
from fza.model import InvalidInstanceError


@pytest.fixture()
def bench_setup(tmp_path):
    paths = []
    for seed in range(3):
        inst = gen_random(
            GenSpec("random-path", 8, 5, pricing="linear", seed=seed)
        )
        p = tmp_path / f"inst{seed}.json"
        write_instance(inst, p)
        paths.append(str(p))
    config = BenchConfig(
        instances=tuple(paths),
        algorithms=("brute", "single-density-path", "single-density"),
        seeds=(1, 2),
        oracle="brute",
    )
    return config, tmp_path


def read_rows(outdir: Path):
    with open(outdir / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestBench:
    def test_report_shape_and_oracle_rows(self, bench_setup):
        config, tmp = bench_setup
        run_bench(config, tmp / "out")
        rows = read_rows(tmp / "out")
        brute_rows = [r for r in rows if r["algorithm"] == "brute"]
        assert brute_rows and all(r["ratio"] == "1" for r in brute_rows)
        seeded = [r for r in rows if r["algorithm"] == "single-density"]
        assert len(seeded) == 3 * 2  # instances x seeds

    def test_path_variant_meets_bound_per_row(self, bench_setup):
        config, tmp = bench_setup
        run_bench(config, tmp / "out")
        # n = 8 vertices: per-run bound 1 / (6 * (ceil(log2 8) + 1)) = 1/24
        for row in read_rows(tmp / "out"):
            if row["algorithm"] == "single-density-path" and row["ratio"]:
                assert Fraction(row["ratio"]) >= Fraction(1, 24)

    def test_byte_identical_reruns(self, bench_setup):
        config, tmp = bench_setup
        run_bench(config, tmp / "a")
        run_bench(config, tmp / "b")
        assert (tmp / "a/report.csv").read_bytes() == (tmp / "b/report.csv").read_bytes()
        assert (tmp / "a/summary.json").read_bytes() == (tmp / "b/summary.json").read_bytes()

    def test_oracle_unavailable_marked(self, tmp_path):
        inst = gen_random(GenSpec("random-tree", 28, 3, seed=0))
        p = tmp_path / "big.json"
        write_instance(inst, p)
        config = BenchConfig(
            instances=(str(p),), algorithms=("single-density",), seeds=(0,)
        )
        run_bench(config, tmp_path / "out")
        rows = read_rows(tmp_path / "out")
        assert rows[0]["status"] == "oracle-unavailable"
        assert rows[0]["ratio"] == ""
        assert rows[0]["revenue"] != ""

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InvalidInstanceError):
            BenchConfig(instances=("x",), algorithms=("nope",))

    def test_from_file_rejects_long_int_seed(self, tmp_path):
        # json.loads refuses an int past Python's 4300-digit int-string limit
        p = tmp_path / "bench.json"
        p.write_text('{"instances": ["x"], "algorithms": ["brute"], "seeds": [' + "1" * 5000 + "]}")
        with pytest.raises(InvalidInstanceError, match="JSON integer too long"):
            BenchConfig.from_file(p)

    def test_solver_missing_its_option_is_solver_error(self, tmp_path):
        # a bench grid passes no cut count to gen-rooted-path, and rooted
        # reads root 0; both fail like any other solver on this instance
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = normalize(Instance.create(t, PricingFunction.linear(4), [Commodity(1, 3, 1, 1)]))
        p = tmp_path / "u.json"
        write_instance(inst, p)
        config = BenchConfig(instances=(str(p),), algorithms=("brute", "gen-rooted-path", "rooted"))
        run_bench(config, tmp_path / "out")
        status = {r["algorithm"]: r["status"] for r in read_rows(tmp_path / "out")}
        assert status == {"brute": "ok", "gen-rooted-path": "solver-error", "rooted": "solver-error"}

    @pytest.mark.parametrize(
        "oracle, digest",
        [
            ("brute", "09e08e227336e8fa13c0e9ed4220770088023b329496366fee09190b83b5e33a"),
            ("dp-pmax", "81e38c58071a27b7febbeaea2988cf0a9eb09290fadfc80e1487a49c6ff7e92b"),
        ],
    )
    def test_reports_pinned_across_statuses(self, tmp_path, monkeypatch, oracle, digest):
        # every algorithm on a grid that yields all three statuses:
        # a path whose optimum is 0 (linear pricing, every budget 0, so each
        # row's ratio is the zero-optimum "1"), a 27-edge tree no oracle
        # takes (oracle-unavailable), a path whose commodity avoids vertex 0
        # (rooted and gen-rooted-path report solver-error) and a small tree
        monkeypatch.chdir(tmp_path)
        path = Tree(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        zero = [Commodity(0, 4, 0, Fraction(3)), Commodity(0, 2, 0, Fraction(5, 2))]
        unrooted = [Commodity(1, 3, 1, Fraction(1)), Commodity(1, 4, 2, Fraction(2))]
        instances = {
            "a-zero-optimum.json": Instance.create(path, PricingFunction.linear(5), zero),
            "b-big-tree.json": gen_random(GenSpec("random-tree", 28, 12, pricing="affine", seed=3)),
            "c-unrooted.json": Instance.create(path, PricingFunction.affine(5), unrooted),
            "d-small-tree.json": gen_random(GenSpec("random-tree", 9, 8, fractional_weights=True, seed=5)),
        }
        for name, inst in instances.items():
            write_instance(normalize(inst), name)
        config = BenchConfig(
            instances=tuple(instances), algorithms=tuple(SOLVERS), seeds=(1, 2), oracle=oracle
        )
        run_bench(config, "out")
        rows = read_rows(tmp_path / "out")
        assert {r["status"] for r in rows} == {"ok", "oracle-unavailable", "solver-error"}
        zero_rows = [r for r in rows if r["instance"] == "a-zero-optimum.json" and r["status"] == "ok"]
        assert zero_rows and {r["ratio"] for r in zero_rows} == {"1"}
        h = hashlib.sha256()
        for name in ("report.csv", "summary.json"):
            h.update((tmp_path / "out" / name).read_bytes())
        assert h.hexdigest() == digest

    def test_summary_aggregates(self, bench_setup):
        config, tmp = bench_setup
        summary = run_bench(config, tmp / "out")
        data = json.loads((tmp / "out/summary.json").read_text())
        assert data == summary
        assert data["algorithms"]["brute"]["min_ratio"] == "1"



def write_trees(tmp_path, count):
    names = []
    for seed in range(count):
        path = tmp_path / f"tree{seed}.json"
        write_instance(gen_random(GenSpec("random-tree", 10, 10, pricing="affine", seed=seed)), path)
        names.append(str(path))
    return names


def test_grid_builds_one_sublog_plan_per_instance(tmp_path, monkeypatch):
    built = []
    decompose = fza.sublog.build_decomposition

    def counted(tree, *args):
        built.append(tree)
        return decompose(tree, *args)

    monkeypatch.setattr(fza.sublog, "build_decomposition", counted)
    config = BenchConfig(instances=tuple(write_trees(tmp_path, 2)), algorithms=("sublog",), seeds=(5, 0, 2))
    summary = run_bench(config, tmp_path / "out")
    assert summary["algorithms"]["sublog"]["rows"] == 6
    assert len(built) == 2 and built[0] is not built[1]


def test_grid_frees_each_instance_once_its_rows_are_done(tmp_path, monkeypatch):
    names = write_trees(tmp_path, 3)
    refs = []
    read = fza.bench.read_instance

    def tracked(name):
        inst = read(name)
        refs.append(weakref.ref(inst))
        return inst

    alive = []
    oracle = SOLVERS["brute"][0]

    def watched(inst, seed):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        return oracle(inst, seed)

    monkeypatch.setattr(fza.bench, "read_instance", tracked)
    monkeypatch.setitem(SOLVERS, "brute", (watched, False))
    run_bench(BenchConfig(instances=tuple(names), algorithms=("sublog",), seeds=(0, 1)), tmp_path / "out")
    # every file is read before the grid starts; the instances go one by one
    assert alive == [[True, True, True], [False, True, True], [False, False, True]]


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_installs_and_uninstalls():
    # perfbench/tracing.py patches fza by name; a renamed function fails here
    # rather than only in the benchmark's own test suite
    before = dict(SOLVERS)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        traced = SOLVERS["sublog"][0]
        assert traced is not before["sublog"][0]
        # `fza solve` still sees the options a traced solver takes
        assert "diagnostics" in inspect.signature(traced).parameters
    finally:
        tracer.uninstall()
    assert SOLVERS == before


def test_perfbench_traced_names_resolve():
    # every name perfbench/tracing.py patches resolves the way `Tracer.install`
    # looks it up, so renaming a traced function fails tier-1, not only the
    # benchmark; nothing is installed here
    tracing = load_tracing()
    for module, attr, *_ in tracing.SPANS + tracing.COUNTED:
        mod = importlib.import_module(f"fza.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(mod, cls_name).__dict__, f"{module}.{attr}"
        else:
            assert callable(vars(mod).get(attr)), f"{module}.{attr}"
    # `Tracer._replace_everywhere` unpacks each solver as (function, uses seed)
    for name, entry in SOLVERS.items():
        fn, uses_seed = entry
        assert type(entry) is tuple and callable(fn) and type(uses_seed) is bool, name


def test_perfbench_sublog_counters():
    # the tracer derives these counters from sublog's arguments and results
    # (the member rows passed to build_aux_instance, the aux rows it keeps,
    # the skeleton's segments); a changed argument breaks them here
    inst = gen_random(GenSpec("random-path", 40, 40, pricing="affine", seed=1))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        solve, _ = SOLVERS["sublog"]
        solve(inst, 1)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["sublog.build_aux_instance.scanned"] >= counts["sublog.build_aux_instance.kept"] > 0
    assert counts["sublog.skeleton_solve.guesses"] > 0


def load_bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_shows_failures_and_bounds():
    bench_pairs = load_bench_pairs()
    end_to_end = [
        {"name": "solves_per_s", "better": "higher", "bound": 0.24},
        {"name": "op_s.p50", "better": "lower", "bound": 0.24},
    ]

    def run(seed, side, solves, op, failed):
        metrics = {"solves_per_s": {"value": solves}, "op_s.p50": {"value": op}}
        result = {"correct": failed == 0, "attempted": 50, "failed": failed, "metrics": metrics}
        return {"workload": "w", "seed": seed, "side": side, "result": result}

    # the change solves 30 % slower (past the bound), and its ops 10 % slower (within it)
    runs = [
        run(seed, side, *values)
        for seed in (1, 2)
        for side, values in (("parent", (10.0, 1.0, 0)), ("change", (7.0, 1.1, seed - 1)))
    ]
    (ops, solves, op), rejected = bench_pairs.summarize(runs, end_to_end)
    assert ops.split() == ["w", "failed/attempted", "ops", "parent", "0/100", "change", "1/100"]
    assert solves.endswith("within bound 0.24: NO") and "change better in 0/2 pairs" in solves
    assert op.endswith("within bound 0.24: yes")
    assert rejected == [
        "w: the change failed 1/100 ops, the parent 0/100",
        "w solves_per_s: change median 7 is outside bound 0.24 of parent median 10",
    ]


def test_bench_pairs_exits_1_on_an_incorrect_run(tmp_path, monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    bench = {"command": ["true"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_once(checkout, command, workload, seed, seconds):
        failed = int(checkout.name == "change")
        return {"correct": not failed, "attempted": 4, "failed": failed, "metrics": {"solves_per_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seed", "1"]
    assert bench_pairs.main([*argv, "--out", str(tmp_path / "b.json"), "w=1"]) == 1
    assert "w seed 1 change reported correct: false" in capsys.readouterr().err


def test_bench_pairs_file_keeps_the_summary(tmp_path, monkeypatch, capsys):
    # the side that runs first is faster, so the file's summary shows the bias
    bench_pairs = load_bench_pairs()
    bench = {"command": ["true"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_once(checkout, command, workload, seed, seconds):
        first = (seed % 2 == 1) == (checkout.name == "parent")
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"solves_per_s": {"value": 11.0 if first else 10.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seed", "1"]
    assert bench_pairs.main([*argv, "--out", str(tmp_path / "b.json"), "w=4"]) == 0
    summary = json.loads((tmp_path / "b.json").read_text())["summary"]
    assert summary == capsys.readouterr().out.splitlines()[-len(summary):]
    assert "w            side that ran first better on solves_per_s in 4/4 pairs" in summary


# the parent's solves_per_s per pair: median 10.5, quartiles 10 and 11
CLAIM_PARENT = [10.0, 11.0] * 5


@pytest.mark.parametrize(
    "change, holds",
    [
        # nine pairs won and one tied; median gap 2.5 > parent IQR 1
        pytest.param([13.0] * 9 + [11.0], True, id="holds"),
        pytest.param([13.0] * 8 + [10.0, 11.0], False, id="eight-of-ten-pairs"),
        # ten of ten pairs won, by a median gap of 0.5 inside the parent IQR
        pytest.param([v + 0.5 for v in CLAIM_PARENT], False, id="within-parent-spread"),
    ],
)
def test_bench_pairs_claim_rule(tmp_path, monkeypatch, capsys, change, holds):
    bench_pairs = load_bench_pairs()
    bench = {"command": ["true"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_once(checkout, command, workload, seed, seconds):
        value = (change if checkout.name == "change" else CLAIM_PARENT)[seed - 1]
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"solves_per_s": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seed", "1"]
    code = bench_pairs.main([*argv, "--out", str(tmp_path / "b.json"), "--claim", "w/solves_per_s", "w=10"])
    out, err = capsys.readouterr()
    claim = out.splitlines()[-1]
    assert claim.startswith("claim w/solves_per_s: ") and claim.endswith(": holds" if holds else ": NO")
    assert (code, err) == ((0, "") if holds else (1, "error: the claimed gain w/solves_per_s does not hold\n"))


@pytest.mark.parametrize("count", [1, 3, 9])
def test_bench_pairs_claim_needs_ten_pairs(tmp_path, monkeypatch, capsys, count):
    # the change wins every pair by far, but fewer than ten pairs judge nothing
    bench_pairs = load_bench_pairs()
    bench = {"command": ["true"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_once(checkout, command, workload, seed, seconds):
        value = 20.0 if checkout.name == "change" else CLAIM_PARENT[seed - 1]
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"solves_per_s": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seed", "1"]
    code = bench_pairs.main([*argv, "--out", str(tmp_path / "b.json"), "--claim", "w/solves_per_s", f"w={count}"])
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"claim w/solves_per_s: too few pairs ({count} < 10)"
    assert (code, err) == (1, "error: the claimed gain w/solves_per_s does not hold\n")


@pytest.mark.parametrize(
    "change, expected",
    [
        pytest.param((7.0, 0), "error: w solves_per_s: change median 7 is outside bound 0.24", id="outside-bound"),
        pytest.param((10.0, 1), "error: w: the change failed 1/4 ops, the parent 0/4", id="more-failed-ops"),
        pytest.param((10.0, 0), None, id="accepted"),
    ],
)
def test_bench_pairs_exits_1_on_either_rejection_rule(tmp_path, monkeypatch, capsys, change, expected):
    # every run reports correct: true, so only the bound or the failed share can reject
    bench_pairs = load_bench_pairs()
    bench = {"command": ["true"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))

    def run_once(checkout, command, workload, seed, seconds):
        solves, failed = change if checkout.name == "change" else (10.0, 0)
        return {"correct": True, "attempted": 4, "failed": failed, "metrics": {"solves_per_s": {"value": solves}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seed", "1"]
    code = bench_pairs.main([*argv, "--out", str(tmp_path / "b.json"), "w=1"])
    err = capsys.readouterr().err
    if expected is None:
        assert (code, err) == (0, "")
    else:
        assert code == 1 and err.startswith(expected) and err.count("\n") == 1


CLAIM_LINE = "claim w/solves_per_s: change better in {}/10 pairs (needs 9 of 10), median gain 2.5 vs parent IQR 1: {}"


@pytest.mark.parametrize(
    "change, line, code",
    [
        pytest.param([13.0] * 9 + [11.0], CLAIM_LINE.format(9, "holds"), 0, id="holds"),
        pytest.param([13.0] * 8 + [10.0, 11.0], CLAIM_LINE.format(8, "NO"), 1, id="fails"),
        pytest.param([20.0] * 9, "claim w/solves_per_s: too few pairs (9 < 10)", 1, id="nine-pairs"),
    ],
)
def test_bench_pairs_judges_an_existing_file(tmp_path, capsys, change, line, code):
    # the verdict comes from the file's runs and the BENCHMARK.json beside it;
    # nothing is run, so no checkout is named
    bench_pairs = load_bench_pairs()
    bench = {"command": ["false"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))

    def run(seed, side, value):
        result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {"solves_per_s": {"value": value}}}
        return {"workload": "w", "seed": seed, "side": side, "ran_first": side == "parent", "result": result}

    runs = [run(seed, "parent", p) for seed, p in enumerate(CLAIM_PARENT)]
    runs += [run(seed, "change", c) for seed, c in enumerate(change)]
    (tmp_path / "BENCH_9.json").write_text(json.dumps({"runs": runs}))
    assert bench_pairs.main(["--judge", str(tmp_path / "BENCH_9.json"), "--claim", "w/solves_per_s"]) == code
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == line
    assert err == ("" if code == 0 else "error: the claimed gain w/solves_per_s does not hold\n")


def test_bench_pairs_judge_needs_a_claim_and_nothing_to_run(tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    for argv in (["--judge", "BENCH_9.json"], ["--judge", "BENCH_9.json", "--claim", "w/solves_per_s", "w=1"]):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2
        assert "--judge FILE takes --claim WORKLOAD/METRIC and nothing else" in capsys.readouterr().err


def test_bench_pairs_shows_order_bias(tmp_path, capsys):
    # each side does better whenever it runs first: the change wins half the
    # pairs, and the first-run side wins all ten
    bench_pairs = load_bench_pairs()
    bench = {"command": ["false"], "run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.24}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))

    def run(seed, side, first):
        result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {"solves_per_s": {"value": 11.0 if first else 10.0}}}
        return {"workload": "w", "seed": seed, "side": side, "ran_first": first, "result": result}

    runs = [run(seed, side, (seed % 2 == 0) == (side == "parent")) for seed in range(10) for side in bench_pairs.SIDES]
    (tmp_path / "BENCH_9.json").write_text(json.dumps({"runs": runs}))
    assert bench_pairs.main(["--judge", str(tmp_path / "BENCH_9.json"), "--claim", "w/solves_per_s"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "w            side that ran first better on solves_per_s in 10/10 pairs" in out
    assert any("change better in 5/10 pairs" in line for line in out)
    # a run with no recorded order adds no line
    for r in runs:
        del r["ran_first"]
    lines, _ = bench_pairs.summarize(runs, bench["end_to_end"])
    assert not any("ran first" in line for line in lines)


def test_tier1_verdict():
    # tools/tier1.py passes exactly the known red set and nothing else
    path = Path(__file__).resolve().parents[1] / "tools" / "tier1.py"
    spec = importlib.util.spec_from_file_location("tier1", path)
    tier1 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tier1)
    (red,) = tier1.KNOWN_RED
    other = "tests/test_model.py::TestWalk::test_edge_set_walk_matches_reference"
    assert tier1.verdict({red}, 0) == 0
    assert tier1.verdict({red, other}, 0) == 1
    assert tier1.verdict(set(), 0) == 1
    assert tier1.verdict({red}, 1) == 1
    # junitxml's (classname, name) pairs map back to pytest's node ids
    assert tier1.node_id("tests.test_acceptance", red.rpartition("::")[2]) == red
    assert tier1.node_id("tests.test_model.TestWalk", "test_edge_set_walk_matches_reference") == other


def load_same_bytes():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
    spec = importlib.util.spec_from_file_location("same_bytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_bytes_reports_the_first_difference():
    same_bytes = load_same_bytes()

    def record(argv=("solve", "--algo", "sublog"), **fields):
        base = {"group": "sublog", "cwd": ".", "argv": list(argv), "exit": 0, "stdout": "a\nb\n", "stderr": "", "files": {}}
        return {**base, **fields}

    runs = [record(), record(files={"out/s.json": "{}\n"})]
    assert same_bytes.first_difference(runs, runs) == (2, None)
    assert same_bytes.first_difference([], []) == (0, None)
    cases = [
        (record(stdout="a\nc\n"), "stdout line 2: parent 'b\\n' / change 'c\\n'"),
        (record(stdout="a\n"), "stdout line 2: parent 'b\\n' / change '<end>'"),
        (record(exit=2, stderr="error: x\n"), "exit: parent 0 / change 2"),
        (record(exit="raised TypeError: t"), "exit: parent 0 / change 'raised TypeError: t'"),
        (record(stderr="error: x\n"), "stderr line 1: parent '<end>' / change 'error: x\\n'"),
        (record(files={"out/s.json": "[]\n"}), "file out/s.json line 1: parent '{}\\n' / change '[]\\n'"),
        (record(files={"out/s.json": None}), "file out/s.json: written by the parent only"),
        (record(files={"out/s.json": "{}\n", "out/t.json": ""}), "file out/t.json: written by the change only"),
        (record(argv=("validate",)), "the corpora differ: the change ran ['validate']"),
    ]
    for changed, detail in cases:
        count, found = same_bytes.first_difference(runs, [runs[0], changed])
        assert count == 2
        assert found == f"run 2 (sublog): fza solve --algo sublog\n  {detail}", found
    # the first difference wins, and a stream that ends early is one
    count, found = same_bytes.first_difference(runs, [record(stdout="x\n"), record(exit=1)])
    assert count == 1 and found.endswith("stdout line 1: parent 'a\\n' / change 'x\\n'")
    assert same_bytes.first_difference(runs, runs[:1]) == (2, "run 2: only the parent ran fza solve --algo sublog")
    assert same_bytes.first_difference(runs[:1], runs) == (2, "run 2: only the change ran fza solve --algo sublog")


def test_same_bytes_records_a_call(tmp_path, monkeypatch):
    same_bytes = load_same_bytes()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()

    def fake_main(argv):
        target = Path(argv[-1])
        target.mkdir()
        (target / "report.csv").write_text("a,b\n")
        (target / "timings.csv").write_text("instance,seconds\nx,0.123\n")
        print("done")
        raise SystemExit(3)

    got = same_bytes.run_call(fake_main, ".", ["bench", "--output-dir", "out/b"])
    assert got == {
        "cwd": ".",
        "argv": ["bench", "--output-dir", "out/b"],
        "exit": 3,
        "stdout": "done\n",
        "stderr": "",
        # the seconds column is dropped, and the call's outputs are removed once read
        "files": {"out/b/report.csv": "a,b\n", "out/b/timings.csv": "instance\nx\n"},
    }
    assert not (tmp_path / "out" / "b").exists()

    def crash(argv):
        raise TypeError("boom")

    got = same_bytes.run_call(crash, ".", ["solve", "--output", "in.json"])
    assert (got["exit"], got["files"]) == ("raised TypeError: boom", {"in.json": None})


def test_mutants_bookkeeping(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
    monkeypatch.syspath_prepend(str(path.parent))  # for its `import tier1`
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    (red,) = mutants.tier1.KNOWN_RED
    # only a failure outside the known red set, or a collection error, catches
    assert not mutants.caught({red}, 0) and not mutants.caught(set(), 0)
    assert mutants.caught({red, "tests/test_model.py::test_x"}, 0) and mutants.caught(set(), 1)

    plain = mutants.Mutant("src/fza/x.py", "a <= b", "a < b", "off by one")
    same = mutants.Mutant("src/fza/x.py", "c > d", "c >= d", "only loosens", equivalent=True)
    assert mutants.verdict([(plain, True), (same, False)]) == (0, [])
    assert mutants.verdict([(plain, False), (same, True)]) == (1, [
        "mutant 1 (src/fza/x.py) survived: off by one",
        "mutant 2 (src/fza/x.py) is marked equivalent but was caught: only loosens",
    ])
    gone = mutants.Mutant("src/fza/x.py", "e", "f", "moved away")
    texts = {"src/fza/x.py": "a <= b\nc > d\nc > d\n"}
    assert mutants.source_problems([plain, same, gone], texts.__getitem__) == [
        "mutant 2 (src/fza/x.py): source text occurs 2 times: 'c > d'",
        "mutant 3 (src/fza/x.py): source text occurs 0 times: 'e'",
    ]


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = (
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    text = \"\"\"a string\n"
        "    that is not a docstring\"\"\"  # trailing comment\n"
        "    return (x,\n"
        "            text)\n"
    )
    sample = tmp_path / "sample.py"
    sample.write_text(source)
    assert code_lines.code_lines(source) == 5
    assert code_lines.main([str(sample), str(sample)]) == 0
    assert capsys.readouterr().out.split() == ["5", str(sample), "5", str(sample), "10", "total"]


@pytest.mark.parametrize("case", ["no-file", "missing-file", "untokenizable-file"])
def test_code_lines_fails_cleanly(tmp_path, case):
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    broken = tmp_path / "broken.py"
    broken.write_text("x = (1,\n")
    args = {"no-file": [], "missing-file": [str(tmp_path / "missing.py")], "untokenizable-file": [str(broken)]}[case]
    run = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1
    if case == "no-file":
        assert lines[0].startswith("usage: ")
    else:
        assert lines[0].startswith(f"error: {args[0]}: ")
