import csv
import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

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

    def test_summary_aggregates(self, bench_setup):
        config, tmp = bench_setup
        summary = run_bench(config, tmp / "out")
        data = json.loads((tmp / "out/summary.json").read_text())
        assert data == summary
        assert data["algorithms"]["brute"]["min_ratio"] == "1"


def test_perfbench_tracer_installs_and_uninstalls():
    # perfbench/tracing.py patches fza by name; a renamed function fails here
    # rather than only in the benchmark's own test suite
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(SOLVERS)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = SOLVERS["sublog"][0]
        assert traced is not before["sublog"][0]
        # `fza solve` still sees the options a traced solver takes
        assert "diagnostics" in inspect.signature(traced).parameters
    finally:
        tracer.uninstall()
    assert SOLVERS == before
