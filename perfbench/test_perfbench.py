"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_fza()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.glob("*.json"))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, name):
    a = workloads.build(name, 7, tmp_path / "a")
    workloads.build(name, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a.ops and all(op.key in checks.load_golden()[name] for op in a.ops)


def test_seed_picks_other_variants(tmp_path):
    a = workloads.build("oracle-batch", 1, tmp_path / "a")
    b = workloads.build("oracle-batch", 2, tmp_path / "b")
    assert [op.key for op in a.ops] != [op.key for op in b.ops]


def test_bounded_paths_stay_under_guards(tmp_path):
    w = workloads.build("path-exact", 3, tmp_path)
    for name, facts in w.manifest.items():
        kind = name[0]
        if kind in workloads.PATH_KINDS:
            n, _, max_len, max_budget, max_cong, _ = workloads.PATH_KINDS[kind]
            assert facts["p_max"] <= max_len
            assert facts["u_max"] <= max_budget
            assert facts["congestion"] <= max_cong


def test_rescore_agrees_with_fza(tmp_path):
    from fza.files import read_instance
    from fza.model import total_revenue

    w = workloads.build("density-tree", 0, tmp_path)
    path = tmp_path / f"{next(iter(w.manifest))}.json"
    instance = read_instance(path)
    cuts = list(range(0, instance.tree.num_edges, 3))
    assert checks.rescore(path, cuts)[0] == total_revenue(instance, cuts)


def _small_ops(tmp_path):
    """A few ops of every kind: bench grids (brute, sublog on small trees),
    path DPs, density solvers."""
    w = workloads.Workload()
    for fn, args in (
        (workloads.oracle_group, ("t", 12, 3)),
        (workloads.oracle_group, ("p", 10, 4)),
        (workloads.path_group, ("u", 1)),
        (workloads.path_group, ("r", 2)),
        (workloads.density_group, ("af", 5)),
    ):
        part = workloads.build_group(fn, args, tmp_path)
        w.ops += part.ops
        w.agree += part.agree
        w.rooted_max += part.rooted_max
        w.bounds += part.bounds
    return w


def _golden():
    merged = {}
    for digests in checks.load_golden().values():
        merged.update(digests)
    return merged


def test_traced_run_matches_untraced_and_counts_repeat(tmp_path):
    w = _small_ops(tmp_path)
    runner = run.Runner("oracle-batch", 0)
    checker = checks.Checker(w, _golden())
    runner.run_ops(w.ops, checker)
    checker.cross_check()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner.run_ops(w.ops, checker, tracer=tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
        assert tracer.spans
    assert checker.bad == {}
    assert counts[0] == counts[1]
    for key in ("param_path._update.calls", "model.revenue.terms", "exact.brute_force.cut_sets",
                "exact.GeneralizedCommodity.calls", "sublog.skeleton_solve.guesses"):
        assert counts[0].get(key, 0) > 0, key


def test_uninstall_restores_every_binding():
    import fza.bench
    import fza.exact

    before = (dict(fza.bench.SOLVERS), sys.modules["fza.sublog"].generalized_rooted_path_dp,
              fza.exact.GeneralizedCommodity.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert sys.modules["fza.sublog"].generalized_rooted_path_dp is not before[1]
    assert fza.bench.SOLVERS["single-density"][0] is not before[0]["single-density"][0]
    tracer.uninstall()
    after = (dict(fza.bench.SOLVERS), sys.modules["fza.sublog"].generalized_rooted_path_dp,
             fza.exact.GeneralizedCommodity.__init__)
    assert after == before


def test_checker_counts_golden_mismatch(tmp_path):
    w = workloads.build_group(workloads.path_group, ("u", 1), tmp_path)
    golden = {op.key: _golden()[op.key] for op in w.ops}
    golden[w.ops[0].key] = "0" * 16
    runner = run.Runner("path-exact", 0)
    checker = checks.Checker(w, golden)
    runner.run_ops(w.ops, checker)
    checker.cross_check()
    assert list(checker.bad) == [w.ops[0].key]
    assert runner.failed(checker) == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(capsys, trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    argv = ["--workload", "path-exact", "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 22
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == [(m["name"], m["unit"]) for m in spec[section]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
