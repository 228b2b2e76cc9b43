"""Benchmark of fza's command line entry points, run in-process.

    python3 perfbench/run.py --workload density-tree --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
`src/fza` next to this directory, never from an installed copy. One client
sends one op at a time to `fza.cli.main` (`fza solve` or `fza bench`) and
waits for it; the workload's ops repeat in order until `--seconds` have gone
by. Every op's output is checked (see checks.py).

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` one pass runs untraced and one traced (see tracing.py), and the
last line holds the per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 5


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: list[tuple[str, str]] = []

    def add(prefix, *fields):
        for f in fields:
            unit = {"self_s": "s", "bytes": "bytes", "kept_ratio": "ratio"}.get(f, "count")
            out.append((f"{prefix}.{f}", unit))

    add("files.read_instance", "self_s", "calls", "bytes")
    add("files.write_solution", "self_s", "bytes")
    for fn in ("normalize", "Instance.create", "make_result", "total_revenue_mask", "revenue_for"):
        add(f"model.{fn}", "self_s")
    add("model.revenue", "terms")
    add("model.Tree.rooted", "self_s", "calls")
    add("density.single_density", "self_s")
    add("density._argmax_candidates", "self_s")
    out += [("density.candidates", "count"), ("density.eval_terms", "count")]
    for fn in ("build_decomposition", "classify_commodities", "compute_skeleton", "non_skeleton_solve"):
        add(f"sublog.{fn}", "self_s")
    add("sublog.skeleton_solve", "self_s", "guesses")
    add("sublog.build_aux_instance", "self_s", "calls", "kept_ratio")
    add("exact.brute_force", "self_s", "cut_sets")
    for fn in ("rooted_dp", "generalized_rooted_path_dp", "GeneralizedCommodity"):
        add(f"exact.{fn}", "self_s", "calls")
    for fn in ("dp_umax", "dp_pmax", "dp_congestion"):
        add(f"param_path.{fn}", "self_s")
    add("param_path._update", "calls")
    add("bench.run_bench", "self_s")
    out.append(("bench.rows", "count"))
    add("cli.main", "self_s")
    out.append(("trace.overhead_frac", "ratio"))
    return out


def _import_fza() -> float:
    """Import fza from this checkout's src/; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "fza" / "__init__.py").is_file():
        raise SystemExit(f"error: no fza sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import fza.cli  # noqa: F401

    elapsed = perf_counter() - start
    if Path(sys.modules["fza"].__file__).resolve().parent != (src / "fza").resolve():
        raise SystemExit("error: fza was imported from outside this checkout")
    return elapsed


class Runner:
    def __init__(self, workload: str, seed: int):
        import workloads
        from hostspeed import HostSpeed

        self.name = workload
        self.seed = seed
        self.work = WORK / workload
        self.build = workloads.build
        self.speed = HostSpeed()
        self.executions: dict[str, int] = {}

    def setup(self, work: Path):
        """Write the instance files into `work` and warm up by validating each
        of them; returns (workload, seconds at reference speed)."""
        self.speed.sample()
        start = perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        workload = self.build(self.name, self.seed, work)
        main = sys.modules["fza.cli"].main
        with contextlib.redirect_stdout(io.StringIO()):
            for name in workload.manifest:
                main(["validate", "--input", str(work / f"{name}.json")])
        elapsed = perf_counter() - start
        self.speed.sample()
        return workload, self.speed.scale(start, elapsed)

    def execute(self, op, checker) -> tuple[float, float]:
        """Call fza once; returns (start, elapsed seconds)."""
        if op.is_bench:
            for f in ("report.csv", "summary.json"):
                (op.output / f).unlink(missing_ok=True)
        else:
            op.output.unlink(missing_ok=True)
        main = sys.modules["fza.cli"].main
        with contextlib.chdir(op.cwd):
            start = perf_counter()
            try:
                code = main(list(op.argv))
            except Exception:  # an op that raises is a failed op, not a failed run
                elapsed = perf_counter() - start
                traceback.print_exc(file=sys.stderr)
                code = -1
            else:
                elapsed = perf_counter() - start
        self.executions[op.key] = self.executions.get(op.key, 0) + 1
        checker.check(op, code)
        return start, elapsed

    def run_ops(self, ops, checker, deadline: float = 0.0, tracer=None, between=None):
        """Run the ops in order, cycling, until `perf_counter()` passes
        `deadline`, and at least once each. Returns (op, measured seconds,
        seconds at reference speed) per call; `between` runs after each op,
        outside the timing."""
        calls = []
        with contextlib.redirect_stdout(io.StringIO()):
            while len(calls) < len(ops) or perf_counter() < deadline:
                op = ops[len(calls) % len(ops)]
                if tracer is not None:
                    tracer.op_id = len(calls)
                self.speed.sample_if_due()
                calls.append((op, *self.execute(op, checker)))
                if between is not None:
                    between()
        self.speed.sample()
        return [(op, elapsed, self.speed.scale(start, elapsed)) for op, start, elapsed in calls]

    def failed(self, checker) -> int:
        return sum(self.executions.get(k, 0) for k in checker.bad)


def _describe(workload) -> None:
    for name, facts in workload.manifest.items():
        print(f"instance {name}: " + " ".join(f"{k}={v}" for k, v in facts.items()))


def _per_op(workload, calls, column: int) -> list[float]:
    """Each op's median time over its calls, in op-list order."""
    times: dict[str, list[float]] = {}
    for call in calls:
        times.setdefault(call[0].key, []).append(call[column])
    return [statistics.median(times[op.key]) for op in workload.ops]


def measure(runner: Runner, seconds: int, import_s: float) -> dict:
    """End-to-end metrics, in seconds at reference host speed (hostspeed.py).
    Each op's time is the median over its calls; set-ups are spread over the
    run and their median is kept."""
    from checks import Checker, load_golden

    runner.speed.sample()
    import_s = runner.speed.scale(runner.speed.times[-1], import_s)
    workload, took = runner.setup(runner.work)
    setups = [took]
    _describe(workload)
    checker = Checker(workload, load_golden().get(runner.name, {}))
    start = perf_counter()

    def spread_setups():
        if len(setups) < SETUP_REPEATS and perf_counter() >= start + len(setups) * seconds / SETUP_REPEATS:
            setups.append(runner.setup(runner.work.with_name(runner.name + "-setup"))[1])

    calls = runner.run_ops(workload.ops, checker, between=spread_setups)
    checker.cross_check()
    calls += runner.run_ops(workload.ops, checker, start + seconds, between=spread_setups)
    while len(setups) < SETUP_REPEATS:
        setups.append(runner.setup(runner.work.with_name(runner.name + "-setup"))[1])
    solves = sum(op.solves for op in workload.ops)
    op_s = _per_op(workload, calls, 2)
    raw = _per_op(workload, calls, 1)
    failed = runner.failed(checker)
    print(f"calls={len(calls)} ops={len(workload.ops)} solves per pass={solves}")
    print(f"failed_frac={failed / len(calls):.6f}")
    print(f"measured, not scaled: solves_per_s={solves / sum(raw):.6g} op_s.p50={statistics.median(raw):.6g} s")
    refs = runner.speed.refs
    print(f"reference kernel: median {statistics.median(refs) * 1e3:.3f} ms over {len(refs)} samples")
    if len(calls) >= 100:
        p90 = statistics.quantiles([c[2] for c in calls], n=10)[-1]
        print(f"op_s.p90 over all {len(calls)} calls = {p90:.6f} s")
    metrics = {
        "solves_per_s": (solves / sum(op_s), "1/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return _result(checker, len(calls), failed, metrics)


def trace(runner: Runner) -> dict:
    """Per-layer metrics of one traced pass. Span times are as measured;
    `trace.overhead_frac` compares the pass with an untraced one at
    reference speed."""
    from checks import Checker, load_golden
    from tracing import Tracer

    workload, _ = runner.setup(runner.work)
    _describe(workload)
    checker = Checker(workload, load_golden().get(runner.name, {}))
    plain = runner.run_ops(workload.ops, checker)
    checker.cross_check()
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_ops(workload.ops, checker, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(runner.work / "spans.jsonl")
    self_s = tracer.self_times()
    counts = tracer.counts
    derived = {
        "sublog.build_aux_instance.kept_ratio": counts["sublog.build_aux_instance.kept"]
        / max(1, counts["sublog.build_aux_instance.scanned"]),
        "trace.overhead_frac": sum(c[2] for c in traced) / sum(c[2] for c in plain) - 1,
    }
    metrics = {}
    for name, unit in layer_metrics():
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = self_s.get(name.removesuffix(".self_s"), 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = (value, unit)
    print(f"spans={len(tracer.spans)} -> {runner.work / 'spans.jsonl'}")
    return _result(checker, len(plain) + len(traced), runner.failed(checker), metrics)


def _result(checker, attempted: int, failed: int, metrics: dict) -> dict:
    for key, reason in list(checker.bad.items())[:20]:
        print(f"check failed: {key}: {reason}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    import_s = _import_fza()
    import workloads

    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runner = Runner(args.workload, args.seed)
    result = trace(runner) if args.trace else measure(runner, args.seconds, import_s)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
