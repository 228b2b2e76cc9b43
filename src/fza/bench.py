"""Benchmark runner: algorithms x instances x seeds, checked against an exact
oracle, with byte-deterministic reports.

Wall-clock timings are real but nondeterministic, so they go to a separate
timings.csv; report.csv and summary.json depend only on (config, seeds).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .density import (
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
)
from .exact import brute_force, gen_rooted_path, rooted_dp
from .files import dumps_canonical, read_instance
from .model import (
    CapacityError,
    FzaError,
    InvalidInstanceError,
    SolveResult,
    format_fraction,
)
from .param_path import dp_congestion, dp_pmax, dp_umax
from .sublog import sublog

# The one solver table behind `fza solve` and `fza bench`: name ->
# (callable(instance, seed, **extras), uses_seed); `fza solve` passes `root`,
# `cuts` or `diagnostics` only to a callable whose signature names it.
# perfbench/tracing.py swaps traced wrappers into this dict by identity and
# unpacks each entry as a (fn, uses_seed) pair, so that shape stays.
SOLVERS: dict[str, tuple[Callable[..., SolveResult], bool]] = {
    "brute": (lambda inst, seed: brute_force(inst), False),
    "rooted": (lambda inst, seed, root=0: rooted_dp(inst, root=root), False),
    "single-density": (single_density, True),
    "single-density-path": (lambda inst, seed: single_density_path(inst), False),
    "single-density-base": (lambda inst, seed: single_density_base(inst), False),
    "simplified": (simplified_single_density, True),
    "sublog": (sublog, True),
    "dp-umax": (lambda inst, seed: dp_umax(inst), False),
    "dp-pmax": (lambda inst, seed: dp_pmax(inst), False),
    "dp-cong": (lambda inst, seed: dp_congestion(inst), False),
    "gen-rooted-path": (gen_rooted_path, False),
}

ORACLES = ("brute", "dp-umax", "dp-pmax", "dp-cong")

REPORT_COLUMNS = (
    "instance",
    "algorithm",
    "seed",
    "status",
    "revenue",
    "oracle_revenue",
    "ratio",
    "num_cuts",
    "num_served",
)


@dataclass(frozen=True)
class BenchConfig:
    instances: tuple[str, ...]
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    oracle: str = "brute"

    def __post_init__(self) -> None:
        for name in self.algorithms + (self.oracle,):
            if name not in SOLVERS:
                raise InvalidInstanceError(f"unknown algorithm {name!r}")
        if self.oracle not in ORACLES:
            raise InvalidInstanceError(f"oracle must be one of {ORACLES}")
        if not self.instances:
            raise InvalidInstanceError("no instances configured")
        if not self.seeds:
            raise InvalidInstanceError("no seeds configured")
        for what, items in (
            ("instances", self.instances),
            ("algorithms", self.algorithms),
            ("seeds", self.seeds),
        ):
            if len(set(items)) < len(items):
                raise InvalidInstanceError(f"bench config {what} repeat an entry: {list(items)!r}")

    @classmethod
    def from_file(cls, path) -> "BenchConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls(
                instances=_json_list(data["instances"], "instances", str),
                algorithms=_json_list(data["algorithms"], "algorithms", str),
                seeds=_json_list(data.get("seeds", [0]), "seeds", int),
                oracle=data.get("oracle", "brute"),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise InvalidInstanceError(f"malformed bench config: {exc}") from exc


def _json_list(value, what: str, kind: type) -> tuple:
    """A JSON list of `kind` items; booleans are refused rather than read as ints."""
    if isinstance(value, list) and all(type(v) is kind for v in value):
        return tuple(value)
    raise InvalidInstanceError(f"bench config {what} must be a list of {kind.__name__}, got {value!r}")


def run_bench(config: BenchConfig, output_dir) -> dict:
    """Execute the grid and write report.csv, summary.json, timings.csv."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    loaded = {name: read_instance(name) for name in config.instances}

    opt: dict[str, Fraction | None] = {}
    for name, inst in sorted(loaded.items()):
        try:
            opt[name] = SOLVERS[config.oracle][0](inst, 0).revenue
        except (CapacityError, InvalidInstanceError):
            opt[name] = None  # row gets marked, never fabricated

    rows = []
    timings = []
    for name in sorted(loaded):
        inst = loaded[name]
        for algo in sorted(config.algorithms):
            fn, uses_seed = SOLVERS[algo]
            for seed in sorted(config.seeds) if uses_seed else [0]:
                start = time.perf_counter()
                try:
                    result = fn(inst, seed)
                except FzaError:
                    result = None
                elapsed = time.perf_counter() - start
                oracle_rev = opt[name]
                if result is None:
                    status, revenue, cuts, served = "solver-error", "", "", ""
                    oracle_str, ratio = "", ""
                elif oracle_rev is None:
                    status = "oracle-unavailable"
                    revenue = format_fraction(result.revenue)
                    cuts, served = len(result.cuts), sum(result.served)
                    oracle_str, ratio = "", ""
                else:
                    status = "ok"
                    revenue = format_fraction(result.revenue)
                    cuts, served = len(result.cuts), sum(result.served)
                    oracle_str = format_fraction(oracle_rev)
                    ratio = (
                        "1"
                        if oracle_rev == 0
                        else format_fraction(result.revenue / oracle_rev)
                    )
                rows.append(
                    {
                        "instance": name,
                        "algorithm": algo,
                        "seed": seed,
                        "status": status,
                        "revenue": revenue,
                        "oracle_revenue": oracle_str,
                        "ratio": ratio,
                        "num_cuts": cuts,
                        "num_served": served,
                    }
                )
                timings.append((name, algo, seed, elapsed))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    (out / "report.csv").write_text(buf.getvalue(), encoding="utf-8")

    summary: dict = {"oracle": config.oracle, "rows": len(rows), "algorithms": {}}
    for algo in sorted(config.algorithms):
        ratios = [
            Fraction(r["ratio"]) for r in rows if r["algorithm"] == algo and r["ratio"]
        ]
        if ratios:
            mean = sum(ratios, Fraction(0)) / len(ratios)
            summary["algorithms"][algo] = {
                "mean_ratio": format_fraction(mean),
                "min_ratio": format_fraction(min(ratios)),
                "rows": len(ratios),
            }
        else:
            summary["algorithms"][algo] = {"mean_ratio": "", "min_ratio": "", "rows": 0}
    (out / "summary.json").write_text(dumps_canonical(summary), encoding="utf-8")

    tbuf = io.StringIO()
    twriter = csv.writer(tbuf, lineterminator="\n")
    twriter.writerow(("instance", "algorithm", "seed", "seconds"))
    for name, algo, seed, elapsed in timings:
        twriter.writerow((name, algo, seed, f"{elapsed:.6f}"))
    (out / "timings.csv").write_text(tbuf.getvalue(), encoding="utf-8")
    return summary
