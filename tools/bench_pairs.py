"""Run perfbench from two checkouts in alternating-order pairs and write the
result lines to a BENCH_<pr>.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_N.json \\
        --seed 901 oracle-batch=10 density-tree=3 sublog-tree=3 path-exact=3

Each WORKLOAD=PAIRS argument runs PAIRS pairs of that workload; pair j uses
seed `--seed` + j on both sides, and the parent runs first in even pairs, the
change in odd ones. Every run is the change's BENCHMARK.json `command` plus
`--workload W --seed S --seconds <run_seconds> --trace 0`, started in the
root of its checkout, and its last stdout line is kept. The file is
rewritten after every run, so an interrupted session keeps the pairs it
finished. At the end a summary prints, and the file keeps its lines under
`summary`: per workload, each side's failed and attempted ops, how many
pairs the side that ran first won on `solves_per_s` (a large share shows
order bias), and per end-to-end metric of BENCHMARK.json, each side's
median and quartiles, how many pairs the change won (ties count for neither
side) and whether the change's median is within the metric's bound. The exit status is 1, with one `error:` line on
stderr per cause, if any run reported `correct: false`, if a change median
is outside its metric's bound, or if the change failed a larger share of a
workload's ops than the parent.

`--claim WORKLOAD/METRIC` checks a claimed gain on one end-to-end metric by
the benchmark's rule: the change wins at least 9 of every 10 pairs (ties
count for neither side), and its median is better than the parent's by more
than the parent's quartile spread. With fewer than 10 complete pairs of the
workload the claim is not judged: the line says "too few pairs". A line says
whether it holds, and the exit status is 1 when it does not.

`--judge FILE --claim WORKLOAD/METRIC` runs nothing: it reads the runs of an
existing BENCH file, such as one made without `--claim`, and prints the
summary and verdict a run would end with, by the end-to-end metrics of the
BENCHMARK.json in FILE's directory, with the same exit status.

    python3 tools/bench_pairs.py --judge BENCH_N.json --claim sublog-tree/solves_per_s

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# fewer pairs cannot show a 9-of-10 win rate, and one pair has no quartile spread
MIN_CLAIM_PAIRS = 10


def describe(checkout: Path) -> str:
    """The checkout's commit, from git when it is a git work tree, else its directory name."""
    try:
        done = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return checkout.resolve().name
    label = done.stdout.strip()
    if label.endswith("-dirty"):
        return f"uncommitted changes on {label.removesuffix('-dirty')}"
    return label


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs: list[dict], metric: str, higher: bool) -> tuple[int, tuple, tuple]:
    """The pairs the change won on `metric` (ties count for neither side) and
    each side's quartiles (q1, median, q3)."""
    sides = {s: [p[s][metric]["value"] for p in pairs] for s in SIDES}
    wins = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
    return wins, quartiles(sides["parent"]), quartiles(sides["change"])


def complete_pairs(runs: list[dict], workload: str) -> list[dict]:
    """Per seed of `workload` with a run on both sides: side -> its metrics."""
    pairs: dict[int, dict] = {}
    for r in runs:
        if r["workload"] == workload:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    return [p for p in pairs.values() if len(p) == 2]


def first_run_wins(runs: list[dict]) -> tuple[int, int]:
    """The pairs of one workload's `runs` where the side that ran first had
    the higher `solves_per_s` (ties count for neither side), and the
    complete pairs whose runs record which side ran first."""
    pairs: dict[int, dict] = {}
    for r in runs:
        if "ran_first" in r:
            pairs.setdefault(r["seed"], {})[r["ran_first"]] = r["result"]["metrics"]["solves_per_s"]["value"]
    ordered = [p for p in pairs.values() if len(p) == 2]
    return sum(p[True] > p[False] for p in ordered), len(ordered)


def check_claim(runs: list[dict], end_to_end: list[dict], claim: str) -> tuple[str, bool]:
    """Whether the claimed gain WORKLOAD/METRIC holds: there are at least
    `MIN_CLAIM_PAIRS` complete pairs, the change wins at least 9 of every 10,
    and its median beats the parent's by more than the parent's quartile
    spread. Returns a summary line and the verdict."""
    workload, _, metric = claim.partition("/")
    higher = next(spec["better"] == "higher" for spec in end_to_end if spec["name"] == metric)
    pairs = complete_pairs(runs, workload)
    if len(pairs) < MIN_CLAIM_PAIRS:
        return f"claim {claim}: too few pairs ({len(pairs)} < {MIN_CLAIM_PAIRS})", False
    wins, (pq1, pmed, pq3), (_, cmed, _) = compare(pairs, metric, higher)
    gap = cmed - pmed if higher else pmed - cmed
    holds = 10 * wins >= 9 * len(pairs) and gap > pq3 - pq1
    return (
        f"claim {claim}: change better in {wins}/{len(pairs)} pairs (needs 9 of 10),"
        f" median gain {gap:.4g} vs parent IQR {pq3 - pq1:.4g}: {'holds' if holds else 'NO'}"
    ), holds


def summarize(runs: list[dict], end_to_end: list[dict]) -> tuple[list[str], list[str]]:
    """Per workload: each side's failed and attempted ops over all its runs,
    and, where the runs record their order, the pairs the first-run side won
    on `solves_per_s`. Then per end-to-end metric (BENCHMARK.json's
    `end_to_end` entries): each side's median and quartiles, the pairs the
    change won, whether the medians differ by more than the parent's
    quartile spread, and whether the change's median is within the metric's
    relative `bound` of the parent's.

    Returns those lines and the rejections: one message per change median
    outside its bound and per workload where the change failed a larger
    share of ops than the parent."""
    lines: list[str] = []
    rejected: list[str] = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        own = [r for r in runs if r["workload"] == workload]
        ops = {s: [r["result"] for r in own if r["side"] == s] for s in SIDES}
        totals = {s: (sum(r["failed"] for r in ops[s]), sum(r["attempted"] for r in ops[s])) for s in SIDES}
        lines.append(
            f"{workload:12} failed/attempted ops" + "".join(f"  {s} {totals[s][0]}/{totals[s][1]}" for s in SIDES)
        )
        (p_failed, p_attempted), (c_failed, c_attempted) = totals["parent"], totals["change"]
        wins, ordered = first_run_wins(own)
        if ordered:
            lines.append(f"{workload:12} side that ran first better on solves_per_s in {wins}/{ordered} pairs")
        if c_failed * p_attempted > p_failed * c_attempted:
            rejected.append(
                f"{workload}: the change failed {c_failed}/{c_attempted} ops, the parent {p_failed}/{p_attempted}"
            )
        complete = complete_pairs(own, workload)
        for spec in end_to_end if complete else ():
            metric, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
            wins, (pq1, pmed, pq3), (cq1, cmed, cq3) = compare(complete, metric, higher)
            beyond = abs(cmed - pmed) > pq3 - pq1
            within = cmed >= pmed * (1 - bound) if higher else cmed <= pmed * (1 + bound)
            lines.append(
                f"{workload:12} {metric:12} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]"
                f"  change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]"
                f"  change better in {wins}/{len(complete)} pairs"
                f"  |median diff| > parent IQR: {'yes' if beyond else 'no'}"
                f"  within bound {bound:g}: {'yes' if within else 'NO'}"
            )
            if not within:
                rejected.append(
                    f"{workload} {metric}: change median {cmed:.4g} is outside bound {bound:g} of parent median {pmed:.4g}"
                )
    return lines, rejected


def verdict(runs: list[dict], end_to_end: list[dict], claim: str | None) -> int:
    """Print the summary of `runs`, and the verdict on `claim` when one is
    made; then one `error:` line per rejection. Returns the exit status."""
    lines, rejected = summarize(runs, end_to_end)
    if claim:
        line, holds = check_claim(runs, end_to_end, claim)
        lines.append(line)
        if not holds:
            rejected.append(f"the claimed gain {claim} does not hold")
    print("\n".join(lines))
    rejected += [
        f"{r['workload']} seed {r['seed']} {r['side']} reported correct: false"
        for r in runs
        if not r["result"]["correct"]
    ]
    for message in rejected:
        print(f"error: {message}", file=sys.stderr)
    return 1 if rejected else 0


def check_claim_args(parser, claim: str, workloads, end_to_end: list[dict]) -> None:
    workload, _, metric = claim.partition("/")
    if workload not in workloads or metric not in {spec["name"] for spec in end_to_end}:
        parser.error(f"--claim takes a planned workload and an end-to-end metric, got {claim!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, help="root of the changed checkout")
    parser.add_argument("--out", type=Path, help="BENCH_<pr>.json to write")
    parser.add_argument("--seed", type=int, help="seed of the first pair")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC", help="check a claimed gain on one end-to-end metric")
    parser.add_argument("--judge", type=Path, metavar="FILE", help="judge --claim on the runs of an existing BENCH file")
    parser.add_argument("plan", nargs="*", metavar="WORKLOAD=PAIRS")
    args = parser.parse_args(argv)
    if args.judge:
        if not args.claim or args.plan or any((args.parent, args.change, args.out, args.seed is not None)):
            parser.error("--judge FILE takes --claim WORKLOAD/METRIC and nothing else")
        try:
            runs = json.loads(args.judge.read_text())["runs"]
            end_to_end = json.loads((args.judge.parent / "BENCHMARK.json").read_text())["end_to_end"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot read the runs of {args.judge} or the BENCHMARK.json beside it: {exc}")
        check_claim_args(parser, args.claim, {r["workload"] for r in runs}, end_to_end)
        return verdict(runs, end_to_end, args.claim)
    missing = [f"--{name}" for name in ("parent", "change", "out", "seed") if getattr(args, name) is None]
    if missing or not args.plan:
        parser.error(f"a run needs {', '.join(missing or ['a plan'])} (or --judge FILE)")
    plan = []
    for item in args.plan:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"expected WORKLOAD=PAIRS with PAIRS >= 1, got {item!r}")
        plan.append((workload, int(count)))
    checkouts = {"parent": args.parent, "change": args.change}
    for side, checkout in checkouts.items():
        if not (checkout / "BENCHMARK.json").is_file():
            parser.error(f"--{side} {checkout} has no BENCHMARK.json")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    if args.claim:
        check_claim_args(parser, args.claim, dict(plan), bench["end_to_end"])

    report = {
        "what": "perfbench end-to-end result lines, parent "
        f"{describe(args.parent)} vs change {describe(args.change)}, in alternating-order pairs",
        "command": f"{' '.join(bench['command'])} --workload <workload> --seed <seed> --seconds {seconds}"
        " --trace 0  (last stdout line), run from the root of a checkout of each side",
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()};"
        " times scaled by perfbench/hostspeed.py",
        "runs": [],
    }
    for workload, count in plan:
        for j in range(count):
            seed = args.seed + j
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(checkouts[side], bench["command"], workload, seed, seconds)
                report["runs"].append(
                    {"workload": workload, "seed": seed, "side": side, "ran_first": position == 0, "result": result}
                )
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                solves = result["metrics"]["solves_per_s"]["value"]
                print(
                    f"{workload} seed {seed} {side}: solves_per_s {solves:.4g},"
                    f" failed {result['failed']}/{result['attempted']} ops",
                    flush=True,
                )
    report["summary"], _ = summarize(report["runs"], bench["end_to_end"])
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return verdict(report["runs"], bench["end_to_end"], args.claim)


if __name__ == "__main__":
    sys.exit(main())
