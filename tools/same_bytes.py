"""Run one fixed, seeded corpus of `fza.cli.main` calls against two checkouts
and report the first call whose output differs.

    python3 tools/same_bytes.py PARENT CHANGE

Each checkout gets one worker process: this script with `--worker`, started
with only the checkout's `src` and root on PYTHONPATH, in a temporary
directory of its own. The worker builds the corpus, calls `fza.cli.main`
in-process once per call and writes one JSON record per call: the exit code
(or the exception the call raised), stdout, stderr and every file the call
names with `--output` or `--output-dir`. The one nondeterministic column the
program writes, the seconds of `timings.csv`, is dropped before the compare.
Paths in argv are relative, so error messages name the same files on both
sides.

The corpus, in run order: the `fza gen random` calls that write the shared
inputs, then these groups.

- gen: `fza gen random`, `star-sat` and `path-sat`, malformed options and
  clause lists included, and `gen random` over its vertex and commodity
  caps.
- reader: `fza validate` on every shared input, `validate` and
  `solve --algo brute` on seeded mutations of small instance files, every
  solver on files whose commodities both merge and clamp, `validate` and
  `solve --algo sublog` on files that are not instances at all, a file one
  vertex over `model.MAX_VERTICES`, and malformed command lines.
- sublog: `solve --algo sublog` on every shared input, once to stdout and
  once with `--diagnostics` to a file; then with `--diagnostics` on two
  random paths, two stars and two caterpillars of 2,000 to 5,000
  vertices with k = n, whose diagnostics list the edges of every fragment
  that holds a commodity, so the decomposition is compared at scale; plus
  perfbench's sublog-tree (instance, seed) pairs both ways when the
  checkout has `perfbench/`.
- density: the four density solvers on a quarter of the shared inputs,
  then on one random path and one random tree of 1,500 vertices with
  k = n, affine pricing and fractional weights (max weight 1000 on the
  path, 10 on the tree), so that commodities are cut many times and the
  scaled weights span many bit planes; then on one path and one tree of
  400 vertices with k = n, affine pricing, budgets of 0 to 6 and weights
  over the first 400 primes as denominators, whose scaled weights are
  wider than k, so every weight and top sum goes item by item.
- single-density: `solve --algo single-density` at four seeds (one to a
  file), and `single-density-path` on the paths, on random trees and
  paths of 500 to 3,000 vertices with fractional weights: eight from
  `fza gen random` with capped pricing, and eight with prices capped at 1
  to 3 cuts, four with k = n and budgets of 0 to 6, where many
  commodities are cut past their budget, and four with 4 to 12
  commodities and budgets of 1 to 6, where bucket bounds tie the best
  score. Then `single-density-base` on copies of those eight priced one
  higher at every cut count, f(0) = 1, where bounds prune little and
  where they tie.
- paths: `dp-umax`, `dp-pmax`, `dp-cong` and `gen-rooted-path` (at cut
  counts 0, 1, 2 and m, one past m, and a root inside the path) on small
  paths with short commodities, all three DPs on paths where several
  commodities enter at one position and one spans the whole path,
  `dp-pmax` on a path whose commodity is wider than its window budget,
  each DP on a dense path over its guard, and all three on a tree over two
  of them.
- congestion: `validate`, `solve --algo dp-cong` and `solve --algo brute`
  on a random path and a random tree of 2,000 vertices with k = n, and on
  a 2,000-vertex path with 2,000 commodities from vertex 0 to its last
  three vertices: inputs whose congestion is large and whose refusals
  come after it is read.
- rooted: `solve --algo rooted` at the instance's root and off it, and
  brute force where it fits, on rooted trees; then brute force on one
  shared input with more edges than it takes.
- bench: `fza bench` grids over small shared inputs with every solver and
  oracle, two grids whose oracle refuses the first instance and runs on
  the second, grids that run `sublog` at six seeds over three shared
  inputs and, when the checkout has `perfbench/`, over sublog-tree's
  instances, each listing its instances and seeds out of order, and
  malformed configs.

The exit status is 0 when every record matches, 1 on the first difference
(printed with the call's argv and the first differing line), and 2 when a
worker fails. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SIDES = ("parent", "change")
NUM_INPUTS = 600
SOLVER_NAMES = (
    "brute", "rooted", "single-density", "single-density-path", "single-density-base",
    "simplified", "sublog", "dp-umax", "dp-pmax", "dp-cong", "gen-rooted-path",
)
ORACLE_NAMES = ("brute", "dp-umax", "dp-pmax", "dp-cong")
# values a mutated instance file may hold in a field: odd ones, and ones
# that a field often accepts
ODD_VALUES = (None, True, False, -1, 2.5, "x", "1/0", "-1", [], {}, [1], [0, 1], "9" * 30, 10**30)
PLAUSIBLE_VALUES = (0, 1, 2, 3, 4, 5, "1", "2", "5/2", "3", " 4 ", "007", ".5", "3.0")


# --- the corpus --------------------------------------------------------------
# A call is (group, cwd, argv), cwd relative to the worker's directory. The
# generators below write the input files a call reads just before yielding it.


def _write(path: str, text) -> str:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if isinstance(text, bytes):
        Path(path).write_bytes(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
    return path


def _pricing(rng: random.Random, n: int) -> list[str]:
    """A non-negative, non-decreasing, concave table of at least n values."""
    length = n + rng.randint(0, 2)
    steps = sorted((Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3))) for _ in range(length - 1)), reverse=True)
    values = [Fraction(rng.choice((0, 0, 1, 2)))]
    for step in steps:
        values.append(values[-1] + step)
    return [str(v) for v in values]


def _instance(n: int, edges, prices, commodities) -> dict:
    return {
        "version": 1,
        "num_vertices": n,
        "edges": [list(e) for e in edges],
        "pricing": prices,
        "commodities": [{"s": s, "t": t, "u": u, "w": w} for s, t, u, w in commodities],
    }


def _weight(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3))))


def _random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a random tree on 0..n-1, each edge in a random orientation."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = []
    for v in range(1, n):
        pair = (labels[rng.randrange(v)], labels[v])
        edges.append(pair if rng.random() < 0.5 else pair[::-1])
    rng.shuffle(edges)
    return edges


def _shaped_tree(rng: random.Random, n: int, shape: str) -> list[tuple[int, int]]:
    """Edges of a random "path", "star" or "caterpillar" (a spine of a third
    of the vertices, the rest on random spine vertices) on 0..n-1, with
    shuffled labels, edge order and edge orientation."""
    if shape == "path":
        edges = [(v - 1, v) for v in range(1, n)]
    elif shape == "star":
        edges = [(0, v) for v in range(1, n)]
    else:
        spine = n // 3
        edges = [(v - 1, v) for v in range(1, spine)] + [(rng.randrange(spine), v) for v in range(spine, n)]
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u]) for u, v in edges]
    rng.shuffle(edges)
    return edges


def input_specs() -> list[dict]:
    """The shared `fza gen random` inputs: mostly small, some up to 400 vertices."""
    rng = random.Random("same-bytes/inputs")
    specs = []
    for i in range(NUM_INPUTS):
        roll = rng.random()
        n = rng.randint(2, 40) if roll < 0.6 else rng.randint(41, 150) if roll < 0.9 else rng.randint(151, 400)
        specs.append({
            "path": f"in/r{i}.json",
            "shape": "path" if rng.random() < 0.3 else "tree",
            "n": n,
            "k": rng.choice((0, 1, n // 2, n, n, n, 2 * n)),
            "pricing": rng.choice(("linear", "affine", "capped")),
            "max_weight": rng.choice((1, 10, 10, 1000)),
            "fractional": rng.random() < 0.4,
            "seed": rng.randrange(10**6),
        })
    return specs


def gen_inputs(specs):
    for s in specs:
        argv = [
            "gen", "random", "--shape", s["shape"], "--vertices", str(s["n"]),
            "--commodities", str(s["k"]), "--pricing", s["pricing"],
            "--max-weight", str(s["max_weight"]), "--seed", str(s["seed"]), "--output", s["path"],
        ]
        yield "gen", ".", argv + ["--fractional-weights"] * s["fractional"]


def gen_group(specs):
    rng = random.Random("same-bytes/gen")
    for i in range(160):
        num_vars = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 5)):
            a, b = (rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(2))
            clauses.append(f"{a} {b}")
        family = "star-sat" if i % 2 else "path-sat"
        argv = ["gen", family, "--clauses", ", ".join(clauses), "--output", f"out/sat{i}.json"]
        if rng.random() < 0.3:
            argv += ["--num-vars", str(num_vars + rng.randint(-1, 1))]
        if family == "path-sat" and rng.random() < 0.3:
            argv += ["--big-m", rng.choice(("1", "7", "3/2", "0", "x", "1e9"))]
        yield "gen", ".", argv
    for clauses in ("1", "1 2 3", "0 1", "a b", "１ 2", "", ",", "1 -1", "1 1", "1 2, 1 -2, -1 2, -1 -2"):
        yield "gen", ".", ["gen", "star-sat", "--clauses", clauses, "--output", "out/bad.json"]
    yield "gen", ".", ["gen", "path-sat", "--output", "out/bad.json"]
    for extra in (
        ["--vertices", "0"], ["--vertices", "1", "--commodities", "3"], ["--vertices", "1", "--commodities", "0"],
        ["--max-weight", "0"], ["--commodities", "-1"], ["--pricing", "bogus"], ["--shape", "star"],
        ["--vertices", "1_0"], ["--seed", "-5"], ["--fractional-weights", "--max-weight", "1"],
        ["--vertices", "100001"], ["--commodities", "100001"],
    ):
        yield "gen", ".", ["gen", "random", *extra, "--output", "out/bad.json"]


def _mutated(data, rng: random.Random):
    """A copy of `data` with one field at any depth replaced by an odd or a
    plausible value or, one time in ten for an object's field, removed."""
    out = json.loads(json.dumps(data))
    holders = []

    def walk(value):
        keys = sorted(value) if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
        for key in keys:
            holders.append((value, key))
            walk(value[key])

    walk(out)
    holder, key = rng.choice(holders)
    if isinstance(holder, dict) and rng.random() < 0.1:
        del holder[key]
    else:
        holder[key] = rng.choice(rng.choice((ODD_VALUES, PLAUSIBLE_VALUES)))
    return out


def reader_group(specs):
    for s in specs:
        yield "reader", ".", ["validate", "--input", s["path"]]
    rng = random.Random("same-bytes/reader")
    for i in range(400):
        n = rng.randint(2, 8)
        commodities = []
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(range(n), 2)
            commodities.append((a, b, rng.randint(0, 3), _weight(rng)))
        data = _mutated(_instance(n, _random_tree(rng, n), _pricing(rng, n), commodities), rng)
        path = _write(f"in/mut{i}.json", json.dumps(data))
        yield "reader", ".", ["validate", "--input", path]
        yield "reader", ".", ["solve", "--algo", "brute", "--input", path]
    # commodities from vertex 0 on paths and trees that merge and clamp:
    # repeats of one path under either endpoint order, some with budgets past
    # every path length, each file solved by every algorithm
    rng = random.Random("same-bytes/merge-clamp")
    for i in range(8):
        n = rng.randint(3, 12)
        edges = [(v, v + 1) for v in range(n - 1)] if i % 2 == 0 else _random_tree(rng, n)
        commodities = []
        for far in rng.sample(range(1, n), rng.randint(1, min(4, n - 1))):
            for _ in range(rng.randint(2, 3)):
                pair = (0, far) if rng.random() < 0.5 else (far, 0)
                commodities.append((*pair, rng.choice((rng.randint(0, 2), n, n + 3)), _weight(rng)))
        path = _write(f"in/merge{i}.json", json.dumps(_instance(n, edges, _pricing(rng, n), commodities)))
        for algo in SOLVER_NAMES:
            extra = ["--cuts", str(rng.randint(0, n - 1))] if algo == "gen-rooted-path" else ["--seed", str(i)]
            yield "reader", ".", ["solve", "--algo", algo, "--input", path, *extra]
    raw = {
        "empty": "",
        "not-json": "not json",
        "truncated": '{"version": 1, "num_vertices": 2',
        "bad-utf8": b'{"version": 1}\xff',
        "deep": "[" * 100_000,
        "long-int": '{"version": ' + "1" * 5000 + "}",
        "list": "[1, 2]",
        "nan": '{"version": 1, "num_vertices": NaN, "edges": [], "pricing": ["0"], "commodities": []}',
    }
    for name, text in raw.items():
        path = _write(f"in/raw-{name}.json", text)
        yield "reader", ".", ["validate", "--input", path]
        yield "reader", ".", ["solve", "--algo", "sublog", "--input", path]
    # one vertex over `model.MAX_VERTICES`: refused before the root-path table
    huge = _instance(100_001, ((v, v + 1) for v in range(100_000)), ["0", "1"], ())
    yield "reader", ".", ["validate", "--input", _write("in/huge.json", json.dumps(huge))]
    for argv in (
        ["validate", "--input", "in/missing.json"],
        ["validate", "--input", "in"],
        ["solve", "--algo", "nope", "--input", specs[0]["path"]],
        ["solve", "--algo", "sublog", "--input", specs[0]["path"], "--seed", "1_0"],
        ["solve", "--algo", "sublog", "--input", specs[0]["path"], "--seed", "５"],
        ["solve", "--algo", "rooted", "--input", specs[0]["path"], "--root", "-1"],
        ["solve", "--algo", "sublog", "--input", specs[0]["path"], "--output", "in/no-such-dir/x.json"],
        ["validate"],
        [],
    ):
        yield "reader", ".", argv


def sublog_group(specs):
    rng = random.Random("same-bytes/sublog")
    for i, s in enumerate(specs):
        seed = str(rng.randrange(1000))
        yield "sublog", ".", ["solve", "--algo", "sublog", "--input", s["path"], "--seed", seed]
        yield "sublog", ".", [
            "solve", "--algo", "sublog", "--input", s["path"], "--seed", seed,
            "--diagnostics", "--output", f"out/sublog{i}.json",
        ]
    # random paths, stars and caterpillars of 2,000 to 5,000 vertices with
    # k = n: the diagnostics list the edges of every fragment that holds a
    # commodity, so the decomposition is compared at scale, along long
    # chains of one-child vertices and around hubs
    for i, shape in enumerate(("path", "star", "caterpillar") * 2):
        n = rng.randint(2000, 5000)
        commodities = [(*rng.sample(range(n), 2), rng.randint(0, 8), _weight(rng)) for _ in range(n)]
        data = _instance(n, _shaped_tree(rng, n, shape), _pricing(rng, n), commodities)
        path = _write(f"in/sublog-{shape}{i}.json", json.dumps(data))
        yield "sublog", ".", [
            "solve", "--algo", "sublog", "--input", path, "--seed", str(i),
            "--diagnostics", "--output", f"out/sublog-{shape}{i}.json",
        ]
    try:
        from perfbench import workloads
    except ImportError:
        return
    for op in workloads.build("sublog-tree", 0, Path("perfbench")).ops:
        cwd = str(op.cwd)
        yield "sublog", cwd, list(op.argv)
        yield "sublog", cwd, [*op.argv, "--diagnostics"]


def density_group(specs):
    rng = random.Random("same-bytes/density")
    for s in specs[::4]:
        seed = str(rng.randrange(1000))
        for algo in ("single-density", "simplified"):
            yield "density", ".", ["solve", "--algo", algo, "--input", s["path"], "--seed", seed]
        for algo in ("single-density-base", "single-density-path"):
            yield "density", ".", ["solve", "--algo", algo, "--input", s["path"]]
    # k = n on 1,500 vertices: commodities cut many times, and scaled weights
    # of about 15 bits (max weight 10) and over 1,000 bits (max weight 1000)
    for shape, max_weight in (("path", "1000"), ("tree", "10")):
        path = f"in/dense-{shape}.json"
        yield "density", ".", [
            "gen", "random", "--shape", shape, "--vertices", "1500", "--commodities", "1500", "--pricing", "affine",
            "--max-weight", max_weight, "--fractional-weights", "--seed", "33", "--output", path,
        ]
        for algo in ("single-density", "simplified"):
            yield "density", ".", ["solve", "--algo", algo, "--input", path, "--seed", "5"]
        for algo in ("single-density-base", "single-density-path"):
            yield "density", ".", ["solve", "--algo", algo, "--input", path]
    # weights over distinct prime denominators: scaled weights of thousands
    # of bits, wider than k, so every weight and top sum goes item by item
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    for shape in ("path", "tree"):
        n = 400
        edges = [(v, v + 1) for v in range(n - 1)] if shape == "path" else _random_tree(rng, n)
        commodities = [(*rng.sample(range(n), 2), rng.randint(0, 6), f"{rng.randint(1, 9)}/{p}") for p in primes[:n]]
        path = _write(f"in/wide-{shape}.json", json.dumps(_instance(n, edges, [str(x + 1) for x in range(n)], commodities)))
        for algo in ("single-density", "simplified"):
            yield "density", ".", ["solve", "--algo", algo, "--input", path, "--seed", "7"]
        for algo in ("single-density-base", "single-density-path"):
            yield "density", ".", ["solve", "--algo", algo, "--input", path]


def single_density_group(specs):
    rng = random.Random("same-bytes/single-density")
    inputs = []  # (file, whether its tree is a path)
    for i in range(8):
        n = rng.randint(500, 3000)
        path = f"in/single-density{i}.json"
        yield "single-density", ".", [
            "gen", "random", "--shape", ("tree", "path")[i % 2], "--vertices", str(n),
            "--commodities", str(n // rng.choice((1, 2, 4))), "--pricing", "capped",
            "--max-weight", rng.choice(("10", "1000")), "--fractional-weights", "--seed", str(3500 + i), "--output", path,
        ]
        inputs.append((path, i % 2 == 1))
    # prices capped at 1 to 3 cuts: with k = n and budgets 0 to 6, many
    # commodities cut past their budget; with a few commodities and budgets
    # 1 to 6, an early candidate earns the most any cut set can, and every
    # bucket that cuts each commodity ties it. Each also gets a copy priced
    # one higher at every cut count, f(0) = 1, for `single-density-base`
    base_inputs = []
    for i in range(8):
        n = rng.randint(500, 3000)
        edges = _random_tree(rng, n) if i % 2 else [(v, v + 1) for v in range(n - 1)]
        cap = rng.randint(1, 3)
        k, low = (n, 0) if i < 4 else (rng.randint(4, 12), 1)
        commodities = [(*rng.sample(range(n), 2), rng.randint(low, 6), _weight(rng)) for _ in range(k)]
        data = _instance(n, edges, [str(min(x, cap)) for x in range(n)], commodities)
        inputs.append((_write(f"in/single-density-cap{i}.json", json.dumps(data)), i % 2 == 0))
        data["pricing"] = [str(1 + min(x, cap)) for x in range(n)]
        base_inputs.append(_write(f"in/single-density-base{i}.json", json.dumps(data)))
    for i, (path, is_path) in enumerate(inputs):
        for seed in rng.sample(range(10**4), 3):
            yield "single-density", ".", ["solve", "--algo", "single-density", "--input", path, "--seed", str(seed)]
        yield "single-density", ".", [
            "solve", "--algo", "single-density", "--input", path, "--seed", str(i), "--output", f"out/single-density{i}.json",
        ]
        if is_path:
            yield "single-density", ".", ["solve", "--algo", "single-density-path", "--input", path]
    for path in base_inputs:
        yield "single-density", ".", ["solve", "--algo", "single-density-base", "--input", path]


def paths_group(specs):
    rng = random.Random("same-bytes/paths")
    for i in range(110):
        n = rng.randint(2, 16)
        labels = list(range(n))
        rng.shuffle(labels)
        rooted = i % 2 == 0
        commodities = []
        for _ in range(rng.randint(0, 16)):
            if rooted:
                a, b = 0, rng.randint(1, n - 1)
            else:
                a = rng.randrange(n - 1)
                b = rng.randint(a + 1, min(n - 1, a + 6))
            commodities.append((labels[a], labels[b], rng.randint(0, min(3, b - a)), _weight(rng)))
        edges = [(labels[j], labels[j + 1]) for j in range(n - 1)]
        path = _write(f"in/path{i}.json", json.dumps(_instance(n, edges, _pricing(rng, n), commodities)))
        for algo in ("dp-umax", "dp-pmax", "dp-cong"):
            yield "paths", ".", ["solve", "--algo", algo, "--input", path]
        # every cut count that fits at the rooted end, then a count one past
        # it, and a root inside the path
        tries = [(labels[0], cuts) for cuts in sorted({0, 1, 2, n - 1})] if rooted else []
        tries += [(labels[0], n), (labels[n // 2], 1)] if i % 10 < 2 else []
        for root, cuts in tries:
            argv = ["solve", "--algo", "gen-rooted-path", "--input", path, "--root", str(root), "--cuts", str(cuts)]
            yield "paths", ".", argv
    for s in specs:
        if s["shape"] == "path" and s["n"] <= 12:
            for algo in ("dp-umax", "dp-pmax", "dp-cong"):
                yield "paths", ".", ["solve", "--algo", algo, "--input", s["path"]]
    # a 21-edge commodity: dp-pmax's window would exceed 2^20
    wide = _instance(22, ((v, v + 1) for v in range(21)), [str(x) for x in range(22)], [(0, 21, 1, "1")])
    yield "paths", ".", ["solve", "--algo", "dp-pmax", "--input", _write("in/path-wide.json", json.dumps(wide))]
    # two or three commodities entering at each of two positions, and one
    # over the whole path: every DP, dp-cong's entering slots above all
    rng = random.Random("same-bytes/entering")
    for i in range(12):
        n = rng.randint(3, 10)
        commodities = [(0, n - 1, rng.randint(0, 2), _weight(rng))]
        for a in rng.sample(range(n - 1), 2):
            for _ in range(rng.randint(2, 3)):
                commodities.append((a, rng.randint(a + 1, min(n - 1, a + 3)), rng.randint(0, 2), _weight(rng)))
        entering = _instance(n, ((v, v + 1) for v in range(n - 1)), _pricing(rng, n), commodities)
        path = _write(f"in/path-entering{i}.json", json.dumps(entering))
        for algo in ("dp-umax", "dp-pmax", "dp-cong"):
            yield "paths", ".", ["solve", "--algo", algo, "--input", path]
    # a dense path over each DP's guard, run through that DP, then a tree
    # over dp-umax's and dp-pmax's, which every DP refuses as not a path
    rng = random.Random("same-bytes/over-guard")
    n = 40
    for algo, top, length in (("dp-umax", 4, 8), ("dp-pmax", 2, n - 1), ("dp-cong", 3, 8)):
        commodities = []
        for _ in range(60):
            a = rng.randrange(n - 1)
            b = rng.randint(a + 1, min(n - 1, a + length))
            commodities.append((a, b, rng.randint(0, min(top, b - a)), _weight(rng)))
        commodities.append((0, n - 1, top, "1"))
        dense = _instance(n, ((v, v + 1) for v in range(n - 1)), _pricing(rng, n), commodities)
        yield "paths", ".", ["solve", "--algo", algo, "--input", _write(f"in/over-{algo}.json", json.dumps(dense))]
    broom = _instance(n, [(v, v + 1) for v in range(n - 2)] + [(1, n - 1)], _pricing(rng, n), [(0, n - 2, 4, "1")])
    path = _write("in/over-tree.json", json.dumps(broom))
    for algo in ("dp-umax", "dp-pmax", "dp-cong"):
        yield "paths", ".", ["solve", "--algo", algo, "--input", path]


def congestion_group(specs):
    n = 2000
    paths = []
    for shape in ("path", "tree"):
        path = f"in/congested-{shape}.json"
        yield "congestion", ".", [
            "gen", "random", "--shape", shape, "--vertices", str(n), "--commodities", str(n),
            "--pricing", "affine", "--seed", "34", "--output", path,
        ]
        paths.append(path)
    # budgets i // 3 on three far ends, so no two commodities merge
    fan = _instance(n, ((v, v + 1) for v in range(n - 1)), [str(x) for x in range(n)],
                    [(0, n - 3 + i % 3, i // 3, "1") for i in range(n)])
    paths.append(_write("in/congested-fan.json", json.dumps(fan)))
    for path in paths:
        yield "congestion", ".", ["validate", "--input", path]
        for algo in ("dp-cong", "brute"):
            yield "congestion", ".", ["solve", "--algo", algo, "--input", path]


def rooted_group(specs):
    rng = random.Random("same-bytes/rooted")
    for i in range(120):
        n = rng.randint(2, 40)
        root = rng.randrange(n)
        commodities = []
        for _ in range(rng.randint(0, 2 * n)):
            far = rng.choice([v for v in range(n) if v != root])
            pair = (root, far) if rng.random() < 0.5 else (far, root)
            commodities.append((*pair, rng.randint(0, 4), _weight(rng)))
        data = _instance(n, _random_tree(rng, n), _pricing(rng, n), commodities)
        path = _write(f"in/rooted{i}.json", json.dumps(data))
        yield "rooted", ".", ["solve", "--algo", "rooted", "--input", path, "--root", str(root)]
        yield "rooted", ".", ["solve", "--algo", "rooted", "--input", path, "--root", str((root + 1) % n)]
        if n <= 13:
            yield "rooted", ".", ["solve", "--algo", "brute", "--input", path, "--output", f"out/brute{i}.json"]
    # more edges than brute force takes
    big = next(s["path"] for s in specs if s["n"] > 25)
    yield "rooted", ".", ["solve", "--algo", "brute", "--input", big, "--output", "out/brute-big.json"]


def bench_group(specs):
    rng = random.Random("same-bytes/bench")
    small = [s["path"] for s in specs if s["n"] <= 12]
    for i in range(30):
        config = {
            "instances": rng.sample(small, rng.randint(1, 4)),
            "algorithms": rng.sample(SOLVER_NAMES, rng.randint(1, 6)),
            "seeds": rng.sample(range(20), rng.randint(1, 3)),
            "oracle": ORACLE_NAMES[0] if i % 3 else rng.choice(ORACLE_NAMES),
        }
        path = _write(f"in/bench{i}.json", json.dumps(config))
        yield "bench", ".", ["bench", "--config", path, "--output-dir", f"out/bench{i}"]
    # grids whose oracle refuses the first instance (by name) and runs on the
    # second: a tree before a path for dp-umax, 30 edges before 5 for brute
    rng = random.Random("same-bytes/bench-oracle")
    for oracle, first in (("dp-umax", _random_tree(rng, 8)), ("brute", [(v, v + 1) for v in range(30)])):
        names = []
        for edges in (first, [(v, v + 1) for v in range(5)]):
            n = len(edges) + 1
            commodities = [(*sorted(rng.sample(range(n), 2)), rng.randint(0, 2), _weight(rng)) for _ in range(n)]
            data = _instance(n, edges, _pricing(rng, n), commodities)
            names.append(_write(f"in/bench-{oracle}-{len(names)}.json", json.dumps(data)))
        config = {"instances": names, "algorithms": ["dp-cong", "sublog", "single-density"], "seeds": [0, 3], "oracle": oracle}
        path = _write(f"in/bench-{oracle}.json", json.dumps(config))
        yield "bench", ".", ["bench", "--config", path, "--output-dir", f"out/bench-{oracle}"]
    # sublog at six seeds per instance, instances and seeds listed out of
    # order: an instance's later seeds reuse what its first seed worked out
    rng = random.Random("same-bytes/bench-sublog")
    for i in range(12):
        config = {
            "instances": rng.sample([s["path"] for s in specs], 3),
            "algorithms": ["sublog", "simplified"] if i % 2 else ["sublog"],
            "seeds": rng.sample(range(1000), 6),
        }
        path = _write(f"in/bench-sublog{i}.json", json.dumps(config))
        yield "bench", ".", ["bench", "--config", path, "--output-dir", f"out/bench-sublog{i}"]
    try:
        from perfbench import workloads
    except ImportError:
        pass
    else:
        ops = workloads.build("sublog-tree", 0, Path("perfbench")).ops
        names = sorted({str(op.instance) for op in ops}, reverse=True)
        config = {"instances": names, "algorithms": ["sublog"], "seeds": [4, 1, 0, 5, 3, 2]}
        path = _write("in/bench-sublog-tree.json", json.dumps(config))
        yield "bench", ".", ["bench", "--config", path, "--output-dir", "out/bench-sublog-tree"]
    good = {"instances": small[:2], "algorithms": ["sublog", "simplified"], "seeds": [0, 1]}
    for name, config in {
        "no-instances": {**good, "instances": []},
        "missing-key": {"algorithms": ["sublog"]},
        "bool-seed": {**good, "seeds": [True]},
        "str-seed": {**good, "seeds": ["1"]},
        "unknown-algo": {**good, "algorithms": ["nope"]},
        "repeat": {**good, "seeds": [1, 1]},
        "bad-oracle": {**good, "oracle": "sublog"},
        "missing-file": {**good, "instances": ["in/missing.json"]},
        "malformed-file": {**good, "instances": ["in/raw-list.json"]},
        "not-object": [1],
    }.items():
        path = _write(f"in/bench-{name}.json", json.dumps(config))
        yield "bench", ".", ["bench", "--config", path, "--output-dir", f"out/bench-{name}"]
    yield "bench", ".", ["bench", "--config", _write("in/bench-not-json.json", "{"), "--output-dir", "out/b"]


BUILDERS = {
    "gen": gen_group, "reader": reader_group, "sublog": sublog_group, "density": density_group,
    "single-density": single_density_group, "paths": paths_group, "congestion": congestion_group,
    "rooted": rooted_group, "bench": bench_group,
}


def corpus():
    for name in ("in", "out"):
        Path(name).mkdir(exist_ok=True)
    specs = input_specs()
    return itertools.chain(gen_inputs(specs), *(build(specs) for build in BUILDERS.values()))


# --- the worker --------------------------------------------------------------


def _read(path: Path) -> str:
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    if path.name == "timings.csv":
        # wall-clock seconds are the one nondeterministic column fza writes
        text = "".join(line.rpartition(",")[0] + "\n" for line in text.splitlines())
    return text


def written(argv) -> dict:
    """Every file the call names as its output, by path relative to the
    call's directory; a named output that does not exist maps to None."""
    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag not in ("--output", "--output-dir"):
            continue
        target = Path(value)
        if target.is_dir():
            for f in sorted(p for p in target.rglob("*") if p.is_file()):
                files[str(f)] = _read(f)
        else:
            files[value] = _read(target) if target.is_file() else None
        # inputs stay; a call's own outputs go once read
        if target.parts[:1] != ("out",):
            continue
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink(missing_ok=True)
    return files


def run_call(main, cwd: str, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                # a crash is an output too; its traceback is left out, since
                # it names files inside each checkout
                code = f"raised {type(exc).__name__}: {exc}"
        files = written(argv)
    finally:
        os.chdir(home)
    return {"cwd": cwd, "argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def worker(records: Path) -> int:
    import fza
    from fza.cli import main

    with records.open("w", encoding="utf-8") as sink:
        sink.write(json.dumps({"fza": str(Path(fza.__file__).resolve())}) + "\n")
        for group, cwd, argv in corpus():
            sink.write(json.dumps({"group": group, **run_call(main, cwd, argv)}) + "\n")
    return 0


# --- the comparison ----------------------------------------------------------


def _clip(line: str) -> str:
    return repr(line if len(line) <= 160 else line[:160] + "...")


def first_line_difference(a: str, b: str) -> str:
    """Where two texts first differ: 'line L: parent ... / change ...'."""
    for number, (x, y) in enumerate(itertools.zip_longest(a.splitlines(True), b.splitlines(True)), 1):
        if x != y:
            return f"line {number}: parent {_clip(x or '<end>')} / change {_clip(y or '<end>')}"
    return "same text"


def record_difference(a: dict, b: dict) -> str | None:
    """How the change's record of one call differs from the parent's, or None."""
    if (a["cwd"], a["argv"]) != (b["cwd"], b["argv"]):
        return f"the corpora differ: the change ran {b['argv']}"
    if a["exit"] != b["exit"]:
        return f"exit: parent {a['exit']!r} / change {b['exit']!r}"
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            return f"{stream} {first_line_difference(a[stream], b[stream])}"
    for name in sorted(a["files"].keys() | b["files"].keys()):
        x, y = a["files"].get(name), b["files"].get(name)
        if x != y:
            if x is None or y is None:
                return f"file {name}: written by the {'change' if x is None else 'parent'} only"
            return f"file {name} {first_line_difference(x, y)}"
    return None


def first_difference(parent, change) -> tuple[int, str | None]:
    """(records compared, the first difference as lines of text or None)."""
    count = 0
    for count, (a, b) in enumerate(itertools.zip_longest(parent, change), 1):
        if a is None or b is None:
            longer, extra = ("change", b) if a is None else ("parent", a)
            return count, f"run {count}: only the {longer} ran fza {' '.join(extra['argv'])}"
        found = record_difference(a, b)
        if found:
            where = f" (in {a['cwd']})" if a["cwd"] != "." else ""
            return count, f"run {count} ({a['group']}): fza {' '.join(a['argv'])}{where}\n  {found}"
    return count, None


def _records(path: Path):
    with path.open(encoding="utf-8") as lines:
        next(lines)
        for line in lines:
            yield json.loads(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="root of the parent checkout")
    parser.add_argument("change", type=Path, nargs="?", help="root of the changed checkout")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in checkouts.items():
        if not (root / "src" / "fza" / "cli.py").is_file():
            parser.error(f"{side} {root} has no src/fza/cli.py")

    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        jobs = {}
        for side, root in checkouts.items():
            (Path(tmp) / side).mkdir()
            env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(root / "src"), str(root)))}
            command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(Path(tmp) / f"{side}.jsonl")]
            jobs[side] = subprocess.Popen(command, cwd=Path(tmp) / side, env=env, stderr=subprocess.PIPE, text=True)
        failed = False
        for side, job in jobs.items():
            _, err = job.communicate()
            if job.returncode != 0:
                sys.stderr.write(f"error: the {side} worker exited {job.returncode}:\n{err[-2000:]}")
                failed = True
        if failed:
            return 2
        streams = {side: Path(tmp) / f"{side}.jsonl" for side in SIDES}
        for side, stream in streams.items():
            with stream.open(encoding="utf-8") as lines:
                loaded = Path(json.loads(next(lines))["fza"])
            if checkouts[side] not in loaded.parents:
                sys.stderr.write(f"error: the {side} worker imported fza from {loaded}\n")
                return 2
        count, found = first_difference(_records(streams["parent"]), _records(streams["change"]))
        # per group: runs, and runs that exited 0
        tally: dict[str, list[int]] = {}
        for record in _records(streams["parent"]):
            runs = tally.setdefault(record["group"], [0, 0])
            runs[0] += 1
            runs[1] += record["exit"] == 0
    if found:
        print(f"first difference after {count - 1} matching runs, at {found}")
        return 1
    groups = ", ".join(f"{g} {n} ({ok} exit 0)" for g, (n, ok) in tally.items())
    print(f"same bytes: {count} runs: {groups}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
