"""Seeded inputs and op lists for the four benchmark workloads.

Every instance is built here with the benchmark's own random draws and only
fza's public model API (`Tree`, `Commodity`, `PricingFunction`,
`Instance.create`, `normalize`, `write_instance`), so a change to
`fza.generators` cannot change what is measured.

Each workload draws its instances from fixed pools: an instance is named by
its kind and a variant number below `POOL`, and it depends on nothing else.
The workload seed only picks which variants a run uses. That keeps every
op's input, and so its output, inside a finite set that `golden.json` covers
for any seed.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from fza import Commodity, Instance, PricingFunction, Tree, normalize, parameters
from fza.files import write_instance

POOL = 32

WORKLOADS = ("density-tree", "sublog-tree", "path-exact", "oracle-batch")


@dataclass(frozen=True)
class Op:
    """One call into `fza.cli.main`, made from the directory `cwd`.

    `key` names the input and solver and nothing about the run, so it also
    keys the golden digests. `argv` holds paths relative to `cwd`, because
    `fza bench` writes the instance paths it is given into report.csv.
    `output` is the solution file of a solve op or the output directory of a
    bench op.
    """

    key: str
    argv: tuple[str, ...]
    solves: int
    cwd: Path
    output: Path
    instance: Path

    @property
    def is_bench(self) -> bool:
        return self.argv[0] == "bench"


@dataclass
class Workload:
    """Ops plus the cross-checks that relate their outputs.

    agree: groups of solve ops that must report the same revenue.
    rooted_max: (rooted op, gen-rooted-path ops for every cut count).
    bounds: (op, op giving the optimum, k) meaning revenue * k >= optimum.
    manifest: per instance file, the facts the run prints.
    """

    ops: list[Op] = field(default_factory=list)
    agree: list[tuple[str, ...]] = field(default_factory=list)
    rooted_max: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    bounds: list[tuple[str, str, int]] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _rng(*labels) -> random.Random:
    return random.Random("/".join(str(x) for x in labels))


def _weight(rng: random.Random, fractional: bool) -> Fraction:
    if fractional:
        return Fraction(rng.randint(1, 10), rng.randint(1, 10))
    return Fraction(rng.randint(1, 10))


def _pricing(name: str, n: int) -> PricingFunction:
    if name == "affine":
        return PricingFunction.affine(n)
    if name == "capped":
        return PricingFunction.capped(n, max(1, (n - 1) // 2))
    return PricingFunction.linear(n)


def random_tree(rng: random.Random, n: int) -> Tree:
    """Uniform labelled tree decoded from a random Pruefer sequence."""
    if n == 2:
        return Tree(2, ((0, 1),))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaf_set = sorted(v for v in range(n) if degree[v] == 1)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaf_set)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_set, v)
    edges.append((heapq.heappop(leaf_set), heapq.heappop(leaf_set)))
    return Tree(n, tuple(edges))


def random_path_labels(rng: random.Random, n: int) -> list[int]:
    labels = list(range(n))
    rng.shuffle(labels)
    return labels


def tree_instance(rng: random.Random, n: int, k: int, pricing: str, fractional: bool, path: bool = False) -> Instance:
    """Random tree (or path) with k commodities on uniform endpoint pairs and
    budgets in 0..n-1."""
    if path:
        labels = random_path_labels(rng, n)
        tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
    else:
        tree = random_tree(rng, n)
    commodities = []
    for _ in range(k):
        s, t = rng.sample(range(n), 2)
        commodities.append(Commodity(s, t, rng.randint(0, n - 1), _weight(rng, fractional)))
    return normalize(Instance.create(tree, _pricing(pricing, n), commodities))


def bounded_path_instance(
    rng: random.Random,
    n: int,
    k: int,
    max_len: int,
    max_budget: int,
    max_congestion: int,
    pricing: str = "affine",
    fractional: bool = True,
) -> Instance:
    """Path instance whose parameters stay under the DP guards.

    Commodity paths hold 1..max_len edges, budgets 0..max_budget, and no edge
    is covered by more than max_congestion commodities: a draw that would
    overload an edge is skipped, and drawing stops after k commodities or
    50k attempts.
    """
    labels = random_path_labels(rng, n)
    tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
    load = [0] * (n - 1)
    commodities = []
    for _ in range(50 * k):
        if len(commodities) == k:
            break
        length = rng.randint(1, min(max_len, n - 1))
        a = rng.randint(0, n - 1 - length)
        if any(load[p] >= max_congestion for p in range(a, a + length)):
            continue
        for p in range(a, a + length):
            load[p] += 1
        budget = rng.randint(0, min(length, max_budget))
        commodities.append(Commodity(labels[a], labels[a + length], budget, _weight(rng, fractional)))
    return normalize(Instance.create(tree, _pricing(pricing, n), commodities))


def rooted_path_instance(rng: random.Random, n: int, k: int) -> tuple[Instance, int]:
    """Path instance whose commodities all start at one end; returns the root."""
    labels = random_path_labels(rng, n)
    tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
    commodities = []
    for _ in range(k):
        length = rng.randint(1, n - 1)
        commodities.append(
            Commodity(labels[0], labels[length], rng.randint(0, length), _weight(rng, True))
        )
    return normalize(Instance.create(tree, _pricing("affine", n), commodities)), labels[0]


class _Builder:
    """Writes instance files and collects ops into one Workload."""

    def __init__(self, work: Path):
        self.work = work
        self.out = Workload()

    def instance(self, name: str, instance: Instance, **facts) -> Path:
        path = self.work / f"{name}.json"
        write_instance(instance, path)
        u_max, p_max, congestion = parameters(instance)
        self.out.manifest[name] = {
            "n": instance.tree.num_vertices,
            "k": instance.num_commodities,
            "u_max": u_max,
            "p_max": p_max,
            "congestion": congestion,
            **facts,
        }
        return path

    def solve(self, name: str, path: Path, algo: str, *extra: str) -> str:
        key = ":".join((name, algo) + tuple(x for x in extra if not x.startswith("--")))
        out = Path("out") / (key.replace(":", "_") + ".json")
        argv = ("solve", "--algo", algo, "--input", path.name, "--output", str(out)) + extra
        self.out.ops.append(Op(key, argv, 1, self.work, self.work / out, path))
        return key

    def bench(self, name: str, path: Path, algorithms: list[str], seeds: list[int]) -> str:
        key = f"{name}:bench"
        out = Path("out") / name
        config = f"{name}.bench.json"
        (self.work / config).write_text(
            json.dumps(
                {"instances": [path.name], "algorithms": algorithms, "seeds": seeds, "oracle": "brute"},
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        seeded = {"single-density", "simplified", "sublog"}
        rows = sum(len(seeds) if a in seeded else 1 for a in algorithms)
        argv = ("bench", "--config", config, "--output-dir", str(out))
        self.out.ops.append(Op(key, argv, rows + 1, self.work, self.work / out, path))
        return key


# --- density-tree -----------------------------------------------------------
# Random trees at n = 128, k = n: single_density evaluates about 4n candidates
# over k commodities, so Fraction revenue sums in density/model dominate.
# Both pricings and both weight kinds, because a common-denominator revenue
# kernel behaves differently on fractional weights.

DENSITY_KINDS = (
    ("li", "linear", False),
    ("lf", "linear", True),
    ("ai", "affine", False),
    ("af", "affine", True),
)
DENSITY_N = 128
DENSITY_VARIANTS_PER_KIND = 2


def density_group(b: _Builder, kind: str, v: int) -> None:
    pricing, fractional = next((p, f) for k, p, f in DENSITY_KINDS if k == kind)
    name = f"{kind}{v}"
    inst = tree_instance(_rng("density", kind, v), DENSITY_N, DENSITY_N, pricing, fractional)
    path = b.instance(name, inst)
    for s in (2 * v, 2 * v + 1):
        b.solve(name, path, "single-density", "--seed", str(s))
    if pricing == "affine":
        b.solve(name, path, "single-density-base")
    b.solve(name, path, "simplified", "--seed", str(v))


def density_tree(b: _Builder, seed: int) -> None:
    pick = _rng("density-tree", seed)
    for kind, _, _ in DENSITY_KINDS:
        for v in pick.sample(range(POOL), DENSITY_VARIANTS_PER_KIND):
            density_group(b, kind, v)


# --- sublog-tree ------------------------------------------------------------
# A few fixed (instance, solver seed) pairs on large trees (n = 1000 and
# 2000, k = n, affine). Tree shape alone moves sublog's time several-fold
# between random trees of one size, and the solver seed moves it by a third,
# so these pairs do not change with the workload seed: a run then measures
# the same work whatever the seed, and the spread between runs is noise only.
# Most pairs are on the smaller tree so that each op repeats several times
# in a run.

SUBLOG_PAIRS = ((1000, (0, 1, 2)), (2000, (1,)))


def sublog_group(b: _Builder, n: int, seeds: tuple[int, ...]) -> None:
    path = b.instance(f"t{n}", tree_instance(_rng("sublog", n), n, n, "affine", False))
    for s in seeds:
        b.solve(f"t{n}", path, "sublog", "--seed", str(s))


def sublog_tree(b: _Builder, seed: int) -> None:
    for n, seeds in SUBLOG_PAIRS:
        sublog_group(b, n, seeds)


# --- path-exact -------------------------------------------------------------
# Bounded path instances for the three parameterized DPs. Kind "u" keeps
# u_max = 2 on a short path (dp-umax needs n^(u_max+2) <= 1e7), kind "p" has
# u_max = 1 on a longer path, and kind "c" has budgets up to 4 with
# congestion 7, beyond dp-umax's guard, so only dp-pmax and dp-cong run on
# it. Kind "r" is a rooted path for `rooted` and for `gen-rooted-path` at
# every cut count.

PATH_KINDS = {
    # kind: (n, k, max_len, max_budget, max_congestion, variants per run)
    "u": (24, 24, 6, 2, 6, 4),
    "p": (40, 40, 8, 1, 8, 4),
    "c": (64, 128, 6, 4, 7, 2),
}
ROOTED_N = 12


def path_group(b: _Builder, kind: str, v: int) -> None:
    name = f"{kind}{v}"
    if kind == "r":
        inst, root = rooted_path_instance(_rng("path", kind, v), ROOTED_N, ROOTED_N)
        path = b.instance(name, inst, root=root)
        rooted = b.solve(name, path, "rooted", "--root", str(root))
        gens = tuple(
            b.solve(name, path, "gen-rooted-path", "--root", str(root), "--cuts", str(y))
            for y in range(ROOTED_N)
        )
        b.out.rooted_max.append((rooted, gens))
        return
    n, k, max_len, max_budget, max_cong, _ = PATH_KINDS[kind]
    inst = bounded_path_instance(_rng("path", kind, v), n, k, max_len, max_budget, max_cong)
    path = b.instance(name, inst)
    algos = ("dp-pmax", "dp-cong") if kind == "c" else ("dp-umax", "dp-pmax", "dp-cong")
    exact = [b.solve(name, path, algo) for algo in algos]
    approx = b.solve(name, path, "single-density-path")
    b.out.agree.append(tuple(exact))
    b.out.bounds.append((approx, exact[0], 6 * (ceil_log2(n) + 1)))


def path_exact(b: _Builder, seed: int) -> None:
    pick = _rng("path-exact", seed)
    for kind, spec in PATH_KINDS.items():
        for v in pick.sample(range(POOL), spec[-1]):
            path_group(b, kind, v)
    path_group(b, "r", pick.randrange(POOL))


# --- oracle-batch -----------------------------------------------------------
# One `fza bench` grid per small instance, three trees and three paths of each
# size from 6 to 16 vertices. The sizes are fixed so that only shapes change
# with the seed; brute force cost grows as 2^edges.

ORACLE_SIZES = tuple(range(6, 17))
ORACLE_VARIANTS_PER_SLOT = 3


def oracle_group(b: _Builder, shape: str, n: int, v: int) -> None:
    # pricing and weight kind follow the slot, not the variant, so that only
    # shapes and draws change with the seed
    slot = n + (shape == "p")
    pricing = ("affine", "linear", "capped")[slot % 3]
    name = f"{shape}{n}-{v}"
    inst = tree_instance(_rng("oracle", shape, n, v), n, n, pricing, slot % 2 == 1, path=shape == "p")
    path = b.instance(name, inst)
    algorithms = ["simplified", "single-density", "sublog"]
    if pricing == "affine":
        algorithms.append("single-density-base")
    if shape == "p":
        algorithms.append("single-density-path")
    b.bench(name, path, algorithms, [2 * v, 2 * v + 1])


def oracle_batch(b: _Builder, seed: int) -> None:
    pick = _rng("oracle-batch", seed)
    for n in ORACLE_SIZES:
        for shape in ("t", "p"):
            for v in pick.sample(range(POOL), ORACLE_VARIANTS_PER_SLOT):
                oracle_group(b, shape, n, v)


BUILDERS = {
    "density-tree": density_tree,
    "sublog-tree": sublog_tree,
    "path-exact": path_exact,
    "oracle-batch": oracle_batch,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's instance files under `work` and return its ops."""
    return build_group(BUILDERS[name], (seed,), work)


def pool_groups(name: str):
    """Every (function, args) group the workload can draw, for golden.json."""
    if name == "density-tree":
        return [(density_group, (kind, v)) for kind, _, _ in DENSITY_KINDS for v in range(POOL)]
    if name == "sublog-tree":
        return [(sublog_group, pair) for pair in SUBLOG_PAIRS]
    if name == "path-exact":
        return [(path_group, (kind, v)) for kind in (*PATH_KINDS, "r") for v in range(POOL)]
    return [
        (oracle_group, (shape, n, v)) for n in ORACLE_SIZES for shape in ("t", "p") for v in range(POOL)
    ]


def build_group(fn, args, work: Path) -> Workload:
    (work / "out").mkdir(parents=True, exist_ok=True)
    b = _Builder(work)
    fn(b, *args)
    return b.out
