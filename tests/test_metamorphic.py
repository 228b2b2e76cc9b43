"""Metamorphic relations: equalities between a solver's outputs on related
instances. Each holds at any size, so it checks the solvers past the reach
of an exact oracle, and it has no tolerance to tune.

Scaling: multiplying every weight by c_w > 0 and every price by c_p > 0
multiplies every revenue by c_w * c_p, so it keeps every comparison, and
the density classes read only budgets and path lengths. So every solver
returns the same cut set and served flags, with its revenue times c_w * c_p.

Merging: cutting a commodity into parts whose weights sum to its own, with
either endpoint first and, where its budget is its path length, a budget
above it, gives back the same instance after `normalize`, since a part's
key (low end, high end, clamped budget) is the commodity's. So every solver
writes the same solution.

Relabeling: renaming the vertices, shuffling the edge order and swapping
some edges' endpoints changes no cut set's revenue, only the ids that name
it. So every exact solver keeps its optimum, while its cut set may differ
by its tie rule, which reads ids.
"""

from fractions import Fraction

from fza import Commodity, Instance, PricingFunction, Tree, normalize
from fza.bench import SOLVERS
from fza.files import solution_to_json
from fza.generators import pricing_preset
from fza.rng import substream
from conftest import bounded_path_instance, random_instance, shaped_tree

# every weight factor meets every price factor
FACTORS = tuple((cw, cp) for cw in (Fraction(3), Fraction(7, 2)) for cp in (Fraction(2, 7), Fraction(5, 3)))
PRICINGS = ("linear", "affine", "capped")


def scaled(instance: Instance, cw: Fraction, cp: Fraction) -> Instance:
    """`instance` with every weight times cw and every price times cp. Its
    commodities keep their order, so served flags line up."""
    pricing = PricingFunction(tuple(v * cp for v in instance.pricing.values))
    comms = [Commodity(c.source, c.target, c.budget, c.weight * cw) for c in instance.commodities]
    out = normalize(Instance.create(instance.tree, pricing, comms))
    assert out.paths == instance.paths
    return out


def assert_scales(algo: str, instance: Instance, seed: int = 0, **extras) -> None:
    solve = SOLVERS[algo][0]
    base = solve(instance, seed, **extras)
    for cw, cp in FACTORS:
        got = solve(scaled(instance, cw, cp), seed, **extras)
        want = (base.cuts, base.served, base.revenue * cw * cp)
        assert (got.cuts, got.served, got.revenue) == want, (algo, seed, extras, cw, cp)


def local_instance(seed: int, n: int, shape: str, pricing: str) -> Instance:
    """A random tree or path whose commodities are half single edges, so that
    sublog's single-edge class has members, and half random pairs; small
    integer weights with a few fractions make near ties common."""
    rng = substream(seed, "metamorphic", n, shape, pricing)
    tree = shaped_tree(rng, n, shape)
    comms = []
    for _ in range(n):
        if rng.random() < 0.5:
            s, t = tree.edges[rng.randrange(n - 1)]
        else:
            s, t = rng.sample(range(n), 2)
        w = Fraction(rng.randint(1, 3)) if rng.random() < 0.8 else Fraction(rng.randint(1, 7), rng.randint(2, 3))
        comms.append(Commodity(s, t, rng.randint(0, 3), w))
    return normalize(Instance.create(tree, pricing_preset(pricing, n), comms))


def test_brute_force_scales():
    for seed in range(24):
        n = 3 + seed % 10
        assert_scales("brute", local_instance(seed, n, ("tree", "path")[seed % 2], PRICINGS[seed % 3]))


def test_rooted_dp_scales():
    for seed in range(12):
        inst = random_instance(seed, 10 + 5 * seed, 20, PRICINGS[seed % 3], max_budget=4, root_commodities=True)
        assert_scales("rooted", inst, root=0)


def test_path_dps_scale():
    for seed in range(30):
        inst = bounded_path_instance(seed)
        for algo in ("dp-umax", "dp-pmax", "dp-cong"):
            assert_scales(algo, inst)


def test_gen_rooted_path_scales_at_every_cut_count():
    for seed in range(6):
        rng = substream(seed, "metamorphic-rooted-path")
        n = rng.randint(2, 14)
        tree = Tree(n, tuple((v, v + 1) for v in range(n - 1)))
        comms = [
            Commodity(0, rng.randint(1, n - 1), rng.randint(0, 3), Fraction(rng.randint(1, 5), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 8))
        ]
        inst = normalize(Instance.create(tree, pricing_preset(PRICINGS[seed % 3], n), comms))
        for cuts in range(n):
            assert_scales("gen-rooted-path", inst, root=0, cuts=cuts)


def test_approximations_scale():
    # small instances first, where sublog's single-edge candidate often wins,
    # then up to 300 vertices; single-density-base needs f(0) > 0 on a path
    sizes = [3 + seed % 12 for seed in range(24)] + [40, 120, 300]
    for seed, n in enumerate(sizes):
        for shape in ("tree", "path"):
            inst = local_instance(seed, n, shape, "affine" if shape == "path" else PRICINGS[seed % 3])
            algos = ["single-density", "simplified", "sublog"]
            if shape == "path":
                algos += ["single-density-path", "single-density-base"]
            for algo in algos:
                assert_scales(algo, inst, seed)


def split(instance: Instance, rng) -> tuple[list[Commodity], int, int]:
    """`instance`'s commodities cut into one to three parts each, whose
    weights sum to the commodity's, in a shuffled order: (parts, how many
    have their endpoints swapped, how many have a budget above their path
    length). A part takes a budget above its path length only where the
    commodity's budget is that length, so `normalize` clamps it back."""
    parts, swapped, clamped = [], 0, 0
    for c, mask in zip(instance.commodities, instance.paths):
        shares = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        for share in shares:
            s, t, u = c.source, c.target, c.budget
            if rng.random() < 0.5:
                s, t = t, s
                swapped += 1
            if u == mask.bit_count() and rng.random() < 0.5:
                u += rng.randint(1, 3)
                clamped += 1
            parts.append(Commodity(s, t, u, c.weight * share / sum(shares)))
    rng.shuffle(parts)
    return parts, swapped, clamped


def assert_merges(algo: str, instance: Instance, seed: int = 0, **extras) -> tuple[int, int, int]:
    """Check the merging relation for `algo` on the canonical `instance`:
    (parts beyond the commodity count, parts swapped, parts clamped)."""
    parts, swapped, clamped = split(instance, substream(seed, "merging", algo))
    merged = normalize(Instance.create(instance.tree, instance.pricing, parts))
    assert merged == instance, (algo, seed)
    solve = SOLVERS[algo][0]
    want = solution_to_json(solve(instance, seed, **extras))
    assert solution_to_json(solve(merged, seed, **extras)) == want, (algo, seed, extras)
    return len(parts) - instance.num_commodities, swapped, clamped


def test_every_solver_merges():
    tally = [0, 0, 0]

    def check(algo, instance, seed=0, **extras):
        for i, count in enumerate(assert_merges(algo, instance, seed, **extras)):
            tally[i] += count

    for seed in range(12):
        shape = ("tree", "path")[seed % 2]
        inst = local_instance(seed, 3 + seed, shape, "affine" if shape == "path" else PRICINGS[seed % 3])
        algos = ["brute", "single-density", "simplified", "sublog"]
        if shape == "path":
            algos += ["single-density-path", "single-density-base"]
        for algo in algos:
            check(algo, inst, seed)
    for seed in range(4):
        check("rooted", random_instance(seed, 12 + 6 * seed, 15, PRICINGS[seed % 3], max_budget=4, root_commodities=True), root=0)
    for seed in range(8):
        inst = bounded_path_instance(seed)
        for algo in ("dp-umax", "dp-pmax", "dp-cong"):
            check(algo, inst)
    for seed in range(3):
        inst = rooted_path_instance(seed)
        for cuts in range(inst.tree.num_vertices):
            check("gen-rooted-path", inst, root=0, cuts=cuts)
    # commodities were split, and parts were swapped and clamped
    assert min(tally) > 0, tally


def rooted_path_instance(seed: int) -> Instance:
    """A path 0-1-...-(n-1) whose commodities all run from vertex 0."""
    rng = substream(seed, "metamorphic-rooted-path")
    n = rng.randint(2, 14)
    tree = Tree(n, tuple((v, v + 1) for v in range(n - 1)))
    comms = [
        Commodity(0, rng.randint(1, n - 1), rng.randint(0, 3), Fraction(rng.randint(1, 5), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 8))
    ]
    return normalize(Instance.create(tree, pricing_preset(PRICINGS[seed % 3], n), comms))


def relabeled(instance: Instance, rng) -> tuple[Instance, list[int]]:
    """`instance` with vertex v renamed `label[v]` for a random permutation
    `label`, its edge order shuffled and about half its edges' endpoints
    swapped: (the instance, label)."""
    n = instance.tree.num_vertices
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in instance.tree.edges]
    rng.shuffle(edges)
    comms = [Commodity(label[c.source], label[c.target], c.budget, c.weight) for c in instance.commodities]
    return normalize(Instance.create(Tree(n, tuple(edges)), instance.pricing, comms)), label


def assert_relabels(algo: str, instance: Instance, seed: int, **extras) -> None:
    """Check the relabeling relation for `algo` under two relabelings; a
    `root` among `extras` is renamed with its vertex."""
    rng = substream(seed, "relabeling", algo)
    solve = SOLVERS[algo][0]
    want = solve(instance, 0, **extras).revenue
    for _ in range(2):
        other, label = relabeled(instance, rng)
        renamed = {key: label[v] if key == "root" else v for key, v in extras.items()}
        assert solve(other, 0, **renamed).revenue == want, (algo, seed, renamed)


def test_brute_force_keeps_its_optimum_under_relabeling():
    shapes = ("tree", "path", "star", "broom", "caterpillar")
    for seed in range(15):
        inst = local_instance(seed, 8 + seed, shapes[seed % 5], PRICINGS[seed % 3])
        assert_relabels("brute", inst, seed)


def test_rooted_dp_keeps_its_optimum_under_relabeling():
    for seed in range(8):
        inst = random_instance(seed, 20 + 40 * seed, 60, PRICINGS[seed % 3], max_budget=4, root_commodities=True)
        assert_relabels("rooted", inst, seed, root=0)


def test_path_dps_keep_their_optimum_under_relabeling():
    for seed in range(40):
        inst = bounded_path_instance(seed, n_max=24)
        for algo in ("dp-umax", "dp-pmax", "dp-cong"):
            assert_relabels(algo, inst, seed)


def test_gen_rooted_path_keeps_its_optimum_under_relabeling_at_every_cut_count():
    for seed in range(12):
        inst = rooted_path_instance(seed)
        for cuts in range(inst.tree.num_vertices):
            assert_relabels("gen-rooted-path", inst, seed, root=0, cuts=cuts)
