"""Metamorphic relations: equalities between a solver's outputs on related
instances. Each holds at any size, so it checks the solvers past the reach
of an exact oracle, and it has no tolerance to tune.

Scaling: multiplying every weight by c_w > 0 and every price by c_p > 0
multiplies every revenue by c_w * c_p, so it keeps every comparison, and
the density classes read only budgets and path lengths. So every solver
returns the same cut set and served flags, with its revenue times c_w * c_p.
"""

from fractions import Fraction

from fza import Commodity, Instance, PricingFunction, Tree, normalize
from fza.bench import SOLVERS
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
