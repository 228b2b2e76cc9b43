"""Shared instance builders and oracles for the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from fza import (
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    normalize,
)
from fza.density import _offset_buckets, ceil_log2
from fza.generators import pricing_preset
from fza.model import edge_mask
from fza.rng import substream

# The 13-vertex example instance: two three-vertex arms on each side of a
# center, eight unit-weight commodities. Vertices are numbered v1..v13 in the
# source figure; here 0-based 0..12 with 6 = center.
FIG1_EDGES = (
    (0, 1),   # v1-v2
    (1, 2),   # v2-v3
    (3, 4),   # v4-v5
    (4, 5),   # v5-v6
    (7, 8),   # v8-v9
    (8, 9),   # v9-v10
    (10, 11), # v11-v12
    (11, 12), # v12-v13
    (2, 6),   # v3-v7
    (6, 10),  # v7-v11
    (5, 6),   # v6-v7
    (6, 7),   # v7-v8
)

FIG1_COMMODITIES = (
    (1, 8, 0),    # v2..v9
    (0, 8, 0),    # v1..v9
    (1, 9, 1),    # v2..v10
    (0, 3, 1),    # v1..v4 (through the center)
    (3, 9, 5),    # v4..v10
    (3, 9, 3),    # same path, smaller budget
    (3, 12, 3),   # v4..v13
    (9, 12, 4),   # v10..v13
)


def fig1_instance(pricing: str) -> Instance:
    tree = Tree(13, FIG1_EDGES)
    table = pricing_preset(pricing, 13)
    commodities = [Commodity(s, t, u, Fraction(1)) for s, t, u in FIG1_COMMODITIES]
    return normalize(Instance.create(tree, table, commodities))


def random_instance(
    seed: int,
    n: int,
    k: int,
    pricing: str = "linear",
    shape: str = "tree",
    max_budget: int | None = None,
    max_weight: int = 5,
    root_commodities: bool = False,
) -> Instance:
    """Seeded random instance built directly (finer control than GenSpec)."""
    rng = substream(seed, "test-instance", n, k, pricing, shape, root_commodities)
    if shape == "path":
        labels = list(range(n))
        rng.shuffle(labels)
        tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
    else:
        tree = _random_tree(rng, n)
    table = pricing_preset(pricing, n)
    commodities = []
    for _ in range(k):
        s = 0 if root_commodities else rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        hi = max_budget if max_budget is not None else n - 1
        commodities.append(
            Commodity(s, t, rng.randint(0, hi), Fraction(rng.randint(1, max_weight)))
        )
    return normalize(Instance.create(tree, table, commodities))


def _random_tree(rng, n: int) -> Tree:
    if n == 1:
        return Tree(1, ())
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    return Tree(n, tuple(edges))


def best_of_size(instance: Instance, size: int) -> Fraction:
    """Exhaustive optimum over cut sets of exactly `size` edges."""
    from fza import total_revenue

    m = instance.tree.num_edges
    best = None
    for subset in combinations(range(m), size):
        rev = total_revenue(instance, subset)
        if best is None or rev > best:
            best = rev
    return best


def random_gpi(seed: int, n: int, k: int):
    """Random generalized rooted path instance with concave per-commodity tables."""
    from fza import GeneralizedCommodity, GeneralizedPathInstance, PricingFunction

    rng = substream(seed, "gpi", n, k)
    comms = []
    for _ in range(k):
        target = rng.randrange(1, n)
        budget = rng.randint(0, target)
        weight = Fraction(rng.randint(1, 5))
        base = Fraction(rng.randint(0, 3))
        incs = sorted((rng.randint(0, 4) for _ in range(n - 1)), reverse=True)
        table = [base]
        for inc in incs:
            table.append(table[-1] + inc)
        comms.append(GeneralizedCommodity(target, budget, weight, PricingFunction(tuple(table))))
    return GeneralizedPathInstance(tuple(range(n)), tuple(comms))


def bounded_path_instance(seed: int, n_max=12, u_cap=3, p_cap=6, cong_cap=3) -> Instance:
    """Random path instance kept inside all three parameterized-DP guards."""
    from fza import parameters

    rng = substream(seed, "bounded-path")
    while True:
        n = rng.randint(3, n_max)
        labels = list(range(n))
        rng.shuffle(labels)
        tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
        table = (
            PricingFunction.affine(n)
            if rng.random() < 0.5
            else PricingFunction.linear(n)
        )
        comms = []
        for _ in range(rng.randint(1, 6)):
            a = rng.randrange(n - 1)
            length = rng.randint(1, min(p_cap, n - 1 - a))
            comms.append(
                Commodity(
                    labels[a],
                    labels[a + length],
                    rng.randint(0, u_cap),
                    Fraction(rng.randint(1, 4)),
                )
            )
        inst = normalize(Instance.create(tree, table, comms))
        p = parameters(inst)
        if p.u_max <= u_cap and p.p_max <= p_cap and p.congestion <= cong_cap:
            return inst


# Reference code that no solver calls, kept as independent checks: the
# density classes of the Single Density analysis, path resolution by walking
# parents, and one commodity's revenue as a plain Fraction.


def density_class(budget: int, path_len: int) -> int:
    """Class index j >= 1 with u/|P| in (2^-j, 2^(1-j)]; requires u >= 1."""
    if budget < 1:
        raise InvalidInstanceError("density class needs budget >= 1")
    t = 0
    while (budget << (t + 1)) <= path_len:
        t += 1
    return t + 1


@dataclass(frozen=True)
class DensityClassification:
    """Per-commodity density and class index; classes[j] lists the members of
    M_j. Class 0 holds the zero-budget commodities."""

    densities: tuple[Fraction, ...]
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def classify_by_density(instance: Instance) -> DensityClassification:
    densities = []
    class_of = []
    classes: list[list[int]] = [[] for _ in range(ceil_log2(instance.tree.num_vertices) + 1)]
    for i, c in enumerate(instance.commodities):
        size = instance.paths[i].bit_count()
        densities.append(Fraction(c.budget, size))
        j = 0 if c.budget == 0 else density_class(c.budget, size)
        class_of.append(j)
        classes[j].append(i)
    return DensityClassification(
        tuple(densities), tuple(class_of), tuple(tuple(m) for m in classes)
    )


def offset_candidates(instance: Instance) -> dict[int, list[frozenset[int]]]:
    """Per class j: the unthinned offset candidates that `single_density`
    thins and `single_density_base` uses, indexed by the offset theta."""
    return {j: [frozenset(b) for b in buckets] for j, buckets in _offset_buckets(instance)}


def resolve_path(tree: Tree, s: int, t: int) -> frozenset[int]:
    """Edge ids on the unique s-t path."""
    n = tree.num_vertices
    if not (0 <= s < n and 0 <= t < n):
        raise InvalidInstanceError(f"invalid endpoint in ({s},{t})")
    if s == t:
        raise InvalidInstanceError(f"commodity endpoints coincide at {s}")
    parent, parent_edge, _, _ = tree.rooted(s)
    edges = []
    v = t
    while v != s:
        edges.append(parent_edge[v])
        v = parent[v]
    return frozenset(edges)


def revenue_of_commodity(instance: Instance, i: int, cuts) -> Fraction:
    """w_i * f(|P_i ∩ F|) if the cut count stays within budget, else 0."""
    count = (instance.paths[i] & edge_mask(cuts)).bit_count()
    c = instance.commodities[i]
    if count > c.budget:
        return Fraction(0)
    return c.weight * instance.pricing(count)


@pytest.fixture(scope="session")
def fig1_linear() -> Instance:
    return fig1_instance("linear")


@pytest.fixture(scope="session")
def fig1_affine() -> Instance:
    return fig1_instance("affine")
