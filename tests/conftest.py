"""Shared instance builders and oracles for the test suite."""

from __future__ import annotations

import re
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import pytest

from fza import (
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    normalize,
)
from fza.density import _depth_keys, _offset_buckets, ceil_log2
from fza.generators import pricing_preset
from fza.files import FORMAT_VERSION, _edge, _list, dumps_canonical, instance_to_dict
from fza.model import edge_mask, shown
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


def shaped_tree(rng, n: int, shape: str) -> Tree:
    """A random "tree", "path", "star", "broom" (a path through half the
    vertices with the rest on its last vertex) or "caterpillar" (a path
    through a third of the vertices with the rest on random path vertices)
    on n vertices, with shuffled labels, edge order and edge orientation, so
    vertex 0 is nowhere in particular."""
    if shape == "path":
        edges = [(v - 1, v) for v in range(1, n)]
    elif shape == "star":
        edges = [(0, v) for v in range(1, n)]
    elif shape == "broom":
        handle = max(1, n // 2)
        edges = [(v - 1, v) for v in range(1, handle)] + [(handle - 1, v) for v in range(handle, n)]
    elif shape == "caterpillar":
        spine = max(1, n // 3)
        edges = [(v - 1, v) for v in range(1, spine)] + [(rng.randrange(spine), v) for v in range(spine, n)]
    else:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in edges]
    rng.shuffle(edges)
    return Tree(n, tuple(edges))


def reference_walk(tree: Tree, root: int, edges):
    """`Tree.walk(root, edges)` over an adjacency dict built from `edges`
    alone and sorted by (neighbor, edge id), so it never reads
    `Tree.adjacency`: the form the walk took before it scanned the tree's
    own adjacency."""
    adj = {root: []}
    for eid in edges:
        u, v = tree.edges[eid]
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    for pairs in adj.values():
        pairs.sort()
    up = {root: (-1, -1)}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for w, eid in adj[v]:
            if w not in up:
                up[w] = (v, eid)
                order.append(w)
                stack.append(w)
    return order, up


def bfs_rooting(tree: Tree, root: int) -> tuple[list[int], list[int], list[int]]:
    """(parent, parent edge, depth) of `tree` rooted at `root`, by a BFS over
    its edge list that shares nothing with `Tree.walk`. A tree fixes all
    three, whatever order a walk visits the vertices in."""
    n = tree.num_vertices
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(tree.edges):
        neighbors[u].append((v, eid))
        neighbors[v].append((u, eid))
    parent, parent_edge, depth = [-1] * n, [-1] * n, [0] * n
    queue = deque([root])
    seen = {root}
    while queue:
        v = queue.popleft()
        for w, eid in neighbors[v]:
            if w not in seen:
                seen.add(w)
                parent[w], parent_edge[w], depth[w] = v, eid, depth[v] + 1
                queue.append(w)
    return parent, parent_edge, depth


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


def small_path_family():
    """Every path 0-1-...-(n-1) with n = 2..5 under linear, affine and capped
    pricing, with one commodity or two drawn with replacement from every
    (s < t, u = 0..t-s, w in {1, 5/2}), normalized: 7,749 instances in a
    fixed order."""
    from itertools import combinations_with_replacement

    for n in range(2, 6):
        tree = Tree(n, tuple((v, v + 1) for v in range(n - 1)))
        choices = [
            Commodity(s, t, u, w)
            for s in range(n)
            for t in range(s + 1, n)
            for u in range(t - s + 1)
            for w in (Fraction(1), Fraction(5, 2))
        ]
        groups = [(c,) for c in choices] + list(combinations_with_replacement(choices, 2))
        for name in ("linear", "affine", "capped"):
            pricing = pricing_preset(name, n)
            for comms in groups:
                yield normalize(Instance.create(tree, pricing, comms))


def prufer_tree(n: int, sequence) -> Tree:
    """The labeled tree on 0..n-1 with Prüfer sequence `sequence` (length n - 2),
    its edges in decoding order: each step joins the smallest current leaf to
    the next entry, and the last edge joins the two vertices left."""
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] = 0
        degree[v] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return Tree(n, tuple(edges))


def small_tree_family():
    """Every labeled tree on n = 2..5 vertices, one per Prüfer sequence (145
    trees), under linear, affine and capped pricing: for each, one instance
    per commodity (s, t, u, 5/2) with s < t and u = 0..|P|, then one holding
    all of them, normalized: 11,655 single-commodity instances and 435 whole
    ones, 12,090 in a fixed order."""
    from itertools import product

    for n in range(2, 6):
        for sequence in product(range(n), repeat=n - 2):
            tree = prufer_tree(n, sequence)
            choices = [
                Commodity(s, t, u, Fraction(5, 2))
                for s in range(n)
                for t in range(s + 1, n)
                for u in range(len(resolve_path(tree, s, t)) + 1)
            ]
            for name in ("linear", "affine", "capped"):
                pricing = pricing_preset(name, n)
                for comms in [(c,) for c in choices] + [choices]:
                    yield normalize(Instance.create(tree, pricing, comms))


def pairwise_sweep(solver, instance: Instance):
    """`solver` (one of the three path DPs) with its sweep run one transition
    at a time from the zero-cut revenue: the DP's own `moves` on one state at
    a time, so that no cached gain is shared, each move merged alone, and a
    tie decided by comparing (cut, predecessor), smallest first. The solvers
    merge each position's moves in two ordered passes instead.
    It ignores the DP's readable part and so keeps every reachable state: the
    unpruned reference for dropping dominated states."""
    from unittest import mock

    from fza import param_path
    from fza.model import make_result

    def run(sweep, initial, moves, algorithm, diagnostics, readable=None):
        table, parents_by_step = {initial: instance._empty_revenue}, [{}]
        for p in range(1, sweep.m + 1):
            new_table, parents = {}, {}
            for state in sorted(table):
                (kept,), (cut,), (gain,) = moves([state], p)
                value = table[state]
                for key, val, was_cut in ((kept, value, False), (cut, value + gain, True)):
                    held = new_table.get(key)
                    if held is None or val > held or (
                        val == held and (was_cut, state) < parents[key][::-1]
                    ):
                        new_table[key] = val
                        parents[key] = (state, was_cut)
            table = new_table
            parents_by_step.append(parents)
        best = max(table.values())
        key = min(k for k, v in table.items() if v == best)
        cuts = []
        for p in range(sweep.m, 0, -1):
            key, was_cut = parents_by_step[p][key]
            if was_cut:
                cuts.append(sweep.edge_ids[p - 1])
        return make_result(instance, cuts, algorithm=algorithm, diagnostics=diagnostics)

    with mock.patch.object(param_path._Sweep, "run", run):
        return solver(instance)


# Reference code that no solver calls, kept as independent checks: the
# density classes of the Single Density analysis, path resolution by walking
# parents, a commodity's path edges, and one commodity's revenue as a plain
# Fraction.


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
    return {j: [frozenset(b) for b in buckets] for j, buckets in _offset_buckets(_depth_keys(instance), 1)}


def seeded_density_candidates(instance: Instance, seed: int) -> list[frozenset[int]]:
    """The candidates `single_density` walks, in its order, with none
    skipped: a stream seeded for every (class j, offset theta), also for an
    offset whose bucket is empty or whose bound shows it cannot win."""
    candidates = [frozenset()]
    for j, buckets in _offset_buckets(_depth_keys(instance), 1):
        for theta, bucket in enumerate(buckets):
            rng = substream(seed, "single-density", j, theta)
            candidates.append(frozenset(e for e in bucket if rng.random() >= 0.5))
    return candidates


def fraction_pricing_error(values) -> str | None:
    """The message `PricingFunction` refuses `values` with, None if it takes
    them: the non-negative, non-decreasing and concave checks made in
    `Fraction` arithmetic on the prices themselves."""
    values = [Fraction(v) for v in values]
    if not values:
        return "pricing table is empty"
    if values[0] < 0:
        return "pricing values must be non-negative"
    for x in range(1, len(values)):
        if values[x] < values[x - 1]:
            return f"pricing not non-decreasing at index {x}"
        if x >= 2 and values[x] - values[x - 1] > values[x - 1] - values[x - 2]:
            return f"pricing not concave at index {x}"
    return None


def reference_normalize(instance: Instance) -> Instance:
    """`normalize` with every output commodity built anew: budgets clamped to
    path lengths, (path, budget) repeats merged, endpoints ascending, sorted."""
    merged: dict[tuple[int, int], list] = {}
    for c, mask in zip(instance.commodities, instance.paths):
        u = min(c.budget, mask.bit_count())
        row = merged.setdefault((mask, u), [min(c.source, c.target), max(c.source, c.target), u, 0, mask])
        row[3] += c.weight
    rows = sorted(merged.values(), key=lambda r: r[:3])
    commodities = tuple(Commodity(s, t, u, w) for s, t, u, w, _ in rows)
    return Instance(instance.tree, instance.pricing, commodities)


# the rational grammar of the file format: sign, integer digits, then a '/'
# denominator or '.' decimals, a digit leading or following the '.'
REFERENCE_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*", re.ASCII)


def reference_fraction(value) -> Fraction:
    """`model.to_fraction` without its fast path: every string is matched by
    `REFERENCE_RATIONAL`, with the same refusals and messages."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        m = REFERENCE_RATIONAL.fullmatch(value)
        if m is None:
            hint = " (no exponent notation)" if "e" in value or "E" in value else ""
            raise InvalidInstanceError(f"not a rational{hint}: {shown(value)}")
        sign, num, den, dec = m.groups()
        limit = sys.get_int_max_str_digits()
        if limit and max(len(num), len(den or ""), len(dec or "")) > limit:
            raise InvalidInstanceError(f"not a rational (a digit group over {limit} digits): {shown(value)}")
        scale = 10 ** len(dec or "")
        n = int(num or 0) * scale + int(dec or 0)
        try:
            return Fraction(-n if sign == "-" else n, int(den or 1) * scale)
        except ZeroDivisionError as exc:  # '1/0'
            raise InvalidInstanceError(f"not a rational: {shown(value)}") from exc
    raise InvalidInstanceError(f"not a rational: {shown(value)}")


def _reference_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInstanceError(f"{what} must be an integer, got {shown(value)}")
    return value


def _reference_tree(n, edges) -> Tree:
    """`Tree`'s checks, in their order: every endpoint an int, then the
    vertex and edge counts, then per edge range, self-loop and duplicate,
    then connectivity."""
    n = _reference_int(n, "num_vertices")
    edges = tuple((_reference_int(u, "edge endpoint"), _reference_int(v, "edge endpoint")) for u, v in edges)
    if n < 1:
        raise InvalidInstanceError(f"tree needs at least one vertex, got {n}")
    if len(edges) != n - 1:
        raise InvalidInstanceError(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInstanceError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise InvalidInstanceError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InvalidInstanceError(f"duplicate edge ({u},{v})")
        seen.add(key)
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    reached, queue = {0}, deque([0])
    while queue:
        for w in neighbors[queue.popleft()]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != n:
        raise InvalidInstanceError("edge list does not describe a connected tree")
    return Tree(n, edges)


def _reference_commodity(s, t, u, w) -> Commodity:
    """`Commodity`'s checks, in their order: weight, endpoints, budget, sign of the weight."""
    w = reference_fraction(w)
    if _reference_int(s, "commodity endpoint") == _reference_int(t, "commodity endpoint"):
        raise InvalidInstanceError("commodity endpoints coincide")
    if _reference_int(u, "budget") < 0:
        raise InvalidInstanceError(f"budget must be a non-negative integer, got {u!r}")
    if w <= 0:
        raise InvalidInstanceError("commodity weight must be positive")
    return Commodity(s, t, u, w)


def reference_read(data) -> Instance:
    """`files.dict_to_instance` with every check written out in its order
    and no shortcut: each rational string parsed where it stands, each
    commodity built from its JSON values, and the instance normalized by
    `reference_normalize`. Refusals raise `InvalidInstanceError` with the
    reader's messages."""
    if not isinstance(data, dict):
        raise InvalidInstanceError(f"instance must be a JSON object, got {type(data).__name__}")
    try:
        if _reference_int(data.get("version"), "version") != FORMAT_VERSION:
            raise InvalidInstanceError(f"unsupported format version {data['version']}")
        tree = _reference_tree(data["num_vertices"], tuple(_edge(e) for e in _list(data["edges"], "edges")))
        values = tuple(reference_fraction(v) for v in _list(data["pricing"], "pricing"))
        error = fraction_pricing_error(values)
        if error:
            raise InvalidInstanceError(error)
        commodities = [
            _reference_commodity(c["s"], c["t"], c["u"], c["w"])
            for c in _list(data["commodities"], "commodities")
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance file: {exc}") from exc
    n = tree.num_vertices
    if len(values) < n:
        raise InvalidInstanceError(f"pricing table has {len(values)} entries, need at least {n}")
    for c in commodities:
        if not (0 <= c.source < n and 0 <= c.target < n):
            raise InvalidInstanceError(f"commodity endpoint out of range: ({c.source},{c.target})")
    return reference_normalize(Instance.create(tree, PricingFunction(values), commodities))


def assert_same_instance(got: Instance, want: Instance) -> None:
    """Field by field, with the types a reader must produce: int vertices,
    `Fraction` prices and weights, and byte-equal canonical dicts."""
    assert got.tree.num_vertices == want.tree.num_vertices and got.tree.edges == want.tree.edges
    assert all(type(u) is int and type(v) is int for u, v in got.tree.edges)
    assert got.pricing.values == want.pricing.values
    assert all(type(v) is Fraction for v in got.pricing.values)
    fields = [(c.source, c.target, c.budget, c.weight) for c in got.commodities]
    assert fields == [(c.source, c.target, c.budget, c.weight) for c in want.commodities]
    assert all(list(map(type, f)) == [int, int, int, Fraction] for f in fields)
    assert got.paths == want.paths
    assert dumps_canonical(instance_to_dict(got)) == dumps_canonical(instance_to_dict(want))


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


def mask_to_edges(mask: int) -> tuple[int, ...]:
    """The edge ids of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def gray_code_optimum(instance: Instance) -> tuple[int, ...]:
    """The optimal cut set by enumerating all 2^m cut sets in Gray-code
    order, ties to the lexicographically smallest sorted edge-id tuple: the
    reference `brute_force`'s branch and bound is held to.

    Each step flips a single edge; per commodity on that edge, a cut moves
    its count from c to c + 1 and adds the marginal gain
    `instance.gains[i][c]`, and an uncut subtracts it again.
    """
    m = instance.tree.num_edges
    gains = instance.gains
    on_edge = [
        tuple((i, gains[i]) for i, path in enumerate(instance.paths) if path >> e & 1)
        for e in range(m)
    ]
    counts = [0] * instance.num_commodities
    revenue = best_rev = instance._empty_revenue
    best_key: tuple[int, ...] = ()
    mask = 0
    for t in range(1, 1 << m):
        eid = (t & -t).bit_length() - 1
        bit = 1 << eid
        mask ^= bit
        if mask & bit:
            for i, g in on_edge[eid]:
                c = counts[i]
                revenue += g[c]
                counts[i] = c + 1
        else:
            for i, g in on_edge[eid]:
                c = counts[i] - 1
                revenue -= g[c]
                counts[i] = c
        if revenue > best_rev:
            best_rev, best_key = revenue, mask_to_edges(mask)
        elif revenue == best_rev:
            best_key = min(best_key, mask_to_edges(mask))
    return best_key


def path_edges(instance: Instance, i: int) -> frozenset[int]:
    """Edge ids on commodity i's path, read from its path mask."""
    return frozenset(mask_to_edges(instance.paths[i]))


def revenue_of_commodity(instance: Instance, i: int, cuts) -> Fraction:
    """w_i * f(|P_i ∩ F|) if the cut count stays within budget, else 0."""
    count = (instance.paths[i] & edge_mask(cuts)).bit_count()
    c = instance.commodities[i]
    if count > c.budget:
        return Fraction(0)
    return c.weight * instance.pricing(count)


def congestion_optimum(instance: Instance, max_states: int = 20_000) -> Fraction:
    """The optimal revenue by a DP whose tables grow with congestion, not with
    the number of edges: an exact oracle on trees far beyond brute force's
    reach, as long as few commodities share an edge. It reads only
    `tree.edges`, `pricing.values` and `commodities`, in Fractions.

    The tree is rooted at vertex 0 by a BFS of its own. Bottom-up, each vertex
    keeps a table from states to best revenue. A state lists, per commodity
    with exactly one endpoint in the vertex's subtree, the cuts on its path
    inside the subtree, up to budget + 1 (dropped). A child's table is lifted
    over its parent edge, once kept and once cut, and merged pairwise into
    its parent's: a commodity open on both sides closes there and earns
    w * f(cuts) within budget. At the root every commodity has closed.
    Raises RuntimeError when one table would hold more than `max_states`
    states.
    """
    n = instance.tree.num_vertices
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in instance.tree.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adjacency[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    prices = instance.pricing.values
    commodities = instance.commodities
    ends: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, c in enumerate(commodities):
        ends[c.source].append((i, 0))
        ends[c.target].append((i, 0))
    tables = [{tuple(e): Fraction(0)} for e in ends]
    for v in reversed(order[1:]):
        lifted: dict[tuple, Fraction] = {}
        for state, value in tables[v].items():
            cut = tuple((i, min(x + 1, commodities[i].budget + 1)) for i, x in state)
            for s in (state, cut):
                if s not in lifted or lifted[s] < value:
                    lifted[s] = value
        merged: dict[tuple, Fraction] = {}
        for above, above_value in tables[parent[v]].items():
            for below, below_value in lifted.items():
                open_ = dict(above)
                value = above_value + below_value
                for i, x in below:
                    if i in open_:
                        total = open_.pop(i) + x
                        if total <= commodities[i].budget:
                            value += commodities[i].weight * prices[total]
                    else:
                        open_[i] = x
                key = tuple(sorted(open_.items()))
                if key not in merged or merged[key] < value:
                    merged[key] = value
            if len(merged) > max_states:
                raise RuntimeError(f"congestion oracle exceeded {max_states} states")
        tables[parent[v]] = merged
        tables[v] = {}
    (optimum,) = tables[0].values()
    return optimum


# Reference fragment geometry for sublog, each piece with its own adjacency:
# the skeleton by pruning non-border leaves, and the hanging subtrees as the
# components of a DFS that stops at skeleton vertices.


@dataclass(frozen=True)
class ReferenceSkeleton:
    """The leaf-pruning skeleton, with the vertex and junction sets that
    `sublog.SkeletonInfo` does not keep."""

    border: frozenset
    edges: frozenset
    vertices: frozenset
    junctions: frozenset
    segments: tuple


def skeleton_vertices(tree: Tree, skeleton) -> frozenset:
    """The border vertices and every endpoint of a skeleton edge."""
    return skeleton.border.union(v for eid in skeleton.edges for v in tree.edges[eid])


def reference_skeleton(tree: Tree, fragment_edges, child_fragments) -> ReferenceSkeleton:
    """`sublog.compute_skeleton` by leaf pruning: strip non-border leaves of
    the fragment until only the subtree spanning the border vertices is left."""
    from fza.sublog import Segment

    counts: dict[int, int] = {}
    for child in child_fragments:
        for v in {v for eid in child for v in tree.edges[eid]}:
            counts[v] = counts.get(v, 0) + 1
    border = frozenset(v for v, c in counts.items() if c >= 2)
    if len(border) <= 1:
        return ReferenceSkeleton(border, frozenset(), border, frozenset(), ())
    skel = set(fragment_edges)
    adj: dict[int, set[int]] = {}
    for eid in skel:
        for v in tree.edges[eid]:
            adj.setdefault(v, set()).add(eid)
    queue = [v for v in adj if len(adj[v]) == 1 and v not in border]
    while queue:
        v = queue.pop()
        if len(adj[v]) != 1:
            continue
        (eid,) = adj[v]
        skel.discard(eid)
        adj[v].clear()
        u, w = tree.edges[eid]
        other = w if u == v else u
        adj[other].discard(eid)
        if len(adj[other]) == 1 and other not in border:
            queue.append(other)
    incident = {v: sorted(es) for v, es in adj.items() if es}
    junctions = frozenset(v for v, es in incident.items() if len(es) >= 3 and v not in border)
    breakpoints = border | junctions
    segments, used = [], set()
    for b in sorted(breakpoints):
        for eid in incident.get(b, ()):
            if eid in used:
                continue
            verts, edges, cur, e = [b], [], b, eid
            while True:
                used.add(e)
                edges.append(e)
                u, w = tree.edges[e]
                cur = w if u == cur else u
                verts.append(cur)
                if cur in breakpoints:
                    break
                (e,) = set(incident[cur]) - {e}
            segments.append(Segment(tuple(verts), tuple(edges)))
    return ReferenceSkeleton(border, frozenset(skel), frozenset(incident), junctions, tuple(segments))


def reference_hanging_subtrees(tree: Tree, fragment, skeleton):
    """`compute_skeleton`'s hanging subtrees as the components of the
    fragment minus the skeleton edges, found by a DFS that does not cross
    skeleton vertices; each is (edges, vertices, attachment), the attachment
    being its one vertex on the skeleton."""
    on_skeleton = skeleton_vertices(tree, skeleton)
    rest = sorted(frozenset(fragment) - skeleton.edges)
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in rest:
        u, v = tree.edges[eid]
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    seen: set[int] = set()
    comps = []
    for start in rest:
        if start in seen:
            continue
        seen.add(start)
        comp_edges, comp_verts = {start}, set(tree.edges[start])
        stack = list(tree.edges[start])
        while stack:
            v = stack.pop()
            if v in on_skeleton:
                continue
            for w, eid in adj[v]:
                if eid not in seen:
                    seen.add(eid)
                    comp_edges.add(eid)
                    comp_verts.add(w)
                    stack.append(w)
        (attach,) = comp_verts & on_skeleton
        comps.append((frozenset(comp_edges), frozenset(comp_verts), attach))
    return comps


# Reference constructions for sublog's two sub-solves: each builds and
# validates a separate sub-instance with its own scaling (a `Tree` and
# `Instance` per hanging subtree, a `GeneralizedCommodity` per aux member)
# and solves it with no reuse between calls. The solvers work on the parent
# instance's integer tables instead; the differential tests in
# test_sublog.py hold them to these.


def materialized_rooted_cuts(instance: Instance, root: int, far_end: dict, edges) -> list[int]:
    """`rooted_dp` on a sub-instance of the subtree `edges` whose commodities
    run from `root` to `far_end[i]` with commodity i's budget and weight;
    the cut set in the instance's edge ids, sorted."""
    from fza import rooted_dp

    sub_edge_ids = sorted(edges)
    sub_verts = sorted({v for e in sub_edge_ids for v in instance.tree.edges[e]} | {root})
    vmap = {v: p for p, v in enumerate(sub_verts)}
    sub_tree = Tree(
        len(sub_verts),
        tuple((vmap[instance.tree.edges[e][0]], vmap[instance.tree.edges[e][1]]) for e in sub_edge_ids),
    )
    sub_commodities = [
        Commodity(vmap[root], vmap[t], instance.commodities[i].budget, instance.commodities[i].weight)
        for i, t in far_end.items()
    ]
    sub = Instance.create(sub_tree, instance.pricing, sub_commodities)
    return sorted(sub_edge_ids[e] for e in rooted_dp(sub, root=vmap[root]).cuts)


def reference_non_skeleton_solve(instance, fragment_edges, skeleton, commodity_ids, rng):
    """`sublog.non_skeleton_solve` with a materialized sub-instance per
    active hanging subtree, members or not."""
    skel_verts = skeleton_vertices(instance.tree, skeleton)
    comps = reference_hanging_subtrees(instance.tree, fragment_edges, skeleton)
    active = [rng.random() >= 0.5 for _ in comps]
    where = {}
    for idx, (_, verts, attach) in enumerate(comps):
        for v in verts:
            if v != attach:
                where.setdefault(v, idx)
    cuts = set()
    for idx, (comp_edges, _, attach) in enumerate(comps):
        if not active[idx]:
            continue
        far_end = {}
        for i in commodity_ids:
            c = instance.commodities[i]
            loc_s, loc_t = where.get(c.source), where.get(c.target)
            if (loc_s == idx) == (loc_t == idx):
                continue
            inner_end, other_end, other_loc = (
                (c.source, c.target, loc_t) if loc_s == idx else (c.target, c.source, loc_s)
            )
            if other_end in skel_verts or (other_loc is not None and not active[other_loc]):
                far_end[i] = inner_end
        cuts.update(materialized_rooted_cuts(instance, attach, far_end, comp_edges))
    return frozenset(cuts)


def reference_aux_instance(instance, skeleton, seg_index, guesses, root, active, commodity_ids):
    """`sublog.build_aux_instance` as a `GeneralizedPathInstance` with one
    `GeneralizedCommodity` per member, every table rebuilt per call."""
    from fza import GeneralizedCommodity, GeneralizedPathInstance

    segments = skeleton.segments
    seg = segments[seg_index]
    if root == seg.vertices[0]:
        verts, eids = seg.vertices, list(seg.edges)
    else:
        assert root == seg.vertices[-1]
        verts, eids = seg.vertices[::-1], list(seg.edges[::-1])
    seg_masks = [edge_mask(s.edges) for s in segments]
    seg_mask = seg_masks[seg_index]
    inner_seg_of = {v: si for si, s in enumerate(segments) for v in s.vertices[1:-1]}
    incident = [0] * instance.tree.num_vertices
    for eid, (u, v) in enumerate(instance.tree.edges):
        incident[u] |= 1 << eid
        incident[v] |= 1 << eid
    commodities = []
    for i in commodity_ids:
        c = instance.commodities[i]
        pm = instance.paths[i]
        reduced = pm & seg_mask
        if (pm & incident[root]).bit_count() != 2 or reduced in (0, seg_mask):
            continue
        if any(
            inner_seg_of.get(v) not in (None, seg_index)
            and root not in segments[inner_seg_of[v]].vertices
            and active[inner_seg_of[v]]
            for v in (c.source, c.target)
        ):
            continue
        shift = sum(
            guesses[si]
            for si in range(len(segments))
            if si != seg_index and active[si] and seg_masks[si] & pm == seg_masks[si]
        )
        if c.budget < shift:
            continue
        assert reduced == edge_mask(eids[: reduced.bit_count()])
        commodities.append(
            GeneralizedCommodity(verts[reduced.bit_count()], c.budget - shift, c.weight, instance.pricing, shift)
        )
    return GeneralizedPathInstance(tuple(verts), tuple(commodities)), eids


def reference_skeleton_solve(instance, skeleton, commodity_ids, rng_labels):
    """`sublog.skeleton_solve` with `reference_aux_instance` and one path DP
    per active segment and guess, nothing reused."""
    from itertools import product

    from fza import generalized_rooted_path_dp
    from fza.sublog import segment_guesses

    segments = skeleton.segments
    best_rev, best = None, frozenset()
    for gi, guess in enumerate(product(*(segment_guesses(len(s)) for s in segments))):
        rng = substream(*rng_labels, gi)
        active, roots = [], []
        for seg in segments:
            active.append(rng.random() >= 0.5)
            roots.append((seg.terminals[0] if rng.random() < 0.5 else seg.terminals[1]) if active[-1] else None)
        cuts = set()
        for si, root in enumerate(roots):
            if root is not None:
                gpi, eids = reference_aux_instance(instance, skeleton, si, guess, root, active, commodity_ids)
                cuts.update(eids[p] for p in generalized_rooted_path_dp(gpi.integer, guess[si]))
        rev = sum(revenue_of_commodity(instance, i, cuts) for i in commodity_ids)
        if best_rev is None or rev > best_rev:
            best_rev, best = rev, frozenset(cuts)
    return best


@pytest.fixture(scope="session")
def fig1_linear() -> Instance:
    return fig1_instance("linear")


@pytest.fixture(scope="session")
def fig1_affine() -> Instance:
    return fig1_instance("affine")
