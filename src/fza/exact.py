"""Exact solvers: brute-force oracle, the rooted-instance dynamic program, and
the generalized rooted path DP with a prescribed cut count.

Brute force searches the 2^m cut sets depth first in lexicographic order and
skips a branch once an upper bound on its revenue (every commodity still
within budget cut up to its budget by its remaining path edges) is not above
the best found, so it returns the enumeration's optimum and tie-break.

Both DPs add and compare the integer revenues of `Instance`'s kernel
(`Instance._scaled`). `rooted_cut_set` solves a rooted sub-problem within an
edge set of the instance's own tree: it keeps one table per vertex of
`Tree.walk`'s order, merges each into its parent's through the walk's
parent map in reversed order and reads the cuts off in walk order, with no
child lists. The path DP is a kernel too: it reads integer rows
(`IntegerPathInstance`) against one scaled price table and returns cut
positions, so sublog's sub-solves run on the parent instance with no
sub-`Instance` built, and `gen_rooted_path` builds its result through
`make_result` like every other solver.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Mapping, NamedTuple

from .model import (
    CapacityError,
    FzaError,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    SolveResult,
    as_int,
    edge_mask,
    make_result,
    scale_terms,
    to_fraction,
)

# brute force enumerates 2^m cut sets; larger trees are refused
MAX_BRUTE_EDGES = 24


def brute_force(instance: Instance) -> SolveResult:
    """Search all cut sets by branch and bound and return a revenue-maximizing one.

    A depth-first search visits cut sets in lexicographic order of their
    sorted edge-id tuples: the children of a set T are T + {e} for each edge
    e > max(T), ascending. Cutting edge e adds the cached marginal gain
    `instance.gains[i][c]` per commodity i on it with c cuts so far, and a
    new best is kept only on a strict `>`, so ties go to the lexicographically
    smallest tuple. Before child e the search bounds every set below T's
    children e, e + 1, ...: each commodity still within budget is cut as far
    as its budget allows by its path edges from e on, and one past budget
    pays 0. F is non-decreasing, so no such set beats that bound; when it is
    not above the best, the children are skipped, as every set among them
    comes after the best in lexicographic order and would lose a tie.
    Refuses instances with more than `MAX_BRUTE_EDGES` edges.
    """
    m = instance.tree.num_edges
    if m > MAX_BRUTE_EDGES:
        raise CapacityError(f"brute force limited to {MAX_BRUTE_EDGES} edges, instance has {m}")
    _, weights, prices, budgets = instance._scaled
    gains = instance.gains
    # per edge e and commodity i on it: i, its gains, its budget, |P_i ∩ {e, ..., m - 1}|
    rest = [0] * instance.num_commodities
    on_edge: list[tuple] = [()] * m
    for e in range(m - 1, -1, -1):
        ids = [i for i, path in enumerate(instance.paths) if path >> e & 1]
        for i in ids:
            rest[i] += 1
        on_edge[e] = tuple((i, gains[i], budgets[i], rest[i]) for i in ids)
    counts = [0] * instance.num_commodities
    best_rev, best_cuts = instance._empty_revenue, ()
    cuts: list[int] = []

    def search(start: int, revenue: int, bound: int) -> None:
        # revenue: that of `cuts`; bound, before child e: the sum over commodities
        # i within budget of W_i F(min(u_i, c_i + |P_i ∩ {e, ..., m - 1}|))
        nonlocal best_rev, best_cuts
        for e in range(start, m):
            if bound <= best_rev:
                return
            child_rev, child_bound = revenue, bound
            for i, g, u, _ in on_edge[e]:
                c = counts[i]
                child_rev += g[c]
                if c == u:  # the cut takes i past its budget
                    child_bound += g[c]
                counts[i] = c + 1
            cuts.append(e)
            if child_rev > best_rev:
                best_rev, best_cuts = child_rev, tuple(cuts)
            search(e + 1, child_rev, child_bound)
            cuts.pop()
            for i, g, u, r in on_edge[e]:
                c = counts[i] = counts[i] - 1
                if c + r <= u:  # leaving e uncut lowers i's reach by one cut
                    bound -= g[c + r - 1]

    search(0, best_rev, sum(w * prices[min(u, r)] for w, u, r in zip(weights, budgets, rest)))
    return make_result(instance, best_cuts, algorithm="brute", diagnostics={"candidates": 1 << m})


def _far_ends(instance: Instance, root: int) -> dict[int, int]:
    """Per commodity id, in order: its endpoint other than `root`. Refuses a
    commodity that does not touch `root`."""
    far_end: dict[int, int] = {}
    for i, c in enumerate(instance.commodities):
        if c.source == root:
            far_end[i] = c.target
        elif c.target == root:
            far_end[i] = c.source
        else:
            raise InvalidInstanceError(
                f"commodity ({c.source},{c.target}) does not touch root {root}"
            )
    return far_end


def rooted_dp(instance: Instance, root: int = 0) -> SolveResult:
    """Optimal solution for a rooted instance (every commodity touches `root`);
    see `rooted_cut_set`."""
    cuts = rooted_cut_set(instance, root, _far_ends(instance, root))
    return make_result(instance, cuts, algorithm="rooted", diagnostics={"root": root})


def rooted_cut_set(
    instance: Instance,
    root: int,
    far_end: Mapping[int, int],
    edges: AbstractSet[int] | None = None,
) -> list[int]:
    """A revenue-maximizing cut set for the commodities i in `far_end`, each
    running from `root` to `far_end[i]`, cutting only edges in `edges` (all
    edges by default).

    The DP runs over the vertices of `Tree.walk(root, edges)` that lie on a
    path from the root to a far end, reading the walk's parent map `up`.
    R_v(x) is the best revenue obtainable from commodities whose path passes
    v, given exactly x cuts between the root and v, so v's table is one
    entry longer than its parent's. In reversed walk order each vertex v is
    merged into its parent p: R_p(x) gains R_v(x) if v's parent edge is kept
    or R_v(x + 1) if it is cut, whichever is better. Reconstruction runs in
    walk order, parents first, and cuts an edge only on a strict gain, so
    it yields a minimal optimal cut set; an edge with no far end below it is
    never cut, which is why the DP can leave those edges out. Revenues are
    the instance's scaled ints.

    The closing self-check scores the cut set with the instance's own path
    masks, so each commodity's path must meet `edges` exactly in its part
    between the root and its far end.
    """
    order, up = instance.tree.walk(root, edges)
    spanned = {root}
    for t in far_end.values():
        if t not in up:
            raise InvalidInstanceError(f"far end {t} is not reachable from root {root}")
        while t not in spanned:
            spanned.add(t)
            t = up[t][0]
    order = [v for v in order if v in spanned]
    table = {root: [0]}
    for v in order[1:]:
        table[v] = [0] * (len(table[up[v][0]]) + 1)

    _, weights, prices, budgets = instance._scaled
    for i, t in far_end.items():
        vals, w = table[t], weights[i]
        for x in range(min(len(vals), budgets[i] + 1)):
            vals[x] += w * prices[x]
    for v in reversed(order[1:]):
        p, below = up[v][0], table[v]
        # keep (below[x]) or cut (below[x + 1]): the better value either way
        table[p] = [a + (s if s >= c else c) for a, s, c in zip(table[p], below, below[1:])]

    cuts = []
    above = {root: 0}  # per vertex: the cuts between the root and it
    for v in order[1:]:
        p, eid = up[v]
        x, below = above[p], table[v]
        if below[x + 1] > below[x]:
            cuts.append(eid)
            x += 1
        above[v] = x
    if instance.scaled_revenue(edge_mask(cuts), far_end) != table[root][0]:
        raise FzaError("rooted DP value disagrees with the revenue of its cut set")
    return cuts


@dataclass(frozen=True)
class GeneralizedCommodity:
    """A commodity of a generalized rooted path instance: the path runs from
    the root to `target`, and its price for x cuts is `pricing(shift + x)`.

    A suffix of a validated (concave, non-decreasing) table is both, so the
    view needs no checks of its own on the prices.
    """

    target: int
    budget: int
    weight: Fraction
    pricing: PricingFunction
    shift: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", to_fraction(self.weight))
        as_int(self.target, "target")
        if as_int(self.budget, "budget") < 0:
            raise InvalidInstanceError("budget must be a non-negative integer")
        if self.weight <= 0:
            raise InvalidInstanceError("weight must be positive")
        if as_int(self.shift, "shift") < 0:
            raise InvalidInstanceError("shift must be a non-negative integer")

    def price(self, x: int) -> Fraction:
        return self.pricing(self.shift + x)


class IntegerPathInstance(NamedTuple):
    """A generalized rooted path instance in the integer kernel's terms.

    The path has `m` edges, at positions 0..m - 1 from the root. Each
    commodity is one row (end, budget, W, shift): its path holds the
    positions below `end`, and with x cuts on it it pays
    W * prices[shift + x] if shift + x <= budget and nothing otherwise, in
    the caller's scale. Every price is >= 0.
    """

    m: int
    commodities: tuple[tuple[int, int, int, int], ...]
    prices: tuple[int, ...]


@dataclass(frozen=True)
class GeneralizedPathInstance:
    """A path v_1..v_t rooted at v_1 whose commodities all start at the root
    and carry commodity-specific (shifted) pricing tables."""

    path: tuple[int, ...]
    commodities: tuple[GeneralizedCommodity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", tuple(as_int(v, "path vertex") for v in self.path))
        object.__setattr__(self, "commodities", tuple(self.commodities))
        if not self.path:
            raise InvalidInstanceError("path must contain at least one vertex")
        if len(set(self.path)) != len(self.path):
            raise InvalidInstanceError("path vertices must be distinct")
        pos = {v: i for i, v in enumerate(self.path)}
        for c in self.commodities:
            if c.target not in pos or pos[c.target] == 0:
                raise InvalidInstanceError(f"commodity target {c.target} must be a non-root path vertex")
            if len(c.pricing) - c.shift < pos[c.target] + 1:
                raise InvalidInstanceError("pricing table does not cover the commodity's path length")

    @cached_property
    def integer(self) -> IntegerPathInstance:
        """The same instance as integer rows, scaled by `scale_terms`. The
        commodities' distinct pricing tables are laid end to end in one
        price table, and each row's shift (and so its budget) also counts
        the entries of the tables before its own; a row never reads past its
        own table, as `__post_init__` checks."""
        # distinct tables by identity: hashing a table hashes all its Fractions
        tables = {id(c.pricing): c.pricing for c in self.commodities}
        _, weights, scaled_tables = scale_terms(
            [c.weight for c in self.commodities], list(tables.values())
        )
        offset: dict[int, int] = {}
        prices: list[int] = []
        for key, scaled in zip(tables, scaled_tables):
            offset[key] = len(prices)
            prices.extend(scaled)
        pos = {v: i for i, v in enumerate(self.path)}
        rows = []
        for c, w in zip(self.commodities, weights):
            shift = offset[id(c.pricing)] + c.shift
            rows.append((pos[c.target], shift + c.budget, w, shift))
        return IntegerPathInstance(len(self.path) - 1, tuple(rows), tuple(prices))


def generalized_rooted_path_dp(gpi: IntegerPathInstance, y: int) -> list[int]:
    """The ascending edge positions of a best cut set with exactly y cuts.

    R[j][x] is the best revenue from commodities whose path reaches position j
    when x cuts lie on positions < j, among solutions with |F| = y overall.
    Only lo_j <= x <= hi_j is feasible (x <= min(j, y), and the y - x cuts
    still to place must fit on the m - j edges left). Ties prefer leaving the
    next edge uncut. The fill starts from a sentinel row R[m + 1], which is 0
    at x = y and infeasible elsewhere, so one rule fills every row from m
    down to 0: at j = m its window is x = y alone, which reads that 0. The
    closing self-check scores the positions row by row.
    """
    m, rows, prices = gpi
    if not (0 <= y <= m):
        raise InvalidInstanceError(f"cut count {y} out of range 0..{m}")
    ends_at: list[list[tuple[int, int, int]]] = [[] for _ in range(m + 1)]
    for end, budget, w, shift in rows:
        ends_at[end].append((budget - shift, w, shift))

    # table[j][x] for x in 0..y+1; values are >= 0, so -1 marks an infeasible
    # x; the sentinel row past position m admits exactly y cuts placed
    table: list[list[int]] = [[]] * (m + 1)
    below = [-1] * (y + 2)
    below[y] = 0
    for j in range(m, -1, -1):
        lo, hi = max(0, y - m + j), min(j, y)
        vals = [-1] * (y + 2)
        # keep (below[x]) or cut (below[x + 1]): the better feasible value
        vals[lo : hi + 1] = [
            s if s >= c else c for s, c in zip(below[lo : hi + 1], below[lo + 1 : hi + 2])
        ]
        for slack, w, shift in ends_at[j]:
            for x in range(lo, min(hi, slack) + 1):
                vals[x] += w * prices[shift + x]
        table[j] = below = vals

    cuts = []
    x = 0
    for j in range(m):
        below = table[j + 1]
        if below[x + 1] > below[x]:
            cuts.append(j)
            x += 1
    check = 0
    for end, budget, w, shift in rows:
        count = bisect_left(cuts, end)
        if shift + count <= budget:
            check += w * prices[shift + count]
    if check != table[0][0]:
        raise FzaError("generalized path DP value disagrees with the revenue of its cut set")
    return cuts


def generalized_from_instance(
    instance: Instance, root: int
) -> tuple[GeneralizedPathInstance, list[int]]:
    """View a path instance with a shared pricing table as a generalized
    rooted path instance. Returns the instance plus position -> edge id map."""
    verts, edge_ids = instance.tree.path_order()
    if verts and verts[-1] == root:
        verts = verts[::-1]
        edge_ids = edge_ids[::-1]
    if not verts or verts[0] != root:
        raise InvalidInstanceError(f"root {root} is not an endpoint of the path")
    commodities = tuple(
        GeneralizedCommodity(target, c.budget, c.weight, instance.pricing)
        for c, target in zip(instance.commodities, _far_ends(instance, root).values())
    )
    return GeneralizedPathInstance(tuple(verts), commodities), edge_ids


def gen_rooted_path(
    instance: Instance, seed: int, root: int = 0, cuts: int | None = None
) -> SolveResult:
    """`generalized_rooted_path_dp` on a path instance rooted at its endpoint
    `root`, with exactly `cuts` cuts, reported in the instance's edge ids.
    `seed` is unused; it keeps the solver-table calling convention."""
    if cuts is None:
        raise InvalidInstanceError("--cuts is required for gen-rooted-path")
    gpi, edge_ids = generalized_from_instance(instance, root)
    positions = generalized_rooted_path_dp(gpi.integer, cuts)
    return make_result(
        instance,
        (edge_ids[p] for p in positions),
        algorithm="gen-rooted-path",
        diagnostics={"cut_count": cuts},
    )
