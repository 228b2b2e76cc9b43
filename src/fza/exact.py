"""Exact solvers: brute-force oracle, the rooted-instance dynamic program, and
the generalized rooted path DP with a prescribed cut count."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import (
    CapacityError,
    FzaError,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    SolveResult,
    make_result,
    mask_to_edges,
    scale_terms,
    to_fraction,
)

# brute force enumerates 2^m cut sets; larger trees are refused
MAX_BRUTE_EDGES = 24


def brute_force(instance: Instance) -> SolveResult:
    """Enumerate all cut sets and return a revenue-maximizing one.

    Iterates in Gray-code order so each step flips a single edge and updates
    per-commodity intersection counters incrementally. Ties go to the
    lexicographically smallest sorted edge-id tuple. Refuses instances with
    more than `MAX_BRUTE_EDGES` edges.
    """
    m = instance.tree.num_edges
    if m > MAX_BRUTE_EDGES:
        raise CapacityError(f"brute force limited to {MAX_BRUTE_EDGES} edges, instance has {m}")
    k = instance.num_commodities
    value = instance.value
    on_edge: list[list[int]] = [[] for _ in range(m)]
    for i in range(k):
        for eid in mask_to_edges(instance.paths[i]):
            on_edge[eid].append(i)

    counts = [0] * k
    revenue = sum(value(i, 0) for i in range(k))
    best_rev = revenue
    best_key: tuple[int, ...] = ()
    best_mask = 0
    mask = 0
    for t in range(1, 1 << m):
        eid = (t & -t).bit_length() - 1
        bit = 1 << eid
        delta = 1 if not mask & bit else -1
        mask ^= bit
        for i in on_edge[eid]:
            old = counts[i]
            counts[i] = old + delta
            revenue += value(i, old + delta) - value(i, old)
        if revenue > best_rev:
            best_rev = revenue
            best_mask = mask
            best_key = mask_to_edges(mask)
        elif revenue == best_rev:
            key = mask_to_edges(mask)
            if key < best_key:
                best_key = key
                best_mask = mask
    return make_result(
        instance,
        mask_to_edges(best_mask),
        algorithm="brute",
        diagnostics={"candidates": 1 << m},
    )


def rooted_dp(instance: Instance, root: int = 0) -> SolveResult:
    """Optimal solution for a rooted instance (every commodity touches `root`).

    Bottom-up over the tree: R_v(x) is the best revenue obtainable from
    commodities whose path passes v, given exactly x cuts between the root
    and v. Each child edge is either kept (stay at x) or cut (recurse at
    x+1); ties prefer the uncut branch, so reconstruction yields a minimal
    optimal cut set.
    """
    tree = instance.tree
    far = []
    for c in instance.commodities:
        if c.source == root:
            far.append(c.target)
        elif c.target == root:
            far.append(c.source)
        else:
            raise InvalidInstanceError(
                f"commodity ({c.source},{c.target}) does not touch root {root}"
            )
    parent, parent_edge, depth, order = tree.rooted(root)
    children: list[list[tuple[int, int]]] = [[] for _ in range(tree.num_vertices)]
    for v in order[1:]:
        children[parent[v]].append((v, parent_edge[v]))
    ends_at: list[list[int]] = [[] for _ in range(tree.num_vertices)]
    for i, t in enumerate(far):
        ends_at[t].append(i)

    value = instance.value
    # scaled revenues (ints); see Instance.value
    table: list[list[int]] = [None] * tree.num_vertices  # type: ignore[list-item]
    cut_child: list[list[list[bool]]] = [None] * tree.num_vertices  # type: ignore[list-item]
    for v in reversed(order):
        dv = depth[v]
        vals = []
        choices = []
        for x in range(dv + 1):
            total = sum(value(i, x) for i in ends_at[v])
            flags = []
            for w, _ in children[v]:
                stay = table[w][x]
                cut = table[w][x + 1]
                if cut > stay:
                    total += cut
                    flags.append(True)
                else:
                    total += stay
                    flags.append(False)
            vals.append(total)
            choices.append(flags)
        table[v] = vals
        cut_child[v] = choices

    cuts = []
    stack = [(root, 0)]
    while stack:
        v, x = stack.pop()
        for (w, eid), was_cut in zip(children[v], cut_child[v][x]):
            if was_cut:
                cuts.append(eid)
                stack.append((w, x + 1))
            else:
                stack.append((w, x))
    result = make_result(instance, cuts, algorithm="rooted", diagnostics={"root": root})
    if result.revenue != Fraction(table[root][0], instance.scale):
        raise FzaError("rooted DP value disagrees with the revenue of its cut set")
    return result


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
        if not isinstance(self.budget, int) or self.budget < 0:
            raise InvalidInstanceError("budget must be a non-negative integer")
        if self.weight <= 0:
            raise InvalidInstanceError("weight must be positive")
        if not isinstance(self.shift, int) or self.shift < 0:
            raise InvalidInstanceError("shift must be a non-negative integer")

    def price(self, x: int) -> Fraction:
        return self.pricing(self.shift + x)


@dataclass(frozen=True)
class GeneralizedPathInstance:
    """A path v_1..v_t rooted at v_1 whose commodities all start at the root
    and carry commodity-specific (shifted) pricing tables."""

    path: tuple[int, ...]
    commodities: tuple[GeneralizedCommodity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", tuple(int(v) for v in self.path))
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

    @property
    def num_edges(self) -> int:
        return len(self.path) - 1

    @property
    def root(self) -> int:
        return self.path[0]

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(D, W, F) over the commodities, in order; see `scale_terms`."""
        return scale_terms(
            [c.weight for c in self.commodities], [c.pricing for c in self.commodities]
        )


def generalized_rooted_path_dp(gpi: GeneralizedPathInstance, y: int) -> SolveResult:
    """Best solution with exactly y cuts on the path.

    R[j][x] is the best revenue from commodities whose path reaches position j
    when x cuts lie on positions < j, among solutions with |F| = y overall;
    infeasible states are simply absent. Ties prefer leaving the next edge
    uncut. Cut ids in the result are 0-based edge positions along the path.
    """
    t = len(gpi.path)
    m = t - 1
    if not (0 <= y <= m):
        raise InvalidInstanceError(f"cut count {y} out of range 0..{m}")
    pos = {v: i for i, v in enumerate(gpi.path)}
    scale, weights, prices = gpi.scaled
    # per end position: (W, F, shift, budget), revenues scaled by `scale`
    ends_at: list[list[tuple[int, tuple[int, ...], int, int]]] = [[] for _ in range(t)]
    for c, w, f in zip(gpi.commodities, weights, prices):
        ends_at[pos[c.target]].append((w, f, c.shift, c.budget))

    def base(j: int, x: int) -> int:
        return sum(w * f[s + x] for w, f, s, u in ends_at[j] if x <= u)

    # table[j] maps x -> value; only feasible x appear (x <= min(j, y), and at
    # the last vertex every cut must already be placed, so x == y there)
    table: list[dict[int, int]] = [dict() for _ in range(t)]
    cut_next: list[dict[int, bool]] = [dict() for _ in range(t)]
    table[t - 1] = {y: base(t - 1, y)}
    for j in range(t - 2, -1, -1):
        for x in range(0, min(j, y) + 1):
            stay = table[j + 1].get(x)
            cut = table[j + 1].get(x + 1)
            if stay is None and cut is None:
                continue
            if cut is None or (stay is not None and stay >= cut):
                best, flag = stay, False
            else:
                best, flag = cut, True
            table[j][x] = base(j, x) + best
            cut_next[j][x] = flag
    if 0 not in table[0]:
        raise InvalidInstanceError("no feasible cut placement")

    cuts = []
    x = 0
    for j in range(m):
        if cut_next[j][x]:
            cuts.append(j)
            x += 1
    served = []
    check = 0
    for c, w, f in zip(gpi.commodities, weights, prices):
        count = bisect_left(cuts, pos[c.target])
        ok = count <= c.budget
        served.append(ok)
        if ok:
            check += w * f[c.shift + count]
    if check != table[0][0]:
        raise FzaError("generalized path DP value disagrees with the revenue of its cut set")
    return SolveResult(
        cuts=tuple(cuts),
        revenue=Fraction(check, scale),
        served=tuple(served),
        algorithm="gen-rooted-path",
        diagnostics={"cut_count": y},
    )


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
    commodities = []
    for c in instance.commodities:
        if c.source == root:
            target = c.target
        elif c.target == root:
            target = c.source
        else:
            raise InvalidInstanceError(
                f"commodity ({c.source},{c.target}) does not touch root {root}"
            )
        commodities.append(GeneralizedCommodity(target, c.budget, c.weight, instance.pricing))
    return GeneralizedPathInstance(tuple(verts), tuple(commodities)), edge_ids


def gen_rooted_path(
    instance: Instance, seed: int, root: int = 0, cuts: int | None = None
) -> SolveResult:
    """`generalized_rooted_path_dp` on a path instance rooted at its endpoint
    `root`, with exactly `cuts` cuts, reported in the instance's edge ids.
    `seed` is unused; it keeps the solver-table calling convention."""
    if cuts is None:
        raise InvalidInstanceError("--cuts is required for gen-rooted-path")
    gpi, edge_ids = generalized_from_instance(instance, root)
    sub = generalized_rooted_path_dp(gpi, cuts)
    return make_result(
        instance,
        (edge_ids[p] for p in sub.cuts),
        algorithm="gen-rooted-path",
        diagnostics=dict(sub.diagnostics),
    )
