"""Core data model: trees, concave pricing tables, commodities, and exact revenue.

Money-valued inputs and outputs (weights, prices, revenues) are
`fractions.Fraction`. Inside the solvers every term w_i * f(x) is scaled by the
instance's common denominator to a Python int (`Instance.value`), so solvers
add and compare ints and divide by `Instance.scale` only when a revenue leaves
them. There is no floating point anywhere in the revenue computation. Commodity
paths are cached as bitmasks over edge ids so that cut counting is a single AND
plus popcount.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]


class FzaError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(FzaError, ValueError):
    """Malformed tree, pricing table, commodity, formula, or query."""


class CapacityError(FzaError, RuntimeError):
    """Input exceeds a solver's configured enumeration budget."""


def to_fraction(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstanceError(f"not a rational: {value!r}") from exc
    raise InvalidInstanceError(f"not a rational: {value!r}")


def format_fraction(value: Fraction) -> str:
    """Lowest-terms canonical string, '7' or '7/3'."""
    return str(value)


@dataclass(frozen=True)
class Tree:
    """An undirected tree on vertices 0..num_vertices-1.

    Edge ids are list indices into `edges`. The constructor checks that the
    edge list describes a connected, loop-free, duplicate-free tree.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        n = self.num_vertices
        if n < 1:
            raise InvalidInstanceError(f"tree needs at least one vertex, got {n}")
        if len(self.edges) != n - 1:
            raise InvalidInstanceError(f"tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidInstanceError(f"duplicate edge ({u},{v})")
            seen.add(key)
        if self._component_size(0) != n:
            raise InvalidInstanceError("edge list does not describe a connected tree")

    def _component_size(self, start: int) -> int:
        reached = {start}
        queue = deque([start])
        adj = self.adjacency
        while queue:
            v = queue.popleft()
            for w, _ in adj[v]:
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
        return len(reached)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: tuple of (neighbor, edge id), in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(a) for a in adj)

    @cached_property
    def incident_masks(self) -> tuple[int, ...]:
        """Per vertex: bitmask of incident edge ids."""
        masks = [0] * self.num_vertices
        for eid, (u, v) in enumerate(self.edges):
            masks[u] |= 1 << eid
            masks[v] |= 1 << eid
        return tuple(masks)

    def rooted(self, root: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """BFS rooting: (parent vertex, parent edge id, depth, bfs order).

        parent[root] == -1 and parent_edge[root] == -1. depth counts edges.
        """
        if not (0 <= root < self.num_vertices):
            raise InvalidInstanceError(f"invalid root {root}")
        parent = [-1] * self.num_vertices
        parent_edge = [-1] * self.num_vertices
        depth = [0] * self.num_vertices
        order = [root]
        seen = [False] * self.num_vertices
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w, eid in self.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    parent_edge[w] = eid
                    depth[w] = depth[v] + 1
                    order.append(w)
                    queue.append(w)
        return parent, parent_edge, depth, order

    @cached_property
    def is_path(self) -> bool:
        return all(len(a) <= 2 for a in self.adjacency)

    def path_order(self) -> tuple[list[int], list[int]]:
        """For a path tree: (vertices end to end, edge id at each position).

        Position p (0-based) holds the edge joining the p-th and (p+1)-th
        vertex; the walk starts at the lowest-numbered degree-1 vertex.
        """
        if not self.is_path:
            raise InvalidInstanceError("tree is not a path")
        if self.num_vertices == 1:
            return [0], []
        start = min(v for v in range(self.num_vertices) if len(self.adjacency[v]) == 1)
        verts = [start]
        edge_ids = []
        prev = -1
        cur = start
        while len(verts) < self.num_vertices:
            for w, eid in self.adjacency[cur]:
                if w != prev:
                    verts.append(w)
                    edge_ids.append(eid)
                    prev, cur = cur, w
                    break
        return verts, edge_ids


@dataclass(frozen=True)
class PricingFunction:
    """Tabulated non-decreasing concave prices f(0), f(1), ... as exact rationals."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(to_fraction(v) for v in self.values))
        vals = self.values
        if not vals:
            raise InvalidInstanceError("pricing table is empty")
        if vals[0] < 0:
            raise InvalidInstanceError("pricing values must be non-negative")
        for x in range(1, len(vals)):
            if vals[x] < vals[x - 1]:
                raise InvalidInstanceError(f"pricing not non-decreasing at index {x}")
            if x >= 2 and vals[x] - vals[x - 1] > vals[x - 1] - vals[x - 2]:
                raise InvalidInstanceError(f"pricing not concave at index {x}")

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(D_f, F): D_f the lcm of the price denominators, F_x = f(x) * D_f."""
        d = lcm(*(v.denominator for v in self.values))
        return d, tuple(v.numerator * (d // v.denominator) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def base_revenue(self) -> bool:
        return self.values[0] > 0

    @classmethod
    def linear(cls, length: int) -> "PricingFunction":
        return cls(tuple(Fraction(x) for x in range(length)))

    @classmethod
    def affine(cls, length: int) -> "PricingFunction":
        return cls(tuple(Fraction(x + 1) for x in range(length)))

    @classmethod
    def capped(cls, length: int, cap: int) -> "PricingFunction":
        if cap < 0:
            raise InvalidInstanceError("cap must be non-negative")
        return cls(tuple(Fraction(min(x, cap)) for x in range(length)))


def scale_terms(
    weights: Sequence[Fraction], tables: Sequence[PricingFunction]
) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The integer kernel's scaling rule: (D, W, F) with D = D_w * D_f, where
    D_w is the lcm of the weight denominators and D_f the lcm of the price
    denominators over all `tables`, W_i = w_i * D_w and F_j[x] = tables[j](x) * D_f.
    Then w_i * tables[j](x) == Fraction(W_i * F_j[x], D)."""
    d_w = lcm(*(w.denominator for w in weights))
    d_f = lcm(*(t.scaled[0] for t in tables))
    scaled_weights = tuple(w.numerator * (d_w // w.denominator) for w in weights)
    prices = tuple(
        f if d == d_f else tuple(v * (d_f // d) for v in f) for d, f in (t.scaled for t in tables)
    )
    return d_w * d_f, scaled_weights, prices


@dataclass(frozen=True)
class Commodity:
    """A traveler group: tree path given by its endpoints, cut budget, demand weight."""

    source: int
    target: int
    budget: int
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", to_fraction(self.weight))
        if self.source == self.target:
            raise InvalidInstanceError("commodity endpoints coincide")
        if not isinstance(self.budget, int) or self.budget < 0:
            raise InvalidInstanceError(f"budget must be a non-negative integer, got {self.budget!r}")
        if self.weight <= 0:
            raise InvalidInstanceError("commodity weight must be positive")


class Parameters(NamedTuple):
    u_max: int
    p_max: int
    congestion: int


@dataclass(frozen=True)
class Instance:
    """A tree, a pricing table covering 0..n-1 cuts, and resolved commodities.

    `paths[i]` is the bitmask of edge ids on commodity i's path. Instances are
    immutable; solvers never mutate shared state.
    """

    tree: Tree
    pricing: PricingFunction
    commodities: tuple[Commodity, ...]
    paths: tuple[int, ...]
    normalized: bool = field(default=False, compare=False)

    @classmethod
    def create(
        cls,
        tree: Tree,
        pricing: PricingFunction,
        commodities: Sequence[Commodity],
    ) -> "Instance":
        if len(pricing) < tree.num_vertices:
            raise InvalidInstanceError(
                f"pricing table has {len(pricing)} entries, need at least {tree.num_vertices}"
            )
        # one rooting at vertex 0 serves every commodity: walk both endpoints
        # up to their meeting point, collecting parent edges
        parent, parent_edge, depth, _ = tree.rooted(0)
        paths = []
        for c in commodities:
            n = tree.num_vertices
            if not (0 <= c.source < n and 0 <= c.target < n):
                raise InvalidInstanceError(
                    f"commodity endpoint out of range: ({c.source},{c.target})"
                )
            mask = 0
            a, b = c.source, c.target
            while depth[a] > depth[b]:
                mask |= 1 << parent_edge[a]
                a = parent[a]
            while depth[b] > depth[a]:
                mask |= 1 << parent_edge[b]
                b = parent[b]
            while a != b:
                mask |= 1 << parent_edge[a]
                mask |= 1 << parent_edge[b]
                a, b = parent[a], parent[b]
            paths.append(mask)
        return cls(tree, pricing, tuple(commodities), tuple(paths))

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    def path_edges(self, i: int) -> frozenset[int]:
        return frozenset(mask_to_edges(self.paths[i]))

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(D, W, F, budgets); see `scale_terms`."""
        d, weights, (prices,) = scale_terms([c.weight for c in self.commodities], [self.pricing])
        return d, weights, prices, tuple(c.budget for c in self.commodities)

    @property
    def scale(self) -> int:
        """Common denominator D: w_i * f(x) == Fraction(value(i, x), D)."""
        return self._scaled[0]

    def value(self, i: int, x: int) -> int:
        """Commodity i's revenue with x cuts on its path, times `scale`."""
        _, weights, prices, budgets = self._scaled
        return weights[i] * prices[x] if x <= budgets[i] else 0

    def scaled_revenue(self, mask: int, ids: Iterable[int] | None = None) -> int:
        """Revenue of cut set `mask` over commodities `ids` (all by default), times `scale`."""
        _, weights, prices, budgets = self._scaled
        paths = self.paths
        total = 0
        for i in range(len(paths)) if ids is None else ids:
            count = (paths[i] & mask).bit_count()
            if count <= budgets[i]:
                total += weights[i] * prices[count]
        return total


def edge_mask(cuts: Iterable[int]) -> int:
    mask = 0
    for eid in cuts:
        mask |= 1 << eid
    return mask


def mask_to_edges(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def normalize(instance: Instance) -> Instance:
    """Canonicalize an instance: clamp budgets to path lengths and merge
    commodities that share both path and budget (weights add up).

    Commodities come out sorted by (low endpoint, high endpoint, budget) with
    endpoints in increasing order, which fixes the serialization order.
    """
    tree = instance.tree
    if len(instance.pricing) < tree.num_vertices:
        raise InvalidInstanceError("pricing table shorter than vertex count")
    merged: dict[tuple[int, int], list] = {}
    for c, mask in zip(instance.commodities, instance.paths):
        u = min(c.budget, mask.bit_count())
        s, t = min(c.source, c.target), max(c.source, c.target)
        key = (mask, u)
        if key in merged:
            merged[key][3] += c.weight
        else:
            merged[key] = [s, t, u, c.weight, mask]
    rows = sorted(merged.values(), key=lambda r: (r[0], r[1], r[2]))
    commodities = tuple(Commodity(r[0], r[1], r[2], r[3]) for r in rows)
    paths = tuple(r[4] for r in rows)
    # after merging, the number of distinct (path, budget) pairs is O(n^3)
    if len(commodities) > max(1, tree.num_vertices) ** 3:
        raise FzaError(f"{len(commodities)} commodities left after merging exceed n^3")
    return Instance(tree, instance.pricing, commodities, paths, normalized=True)


def total_revenue(instance: Instance, cuts: Iterable[int]) -> Fraction:
    """Plain Fraction sum, independent of the scaled kernel: the reference
    the solvers are tested against."""
    mask = edge_mask(cuts)
    total = Fraction(0)
    for c, path in zip(instance.commodities, instance.paths):
        count = (path & mask).bit_count()
        if count <= c.budget:
            total += c.weight * instance.pricing(count)
    return total


def total_revenue_mask(instance: Instance, mask: int) -> Fraction:
    return Fraction(instance.scaled_revenue(mask), instance.scale)


# no caller in the package; kept because perfbench/tracing.py traces it by name
def revenue_for(instance: Instance, ids: Iterable[int], cuts: Iterable[int]) -> Fraction:
    """Revenue restricted to the given commodity indices."""
    return Fraction(instance.scaled_revenue(edge_mask(cuts), ids), instance.scale)


def parameters(instance: Instance) -> Parameters:
    """(u_max, |P|_max, congestion); all zero for an empty commodity list."""
    if not instance.commodities:
        return Parameters(0, 0, 0)
    u_max = max(c.budget for c in instance.commodities)
    p_max = max(m.bit_count() for m in instance.paths)
    per_edge = [0] * instance.tree.num_edges
    for mask in instance.paths:
        for eid in mask_to_edges(mask):
            per_edge[eid] += 1
    congestion = max(per_edge) if per_edge else 0
    return Parameters(u_max, p_max, congestion)


@dataclass(frozen=True)
class SolveResult:
    """A solver's output: cut set, exact revenue, and per-commodity served flags.

    Diagnostics hold only deterministic counters so that serialized results
    are byte-identical across reruns with the same (instance, seed).
    """

    cuts: tuple[int, ...]
    revenue: Fraction
    served: tuple[bool, ...]
    algorithm: str
    seed: int | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)


def make_result(
    instance: Instance,
    cuts: Iterable[int],
    algorithm: str,
    seed: int | None = None,
    diagnostics: dict | None = None,
) -> SolveResult:
    cut_tuple = tuple(sorted(set(cuts)))
    m = instance.tree.num_edges
    for eid in cut_tuple:
        if not (0 <= eid < m):
            raise InvalidInstanceError(f"cut id {eid} outside edge range")
    mask = edge_mask(cut_tuple)
    served = tuple(
        (instance.paths[i] & mask).bit_count() <= instance.commodities[i].budget
        for i in range(instance.num_commodities)
    )
    return SolveResult(
        cuts=cut_tuple,
        revenue=total_revenue_mask(instance, mask),
        served=served,
        algorithm=algorithm,
        seed=seed,
        diagnostics=diagnostics or {},
    )
