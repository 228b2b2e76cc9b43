"""Core data model: trees, concave pricing tables, commodities, and exact revenue.

Money-valued inputs and outputs (weights, prices, revenues) are
`fractions.Fraction`. Inside the solvers every term w_i * f(x) is scaled by the
instance's common denominator to a Python int (`Instance.value`), so solvers
add and compare ints and divide by `Instance.scale` only when a revenue leaves
them. There is no floating point anywhere in the revenue computation.

Every walk from a root is `Tree.walk`: one depth-first loop over the whole
tree or over one edge set, returning the walk order and the parent map
`up`. A walk over a fragment of the tree (sublog's decomposition, skeleton
and hanging subtrees, the rooted DP within a subtree) reads the tree's own
sorted `adjacency` at each vertex it reaches and skips the edges outside
the fragment, so it builds no adjacency of its own. At a hub, a vertex with
more tree neighbors than the fragment has edges, it reads the neighbors off
the fragment instead, so a vertex costs at most min(degree, fragment
size); a whole-tree walk never takes that branch. The rooted DP and the
skeleton pass read `up` in walk order (parents first) or reversed (children
first) and build no child lists. A `Tree` is rooted once: its
constructor checks connectivity with the walk from vertex 0 and caches it as
`Tree.rooting`, which `Instance.paths`, `Instance._cut_table` and the
density candidates read. The tree's `adjacency` and `is_path` are cached
on first use.

An `Instance` holds only its inputs, the tree, the pricing table and the
commodities, and its constructor checks them together. Commodity paths are
derived from them and cached two ways, each built by the code that reads
it:

- `Instance.paths` holds each path as a bitmask over edge ids, so counting
  one commodity's cuts is an AND plus a popcount; its first read builds
  each path off the rooting as the XOR of its endpoints' masks of edges up
  to vertex 0, a table of Θ(n²) bits that an instance without commodities
  never builds. Sublog, `normalize`, `make_result`, `parameters()` (for
  |P|_max) and the exact solvers read it; brute force reads each edge's
  commodities off it too.
- `Instance._cut_table` holds, per edge, the bitset over commodity ids of
  the paths through it, built in one pass up the rooting in O(n + k)
  big-int operations (n * k bits). The density family scores every
  candidate with it (`Instance.scaled_cut_revenue`): a cut edge costs a
  few operations on k-bit ints, and a bit-sliced counter splits the
  commodities cut into count classes. A commodity cut c times within its
  budget earns W_i * F[c], so the revenue is F[c] times the weight served
  in each class c, plus F[0] times the weight of the commodities not cut.
  The density family's bucket walk also bounds each offset bucket through
  the same pass (`Instance.scaled_cut_bound`, which returns the revenue
  and, beside it, the revenue plus W_i * F[u_i] for each commodity cut
  past its budget) and skips the buckets whose candidates cannot win: on
  perfbench's density-tree instances `single_density` seeds about one
  stream in twenty. Where the candidate is the bucket itself, the one
  pass gives both its score and its bound. `parameters()` reads the
  congestion off it as the largest popcount.

The three path DPs list the commodities at each path position from the
commodities' end places (`param_path._Sweep`), with no per-edge cache.

`Instance.gains` caches each commodity's marginal gains, value(i, c + 1) -
value(i, c) for c below its path length, so a solver that adds or removes
one cut at a time updates its revenue with one table read per commodity
touched. It holds sum of |P_i| ints; brute force and the three path DPs,
whose guards keep that sum small, are its only readers, and each reads it
only once its guard has passed. Every `Instance` cache is built on first
use.

Sub-problems read the same kernel: sublog's per-subtree rooted DPs and
per-segment path DPs take W, F and D from the instance they were cut from
(`Instance._scaled`) and never build, validate or re-scale an `Instance` of
their own.

Reading an instance file (`files.dict_to_instance`) skips the work a
canonical file does not need. Each distinct rational string is parsed once
per file, and the forms `format_fraction` writes, '7' and '7/3', skip
`_RATIONAL`. The int checks try `type(x) is int` first. `Tree` looks for
self-loops and duplicate edges only when its rooting walk fails to reach
every vertex, and `normalize` returns an already canonical instance as it is.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]


class FzaError(Exception):
    """Base class for errors raised by this package."""


class InvalidInstanceError(FzaError, ValueError):
    """Malformed tree, pricing table, commodity, formula, or query."""


class CapacityError(FzaError, RuntimeError):
    """Input exceeds a solver's configured enumeration budget."""


# an Instance refuses larger trees: the table of root-path masks that
# `Instance.paths` builds takes Θ(n²) bits, about 1.3 GB at this size
MAX_VERTICES = 100_000


# sign, integer digits, then a '/' denominator or '.' decimals; a digit leads or follows the '.'
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*", re.ASCII)


def shown(value) -> str:
    """`repr(value)` for an error message, cut to its first 40 characters
    and its length when longer, so a huge input is not echoed whole."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def to_fraction(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a string holding an
    integer '7', a ratio '-7/3' or a decimal '2.5': ASCII digits only, an
    optional sign and surrounding whitespace, no '_' and no exponent.

    The two forms `format_fraction` writes for a non-negative value, '7' and
    '7/3' with a non-zero denominator, are read with `str` methods. Every
    other string is matched once by `_RATIONAL` and the Fraction built from
    ints; a digit group past Python's int-string limit is refused before any
    power of ten is built."""
    if isinstance(value, Fraction):
        return value
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        # an ASCII string is `isdigit` iff it is a non-empty run of 0-9
        if num.isdigit() and (not slash or den.isdigit() and den.strip("0")):
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except ValueError:  # a digit group past the int-string limit
                pass
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value)
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


def as_int(value, what: str) -> int:
    """An int; booleans, floats and other numbers are refused rather than coerced."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInstanceError(f"{what} must be an integer, got {shown(value)}")
    return value


def format_fraction(value: Fraction) -> str:
    """Lowest-terms canonical string, '7' or '7/3'."""
    return str(value)


@dataclass(frozen=True)
class Tree:
    """An undirected tree on vertices 0..num_vertices-1.

    Edge ids are list indices into `edges`. The constructor checks that the
    edge list describes a connected, loop-free, duplicate-free tree on int
    vertices.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = as_int(self.num_vertices, "num_vertices")
        object.__setattr__(
            self,
            "edges",
            tuple(
                (u, v) if type(u) is int and type(v) is int
                else (as_int(u, "edge endpoint"), as_int(v, "edge endpoint"))
                for u, v in self.edges
            ),
        )
        if n < 1:
            raise InvalidInstanceError(f"tree needs at least one vertex, got {n}")
        if len(self.edges) != n - 1:
            raise InvalidInstanceError(f"tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}")
        # n - 1 in-range edges along which the walk from vertex 0 reaches all n
        # vertices form a tree, with no self-loop and no duplicate; the
        # per-edge checks run only to name the first fault of a list that fails
        if all(0 <= u < n and 0 <= v < n for u, v in self.edges) and len(self.rooting[3]) == n:
            return
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
        raise InvalidInstanceError("edge list does not describe a connected tree")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: tuple of (neighbor, edge id), ascending."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        for a in adj:
            a.sort()
        return tuple(map(tuple, adj))

    def walk(
        self, root: int, edges: Iterable[int] | None = None
    ) -> tuple[list[int], dict[int, tuple[int, int]]]:
        """Depth-first walk from `root` over the edge set `edges` (the whole
        tree by default): (order, up).

        `order` lists the vertices reached in the order they are pushed, and
        `up` maps each to its (parent, parent edge), the root to (-1, -1). A
        vertex's children are pushed together, ascending by (neighbor, edge
        id), so every parent comes before its children. Every walk from a
        root, over the tree or over a fragment of it, is this one loop, and
        every rooted pass reads `up` as its parent map.

        The loop scans `adjacency[v]` at each vertex it reaches and skips
        the edges outside the set. At a vertex of more tree neighbors than
        the set has edges (a hub), it reads the neighbors off an index of
        the set instead, built once at the first hub, so a small fragment at
        a hub stays small and a fragment of many hubs costs
        |edges| log |edges|, not |edges| per hub. A whole-tree walk has no
        hubs: the constructor walks an edge list it has not yet checked,
        where a self-loop or a duplicate edge can give a vertex more than
        n - 1 neighbors.
        """
        if not (0 <= root < self.num_vertices):
            raise InvalidInstanceError(f"invalid root {root}")
        if edges is not None and not isinstance(edges, (set, frozenset)):
            edges = frozenset(edges)
        adj = self.adjacency
        up = {root: (-1, -1)}
        order = [root]
        stack = [root]
        hub_index = None
        while stack:
            v = stack.pop()
            pairs = adj[v]
            if edges is not None and len(pairs) > len(edges):
                if hub_index is None:
                    # vertex -> its (neighbor, edge id) pairs within the set
                    hub_index = {}
                    for eid in edges:
                        a, b = self.edges[eid]
                        hub_index.setdefault(a, []).append((b, eid))
                        hub_index.setdefault(b, []).append((a, eid))
                pairs = sorted(hub_index.get(v, ()))
            for w, eid in pairs:
                if (edges is None or eid in edges) and w not in up:
                    up[w] = (v, eid)
                    order.append(w)
                    stack.append(w)
        return order, up

    @cached_property
    def rooting(self) -> tuple[tuple[int, ...], ...]:
        """`rooted(0)` as tuples, computed by the constructor's connectivity
        check and read by every caller that roots the tree at vertex 0."""
        return tuple(map(tuple, self.rooted(0)))

    def rooted(self, root: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """The tree along `walk(root)`: (parent vertex, parent edge id, depth,
        walk order).

        parent[root] == -1 and parent_edge[root] == -1. depth counts edges.
        """
        order, up = self.walk(root)
        parent = [-1] * self.num_vertices
        parent_edge = [-1] * self.num_vertices
        depth = [0] * self.num_vertices
        for v in order[1:]:
            p, eid = up[v]
            parent[v], parent_edge[v], depth[v] = p, eid, depth[p] + 1
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
        start = min((v for v, a in enumerate(self.adjacency) if len(a) == 1), default=0)
        order, up = self.walk(start)
        return order, [up[v][1] for v in order[1:]]


@dataclass(frozen=True)
class PricingFunction:
    """Tabulated non-decreasing concave prices f(0), f(1), ... as exact rationals,
    checked on the integer table `scaled`: scaling by D_f > 0 keeps every comparison."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(to_fraction, self.values)))
        if not self.values:
            raise InvalidInstanceError("pricing table is empty")
        vals = self.scaled[1]
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
        if type(self.weight) is not Fraction:
            object.__setattr__(self, "weight", to_fraction(self.weight))
        s, t, u = self.source, self.target, self.budget
        if not (type(s) is int and type(t) is int):
            as_int(s, "commodity endpoint")
            as_int(t, "commodity endpoint")
        if s == t:
            raise InvalidInstanceError("commodity endpoints coincide")
        if type(u) is not int:
            as_int(u, "budget")
        if u < 0:
            raise InvalidInstanceError(f"budget must be a non-negative integer, got {u!r}")
        if self.weight.numerator <= 0:
            raise InvalidInstanceError("commodity weight must be positive")


class Parameters(NamedTuple):
    u_max: int
    p_max: int
    congestion: int


@dataclass(frozen=True)
class Instance:
    """A tree, a pricing table covering 0..n-1 cuts, and commodities whose
    endpoints are vertices of the tree.

    The constructor checks the vertex cap, the table length and the
    endpoints, in that order, however the instance is built; `paths` and the
    other caches are derived from these three fields on first read.
    Instances are immutable; solvers never mutate shared state.
    """

    tree: Tree
    pricing: PricingFunction
    commodities: tuple[Commodity, ...]

    def __post_init__(self) -> None:
        n = self.tree.num_vertices
        if n > MAX_VERTICES:
            raise CapacityError(f"instance limited to {MAX_VERTICES} vertices, got {n}")
        if len(self.pricing) < n:
            raise InvalidInstanceError(f"pricing table has {len(self.pricing)} entries, need at least {n}")
        for c in self.commodities:
            if not (0 <= c.source < n and 0 <= c.target < n):
                raise InvalidInstanceError(f"commodity endpoint out of range: ({c.source},{c.target})")

    @classmethod
    def create(
        cls,
        tree: Tree,
        pricing: PricingFunction,
        commodities: Iterable[Commodity],
    ) -> "Instance":
        return cls(tree, pricing, tuple(commodities))

    @cached_property
    def paths(self) -> tuple[int, ...]:
        """Per commodity i: the bitmask of edge ids on its path; `()`, with no
        table built, when there are no commodities."""
        if not self.commodities:
            return ()
        # the tree's one rooting at vertex 0 serves every commodity: each
        # vertex's mask of edges up to vertex 0, so a path is the XOR of its ends'
        parent, parent_edge, _, order = self.tree.rooting
        root_path = [0] * self.tree.num_vertices
        for v in order[1:]:
            root_path[v] = root_path[parent[v]] | 1 << parent_edge[v]
        return tuple(root_path[c.source] ^ root_path[c.target] for c in self.commodities)

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

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

    @cached_property
    def gains(self) -> tuple[tuple[int, ...], ...]:
        """Per commodity i: value(i, c + 1) - value(i, c) for c = 0 .. |P_i| - 1,
        the scaled marginal gain of the (c+1)-th cut on its path.

        Holds sum of |P_i| ints, so only the guard-bounded exact solvers
        (brute force and the three path DPs) build it, each after its guard.
        """
        _, weights, prices, budgets = self._scaled
        out = []
        for w, u, path in zip(weights, budgets, self.paths):
            vals = [w * prices[x] if x <= u else 0 for x in range(path.bit_count() + 1)]
            out.append(tuple(b - a for a, b in zip(vals, vals[1:])))
        return tuple(out)

    @cached_property
    def _empty_revenue(self) -> int:
        """Scaled revenue of the empty cut set: F_0 * sum of W_i."""
        _, weights, prices, _ = self._scaled
        return prices[0] * sum(weights)

    @cached_property
    def _cut_table(self) -> list[int]:
        """Per edge id: the bitset over commodity ids of the paths that hold
        it.

        One pass up `Tree.rooting`, children before parents. A vertex's
        bitset is the XOR of its endpoint bits and its children's bitsets,
        so a commodity with both ends below it cancels, and the pass costs
        O(n + k) big-int operations.
        """
        parent, parent_edge, _, order = self.tree.rooting
        below = [0] * self.tree.num_vertices
        for i, c in enumerate(self.commodities):
            below[c.source] |= 1 << i
            below[c.target] |= 1 << i
        bits = [0] * (self.tree.num_vertices - 1)
        for v in reversed(order[1:]):
            bits[parent_edge[v]] = below[v]
            below[parent[v]] ^= below[v]
        return bits

    @cached_property
    def _plane_tables(self) -> tuple[list[int], list[int], dict[int, int], list[int], list[int]]:
        """(the bit planes of W_i; the bit planes of min(u_i, n); the sets
        {i : u_i >= c} that `_at_least` has derived, by c; T_i =
        W_i * F[min(u_i, n - 1)], commodity i's revenue when cut at its
        budget; and the bit planes of T_i), every set a bitset over
        commodity ids. A cut count is below n, so the clamps keep every
        u_i >= c test and the T_i of every commodity that can be cut past
        its budget."""
        _, weights, prices, budgets = self._scaled
        n = self.tree.num_vertices
        tops = [w * prices[min(u, n - 1)] for w, u in zip(weights, budgets)]
        return (
            _bit_planes(weights, max(weights, default=0).bit_length()),
            _bit_planes([min(u, n) for u in budgets], n.bit_length()),
            {},
            tops,
            _bit_planes(tops, max(tops, default=0).bit_length()),
        )

    def _at_least(self, c: int) -> int:
        """The set {i : u_i >= c}, by comparing budget planes from the top."""
        planes, found = self._plane_tables[1:3]
        if c not in found:
            above, tied = 0, (1 << len(self.commodities)) - 1
            for bit in reversed(range(len(planes))):
                if c >> bit & 1:
                    tied &= planes[bit]
                else:
                    above |= tied & planes[bit]
                    tied &= ~planes[bit]
            found[c] = above | tied
        return found[c]

    def _cut_counts(self, cuts: Iterable[int]) -> tuple[int, int]:
        """For the cut set `cuts` (distinct edge ids): (its revenue, times
        `scale`; the bitset over commodity ids of those it cuts past their
        budget).

        The commodities cut at least once (`ones`), twice or more (`twos`)
        and three times or more (`threes`) are found while adding, as
        `threes |= twos & b; twos |= ones & b; ones |= b` over the edges'
        bitsets (`_cut_table`). `ones` less `twos` is the count class
        c = 1. When there are any `threes`, a bit-sliced counter over the
        cut edges splits `twos` into the count classes that occur; else
        `twos` is the one class c = 2. One cut edge costs a few operations
        on k-bit ints, rather than one dict update per commodity on the
        edge.

        A commodity cut c times earns W_i * F[c] if u_i >= c, else nothing.
        So the revenue is the empty set's, less F[0] times the weight of
        `ones`, plus F[c] times the weight of each class's members with
        u_i >= c; the class's other members are cut past their budget.
        """
        bits = self._cut_table
        ones = twos = threes = 0
        picked = []
        for e in cuts:
            b = bits[e]
            threes |= twos & b
            twos |= ones & b
            ones |= b
            picked.append(b)
        classes = [(ones ^ twos, 1)]
        if threes:
            counter: list[int] = []  # counter[j]: the commodities whose cut count has bit j set
            for b in picked:
                carry = b & twos
                for j, plane in enumerate(counter):
                    counter[j] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    if carry:
                        counter.append(carry)
            # split `twos` by the counter's planes, highest first, into its count classes
            stack = [(twos, len(counter), 0)]
            while stack:
                members, j, c = stack.pop()
                if not j:
                    classes.append((members, c))
                    continue
                high = members & counter[j - 1]
                if high:
                    stack.append((high, j - 1, c | 1 << (j - 1)))
                if high != members:
                    stack.append((members ^ high, j - 1, c))
        elif twos:
            classes.append((twos, 2))
        _, weights, prices, _ = self._scaled
        planes = self._plane_tables[0]
        total = self._empty_revenue
        if prices[0]:
            total -= prices[0] * _sum(ones, weights, planes)
        over = 0
        for members, c in classes:
            served = members & self._at_least(c)
            over |= members ^ served
            if served:  # a 1-vertex tree has no price F[1] for its empty class c = 1
                total += prices[c] * _sum(served, weights, planes)
        return total, over

    def scaled_cut_revenue(self, cuts: Iterable[int]) -> int:
        """Revenue of the cut set `cuts` (distinct edge ids), times `scale`:
        the served weight of each count class times its price
        (`_cut_counts`). Equals `scaled_revenue(edge_mask(cuts))`."""
        return self._cut_counts(cuts)[0]

    def scaled_cut_bound(self, edges: Iterable[int]) -> tuple[int, int]:
        """(`scaled_cut_revenue(edges)`, the sum of W_i * F[min(u_i, c_i)],
        c_i the number of `edges` (distinct edge ids) on commodity i's
        path), from one `_cut_counts` pass. No subset of `edges` earns more
        than that sum, since it cuts no path more often and f is
        non-decreasing, and a superset's sum is no smaller.

        The sum is the revenue plus T_i = W_i * F[min(u_i, n - 1)] over the
        commodities cut past their budget, the members of each count class
        c whose budget is below c.
        """
        total, over = self._cut_counts(edges)
        return total, total + _sum(over, *self._plane_tables[3:])

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


# per bit b of a byte: the table mapping each byte to b"1" if bit b is set, else b"0"
_BIT_DIGITS = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def _bit_planes(values: Sequence[int], width: int) -> list[int]:
    """Plane j is the bitset of the indices i whose values[i] has bit j set;
    every value is below 2 ** width. The values are laid out as bytes once,
    and each plane is read off one byte column as a string of binary
    digits."""
    size = (width + 7) // 8
    data = b"".join([v.to_bytes(size, "little") for v in values])
    return [int(data[j // 8 :: size].translate(_BIT_DIGITS[j % 8])[::-1] or b"0", 2) for j in range(width)]


def _plane_sum(members: int, planes: Sequence[int]) -> int:
    """Sum of the values whose bit planes are `planes` (see `_bit_planes`)
    over the bitset `members`: one AND and one popcount per plane."""
    total = 0
    for j, plane in enumerate(planes):
        total += (members & plane).bit_count() << j
    return total


def _sum(members: int, values: Sequence[int], planes: Sequence[int]) -> int:
    """Sum of `values` over the bitset `members`: item by item when it has
    no more members than there are `planes` (the bit planes of `values`,
    see `_bit_planes`), else by `_plane_sum`."""
    if members.bit_count() > len(planes):
        return _plane_sum(members, planes)
    total = 0
    while members:
        low = members & -members
        total += values[low.bit_length() - 1]
        members ^= low
    return total


def edge_mask(cuts: Iterable[int]) -> int:
    mask = 0
    for eid in cuts:
        mask |= 1 << eid
    return mask


def first_best(
    candidates: Iterable[frozenset[int]], score: Callable[[frozenset[int]], int]
) -> frozenset[int]:
    """The first of `candidates` (a non-empty iterable) with the highest score.

    Every approximation keeps its best cut set by this rule. Candidates are
    walked in order and a later one replaces the best only on a strictly
    higher score, so the first to reach the maximum wins a tie. Each
    distinct candidate is scored once: a repeat earns the same score, so it
    could not win. Each candidate is scored before the next is drawn, so a
    generator of candidates may leave out those that its `score` calls so
    far show cannot win (`single_density` does).
    """
    seen = set()
    best = best_score = None
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        s = score(cand)
        if best_score is None or s > best_score:
            best, best_score = cand, s
    return best


def normalize(instance: Instance) -> Instance:
    """Canonicalize an instance: clamp budgets to path lengths and merge
    commodities that share both path and budget (weights add up).

    The merge key is (low endpoint, high endpoint, clamped budget): a tree
    path's edge set fixes its endpoints, so two commodities share a path
    exactly when they share that pair. Commodities come out sorted by that
    key, with endpoints in increasing order, which fixes the serialization
    order. An instance already in that form (s < t, u <= |P_i|, (s, t, u)
    strictly increasing, as `write_instance` and `fza gen` write it) is
    returned as it is after one pass, since no two of its commodities share
    a key. Otherwise an input commodity that is already in that form and
    merges with no other is kept as it is rather than built and validated
    again. A rebuilt instance derives its own `paths` on first read.
    """
    last = None
    for c, mask in zip(instance.commodities, instance.paths):
        key = (c.source, c.target, c.budget)
        if c.source >= c.target or c.budget > mask.bit_count() or (last is not None and key <= last):
            break
        last = key
    else:
        return instance
    # (s, t, u) -> [summed weight, the input commodity if it stays as it is]
    merged: dict[tuple[int, int, int], list] = {}
    for c, mask in zip(instance.commodities, instance.paths):
        s, t = min(c.source, c.target), max(c.source, c.target)
        key = (s, t, min(c.budget, mask.bit_count()))
        if key in merged:
            merged[key][0] += c.weight
            merged[key][1] = None
        else:
            merged[key] = [c.weight, c if (s, key[2]) == (c.source, c.budget) else None]
    rows = [(key, *merged[key]) for key in sorted(merged)]
    commodities = tuple(kept or Commodity(*key, weight) for key, weight, kept in rows)
    return Instance(instance.tree, instance.pricing, commodities)


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
    congestion = max(map(int.bit_count, instance._cut_table))
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
