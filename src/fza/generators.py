"""Instance generators: seeded random trees/paths and the two Max-2-SAT
reduction constructions with known optimal revenue."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    MAX_VERTICES,
    CapacityError,
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    as_int,
    normalize,
    shown,
    to_fraction,
)
from .rng import substream

PRICING_PRESETS = ("linear", "affine", "capped")
FAMILIES = ("random-tree", "random-path")
# Formula2CNF refuses more variables: the path-sat instance of n variables
# has 10 * n + 1 vertices, which must stay within `Instance`'s cap
MAX_FORMULA_VARS = (MAX_VERTICES - 1) // 10
# GenSpec refuses more commodities (and more vertices than MAX_VERTICES)
MAX_GEN_COMMODITIES = 100_000
# max2sat_optimum enumerates 2^n assignments; larger formulas are refused
MAX_2SAT_VARS = 20


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a seeded random instance draw."""

    family: str
    num_vertices: int
    num_commodities: int
    pricing: str = "linear"
    max_weight: int = 10
    fractional_weights: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_vertices", "num_commodities", "max_weight", "seed"):
            as_int(getattr(self, name), name)
        if self.num_vertices > MAX_VERTICES:
            raise CapacityError(f"random instance limited to {MAX_VERTICES} vertices, got {shown(self.num_vertices)}")
        if self.num_commodities > MAX_GEN_COMMODITIES:
            raise CapacityError(
                f"random instance limited to {MAX_GEN_COMMODITIES} commodities, got {shown(self.num_commodities)}"
            )
        if type(self.fractional_weights) is not bool:
            raise InvalidInstanceError(f"fractional_weights must be a bool, got {shown(self.fractional_weights)}")
        if self.family not in FAMILIES:
            raise InvalidInstanceError(f"unknown family {self.family!r}")
        if self.pricing not in PRICING_PRESETS:
            raise InvalidInstanceError(f"unknown pricing preset {self.pricing!r}")
        if self.num_vertices < 1:
            raise InvalidInstanceError("need at least one vertex")
        if self.num_commodities < 0:
            raise InvalidInstanceError("commodity count must be non-negative")
        if self.num_commodities > 0 and self.num_vertices < 2:
            raise InvalidInstanceError("commodities need at least two vertices")
        if self.max_weight < 1:
            raise InvalidInstanceError("max_weight must be at least 1")


def pricing_preset(name: str, length: int) -> PricingFunction:
    if name == "linear":
        return PricingFunction.linear(length)
    if name == "affine":
        return PricingFunction.affine(length)
    if name == "capped":
        return PricingFunction.capped(length, max(1, (length - 1) // 2))
    raise InvalidInstanceError(f"unknown pricing preset {name!r}")


def _prufer_tree(rng, n: int) -> Tree:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n == 1:
        return Tree(1, ())
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, tuple(edges))


def _shuffled_path(rng, n: int) -> Tree:
    labels = list(range(n))
    rng.shuffle(labels)
    return Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))


def gen_random(spec: GenSpec) -> Instance:
    """Seeded random instance; the result is already normalized."""
    rng = substream(spec.seed, "gen", spec.family, spec.num_vertices, spec.num_commodities)
    n = spec.num_vertices
    tree = _shuffled_path(rng, n) if spec.family == "random-path" else _prufer_tree(rng, n)
    pricing = pricing_preset(spec.pricing, n)
    commodities = []
    for _ in range(spec.num_commodities):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        budget = rng.randint(0, n - 1)
        if spec.fractional_weights:
            weight = Fraction(rng.randint(1, spec.max_weight), rng.randint(1, spec.max_weight))
        else:
            weight = Fraction(rng.randint(1, spec.max_weight))
        commodities.append(Commodity(s, t, budget, weight))
    return normalize(Instance.create(tree, pricing, commodities))


Literal = tuple[int, bool]  # (variable index, negated?)


def _is_pair(value) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2


@dataclass(frozen=True)
class Formula2CNF:
    """A 2-CNF formula in which each variable occurs in at most three clauses."""

    num_vars: int
    clauses: tuple[tuple[Literal, Literal], ...]

    def __post_init__(self) -> None:
        as_int(self.num_vars, "num_vars")
        if self.num_vars < 1:
            raise InvalidInstanceError("formula needs at least one variable")
        if self.num_vars > MAX_FORMULA_VARS:
            raise CapacityError(f"formula limited to {MAX_FORMULA_VARS} variables, got {shown(self.num_vars)}")
        if not isinstance(self.clauses, (tuple, list)):
            raise InvalidInstanceError(f"clauses must be a tuple of clauses, got {shown(self.clauses)}")
        occurrences = [0] * self.num_vars
        for clause in self.clauses:
            if not _is_pair(clause):
                raise InvalidInstanceError("every clause needs exactly two literals")
            for lit in clause:
                if not _is_pair(lit):
                    raise InvalidInstanceError(f"literal must be a (variable, negation flag) pair, got {shown(lit)}")
                v, neg = lit
                as_int(v, "variable")
                if type(neg) is not bool:
                    raise InvalidInstanceError(f"negation flag must be a bool, got {shown(neg)}")
                if not 0 <= v < self.num_vars:
                    raise InvalidInstanceError(f"variable {v} out of range")
            (v1, n1), (v2, n2) = clause
            if (v1, n1) == (v2, n2):
                raise InvalidInstanceError("clause repeats one literal twice")
            for v in {v1, v2}:
                occurrences[v] += 1
        if any(o > 3 for o in occurrences):
            raise InvalidInstanceError("a variable occurs in more than three clauses")
        object.__setattr__(self, "clauses", tuple(tuple(map(tuple, clause)) for clause in self.clauses))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def max2sat_optimum(formula: Formula2CNF) -> int:
    """Exhaustive maximum number of simultaneously satisfiable clauses."""
    n = formula.num_vars
    if n > MAX_2SAT_VARS:
        raise CapacityError(f"exhaustive 2-SAT limited to {MAX_2SAT_VARS} variables, got {n}")
    best = 0
    for assignment in range(1 << n):
        sat = 0
        for (v1, n1), (v2, n2) in formula.clauses:
            lit1 = bool(assignment >> v1 & 1) != n1
            lit2 = bool(assignment >> v2 & 1) != n2
            sat += lit1 or lit2
        best = max(best, sat)
    return best


@dataclass(frozen=True)
class ReductionTarget:
    """Optimal revenue of a reduction instance as a function of the maximum
    number of satisfiable clauses y: offset + per_clause * y."""

    offset: Fraction
    per_clause: Fraction

    def __call__(self, y: int) -> Fraction:
        return self.offset + self.per_clause * y


def _literal_index(lit: Literal) -> int:
    """2i for x_i and 2i + 1 for its negation: the literal's leaf, less one,
    in the star instance and its gadget in the path instance."""
    var, neg = lit
    return 2 * var + neg


def gen_star_from_2sat(formula: Formula2CNF) -> tuple[Instance, ReductionTarget]:
    """Star instance whose optimum is 9n + 5m + 3y* for y* satisfiable clauses.

    Center 0; vertices 2i+1 and 2i+2 hold variable i and its negation. Every
    variable gets a heavy two-edge commodity forcing exactly one of its edges
    to be cut; every clause adds three unit-budget commodities that pay 8
    when a literal edge is cut and 5 otherwise. Pricing is f(x) = x + 1.
    """
    n = formula.num_vars
    edges = []
    for i in range(n):
        edges.append((0, 1 + 2 * i))
        edges.append((0, 2 + 2 * i))
    tree = Tree(2 * n + 1, tuple(edges))
    pricing = PricingFunction.affine(tree.num_vertices)
    commodities = []
    for i in range(n):
        commodities.append(Commodity(1 + 2 * i, 2 + 2 * i, 1, Fraction(9, 2)))
    for lit1, lit2 in formula.clauses:
        v1, v2 = 1 + _literal_index(lit1), 1 + _literal_index(lit2)
        commodities.append(Commodity(0, v1, 1, Fraction(2)))
        commodities.append(Commodity(0, v2, 1, Fraction(2)))
        commodities.append(Commodity(v1, v2, 1, Fraction(1)))
    instance = normalize(Instance.create(tree, pricing, commodities))
    target = ReductionTarget(Fraction(9 * n + 5 * formula.num_clauses), Fraction(3))
    return instance, target


def gen_path_from_2sat(
    formula: Formula2CNF, big_m: Fraction | int | str
) -> tuple[Instance, ReductionTarget]:
    """Path instance with target revenue 42*M*n + y for assignments
    satisfying y clauses.

    Each literal (x_1, then its negation, then x_2, ...) contributes a
    five-edge gadget in blocks A|BBB|C whose five commodities pay 20M under
    the cut patterns 0-3-0 (literal true) or 1-1-1 (false). A two-edge
    commodity across each variable's C/A boundary enforces consistency. Per
    clause, two long commodities spanning from block C of the first
    literal's gadget to block A of the second's pay 1 exactly when the
    clause is satisfied; their budgets depend on the number of whole gadgets
    in between. Requires M > m. Pricing is f(x) = x + 1.

    Caveat, verifiable by brute force: the gadget also admits a
    2-cuts-in-B pattern worth 21M, so the instance optimum can exceed the
    target (43M + y already for a single tautology clause). The target
    records the intended assignment value, not the instance optimum.
    """
    m_clauses = formula.num_clauses
    big = to_fraction(big_m)
    if big <= m_clauses:
        raise InvalidInstanceError(f"M must exceed the clause count {m_clauses}")
    n = formula.num_vars
    num_gadgets = 2 * n
    num_edges = 5 * num_gadgets
    tree = Tree(num_edges + 1, tuple((v, v + 1) for v in range(num_edges)))
    pricing = PricingFunction.affine(tree.num_vertices)

    commodities = []
    for g in range(num_gadgets):
        left = 5 * g
        commodities.append(Commodity(left, left + 5, 3, big))
        commodities.append(Commodity(left + 1, left + 4, 3, 4 * big))
        commodities.append(Commodity(left + 1, left + 4, 1, big))
        commodities.append(Commodity(left, left + 4, 2, big))
        commodities.append(Commodity(left + 1, left + 5, 2, big))
    for i in range(n):
        boundary = 10 * i + 4
        commodities.append(Commodity(boundary, boundary + 2, 1, big))

    for lit1, lit2 in formula.clauses:
        g1, g2 = sorted((_literal_index(lit1), _literal_index(lit2)))
        between = g2 - g1 - 1
        s = 5 * g1 + 4
        t = 5 * g2 + 1
        commodities.append(
            Commodity(s, t, 3 * between + 1, Fraction(1, 3 * between + 2))
        )
        commodities.append(
            Commodity(
                s, t, 3 * between, Fraction(1, (3 * between + 1) * (3 * between + 2))
            )
        )
    instance = normalize(Instance.create(tree, pricing, commodities))
    target = ReductionTarget(42 * big * n, Fraction(1))
    return instance, target
