"""Single Density approximations: commodities are grouped by budget-to-length
ratio, one cheap candidate family is built per group, and the best candidate by
full revenue wins.

Variants: the randomized tree algorithm (modular offset candidates thinned by
coin flips), a deterministic path variant (every 2^j-th edge), a deterministic
variant for pricing with base revenue (unthinned offsets), and a simplified
variant that samples each edge independently.
"""

from __future__ import annotations

from .model import (
    Instance,
    InvalidInstanceError,
    SolveResult,
    first_best,
    make_result,
)
from .rng import substream


def ceil_log2(n: int) -> int:
    if n < 1:
        raise InvalidInstanceError("n must be positive")
    return (n - 1).bit_length()


def _argmax_candidates(instance, candidates, algorithm, seed=None):
    """Pick the candidate with maximum full-instance revenue by `first_best`:
    ties go to the lowest class j, then the lowest offset theta."""
    return make_result(
        instance,
        first_best(candidates, instance.scaled_cut_revenue),
        algorithm=algorithm,
        seed=seed,
        diagnostics={"candidates": len(candidates)},
    )


def _offset_buckets(instance: Instance):
    """Per class j = 1..ceil(log2 n): the edge ids grouped by depth below
    vertex 0 mod 2^(j+1), ascending edge id within each group. The depth of
    an edge is the depth of its endpoint closer to the root."""
    _, parent_edge, depth, order = instance.tree.rooting
    depths = sorted((parent_edge[v], depth[v] - 1) for v in order[1:])
    for j in range(1, ceil_log2(instance.tree.num_vertices) + 1):
        buckets: list[list[int]] = [[] for _ in range(1 << (j + 1))]
        for eid, d in depths:
            buckets[d % len(buckets)].append(eid)
        yield j, buckets


def single_density(instance: Instance, seed: int) -> SolveResult:
    """Randomized logarithmic approximation on trees.

    One candidate per (class j, offset theta) pair: the modular edge
    selection below root 0, thinned edge-wise with probability 1/2. The empty
    set covers the zero-budget class. Each pair's coin flips come from its
    own stream, addressed by (seed, j, theta).

    The candidates go to `first_best` in that order, but a pair is skipped
    before its stream is seeded when its thinned set cannot win: when its
    bucket is empty, when the bucket's `scaled_cut_bound` is no higher than
    the best score so far, or when the pair (j - 1, theta mod 2^j) was
    skipped. That pair's bucket holds this one, so its bound was no lower,
    and the best score never falls. A skipped candidate scores at most the
    best, and only a strictly higher score replaces it, so the result is the
    one every candidate would give.
    """
    high = 0  # the highest score so far; the empty set, scored first, sets it

    def score(cuts):
        nonlocal high
        value = instance.scaled_cut_revenue(cuts)
        high = max(high, value)
        return value

    def candidates():
        yield frozenset()
        kept: set[int] = set()  # the offsets of the class before that were not skipped
        for j, buckets in _offset_buckets(instance):
            half, parents, kept = len(buckets) // 2, kept, set()
            for theta, bucket in enumerate(buckets):
                if not bucket or (j > 1 and theta % half not in parents) or instance.scaled_cut_bound(bucket) <= high:
                    continue
                kept.add(theta)
                rng = substream(seed, "single-density", j, theta)
                yield frozenset(e for e in bucket if rng.random() >= 0.5)
            if not kept:
                return  # every later pair's parent was skipped

    cuts = first_best(candidates(), score)
    # the empty set and 2^(j+1) offsets for each class j = 1..ceil(log2 n)
    count = (4 << ceil_log2(instance.tree.num_vertices)) - 3
    return make_result(instance, cuts, "single-density", seed=seed, diagnostics={"candidates": count})


def single_density_path(instance: Instance) -> SolveResult:
    """Deterministic variant for paths: per class j the candidates take every
    2^j-th edge along the path; no thinning is needed because every candidate
    serves the whole class."""
    if not instance.tree.is_path:
        raise InvalidInstanceError("single_density_path requires a path instance")
    _, edge_positions = instance.tree.path_order()
    n = instance.tree.num_vertices
    candidates = [frozenset()]
    for j in range(1, ceil_log2(n) + 1):
        step = 1 << j
        for theta in range(step):
            candidates.append(frozenset(edge_positions[theta::step]))
    return _argmax_candidates(instance, candidates, "single-density-path")


def single_density_base(instance: Instance) -> SolveResult:
    """Deterministic variant when f(0) > 0: the empty set already earns base
    revenue from every commodity with budget 0 or 1, and classes with budget
    at least 2 are safe for every unthinned offset candidate."""
    if not instance.pricing.base_revenue:
        raise InvalidInstanceError(
            "single_density_base requires f(0) > 0; use single_density instead"
        )
    candidates = [frozenset()]
    for _, buckets in _offset_buckets(instance):
        candidates.extend(frozenset(bucket) for bucket in buckets)
    return _argmax_candidates(instance, candidates, "single-density-base")


def bernoulli_candidate(instance: Instance, seed: int, j: int) -> frozenset[int]:
    """Every edge independently with probability 2^-(j+1), ascending edge ids."""
    if j < 1:
        raise InvalidInstanceError("class index j must be >= 1")
    rng = substream(seed, "simplified", j)
    p = 1.0 / (1 << (j + 1))
    return frozenset(e for e in range(instance.tree.num_edges) if rng.random() < p)


def simplified_single_density(instance: Instance, seed: int) -> SolveResult:
    """Heavily randomized variant: one Bernoulli(2^-(j+1)) candidate per class."""
    n = instance.tree.num_vertices
    candidates = [frozenset()]
    for j in range(1, ceil_log2(n) + 1):
        candidates.append(bernoulli_candidate(instance, seed, j))
    return _argmax_candidates(instance, candidates, "simplified", seed=seed)
