"""Single Density approximations: commodities are grouped by budget-to-length
ratio, one cheap candidate family is built per group, and the best candidate by
full revenue wins.

Variants: the randomized tree algorithm (modular offset candidates thinned by
coin flips), a deterministic path variant (every 2^j-th edge), a deterministic
variant for pricing with base revenue (unthinned offsets), and a simplified
variant that samples each edge independently.

The first three build one candidate per (class, offset) bucket, and share one
walk over the buckets (`_bucket_walk`) that skips each bucket whose candidate
cannot win. The simplified variant scores its one candidate per class through
`_argmax_candidates`.
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
    ties go to the one listed first, in `simplified_single_density` the
    empty set, then the lowest class j."""
    return make_result(
        instance,
        first_best(candidates, instance.scaled_cut_revenue),
        algorithm=algorithm,
        seed=seed,
        diagnostics={"candidates": len(candidates)},
    )


def _depth_keys(instance: Instance) -> list[int]:
    """Per edge id: its depth below vertex 0, the depth of its endpoint
    closer to the root."""
    _, parent_edge, depth, order = instance.tree.rooting
    return [d for _, d in sorted((parent_edge[v], depth[v] - 1) for v in order[1:])]


def _offset_buckets(keys: list[int], shift: int):
    """Per class j = 1..ceil(log2 n), n = len(keys) + 1 vertices: the edge
    ids grouped by key mod 2^(j + shift), ascending edge id within each
    group. A bucket lies inside the bucket of its key mod 2^(j - 1 + shift)
    one class up."""
    for j in range(1, ceil_log2(len(keys) + 1) + 1):
        buckets: list[list[int]] = [[] for _ in range(1 << (j + shift))]
        for eid, key in enumerate(keys):
            buckets[key % len(buckets)].append(eid)
        yield j, buckets


def _bucket_walk(instance: Instance, keys: list[int], shift: int, algorithm: str, seed=None) -> SolveResult:
    """The best of one candidate per (class j, offset theta) bucket of
    `_offset_buckets(keys, shift)`, after the empty set, which covers the
    zero-budget class. With a seed, a bucket's candidate is the bucket
    thinned edge-wise with probability 1/2 by its own stream, addressed by
    (seed, j, theta); without one, it is the bucket itself.

    The candidates go to `first_best` in that order, but a bucket is skipped
    before its candidate is drawn when the candidate cannot win: when the
    bucket is empty, when its `scaled_cut_bound` is no higher than the best
    score so far, or when its parent, the bucket (j - 1, theta mod
    2^(j - 1 + shift)), was skipped. The parent holds the bucket, so its
    bound was no lower, and the best score never falls. A skipped candidate
    scores at most the best, and only a strictly higher score replaces it,
    so the result is the one every candidate would give.

    Each bound costs one `_cut_counts` pass, which also scores an unthinned
    candidate. A bucket as large as its parent is its parent, so it takes
    the parent's revenue and bound with no pass.
    """
    high, last = 0, None  # the highest score so far; the revenue of the unthinned bucket just yielded

    def score(cuts):
        nonlocal high
        value = instance.scaled_cut_revenue(cuts) if last is None else last
        high = max(high, value)
        return value

    def candidates():
        nonlocal last
        yield frozenset()  # scored first, it sets `high`
        kept: dict[int, tuple] = {}  # offset -> (size, revenue, bound) of the class before's kept buckets
        for j, buckets in _offset_buckets(keys, shift):
            half, parents, kept = len(buckets) // 2, kept, {}
            for theta, bucket in enumerate(buckets):
                parent = parents.get(theta % half)
                if not bucket or (j > 1 and parent is None):
                    continue
                same = parent is not None and parent[0] == len(bucket)  # then the bucket is its parent
                revenue, bound = parent[1:] if same else instance.scaled_cut_bound(bucket)
                if bound <= high:
                    continue
                kept[theta] = len(bucket), revenue, bound
                if seed is None:
                    last = revenue
                    yield frozenset(bucket)
                else:
                    rng = substream(seed, "single-density", j, theta)
                    yield frozenset(e for e in bucket if rng.random() >= 0.5)
            if not kept:
                return  # every later bucket's parent was skipped

    cuts = first_best(candidates(), score)
    count = 1 + sum(1 << (j + shift) for j in range(1, ceil_log2(len(keys) + 1) + 1))
    return make_result(instance, cuts, algorithm, seed=seed, diagnostics={"candidates": count})


def single_density(instance: Instance, seed: int) -> SolveResult:
    """Randomized logarithmic approximation on trees: per class j, one
    candidate per offset theta, the edges whose depth below vertex 0 is
    theta mod 2^(j+1), thinned by coin flips (`_bucket_walk`)."""
    return _bucket_walk(instance, _depth_keys(instance), 1, "single-density", seed)


def single_density_path(instance: Instance) -> SolveResult:
    """Deterministic variant for paths: per class j the candidates take every
    2^j-th edge along the path; no thinning is needed because every candidate
    serves the whole class."""
    if not instance.tree.is_path:
        raise InvalidInstanceError("single_density_path requires a path instance")
    edges = instance.tree.path_order()[1]
    positions = sorted(range(len(edges)), key=edges.__getitem__)  # per edge id, its place along the path
    return _bucket_walk(instance, positions, 0, "single-density-path")


def single_density_base(instance: Instance) -> SolveResult:
    """Deterministic variant when f(0) > 0: the empty set already earns base
    revenue from every commodity with budget 0 or 1, and classes with budget
    at least 2 are safe for every unthinned offset candidate."""
    if not instance.pricing.base_revenue:
        raise InvalidInstanceError(
            "single_density_base requires f(0) > 0; use single_density instead"
        )
    return _bucket_walk(instance, _depth_keys(instance), 1, "single-density-base")


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
