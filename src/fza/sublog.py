"""Sublogarithmic approximation via recursive almost-balanced decomposition.

The tree is recursively partitioned into edge-disjoint fragments of shrinking
size; each commodity lands in the deepest level whose fragments still contain
its whole path. Per fragment, two subroutines compete: one cuts only outside
the fragment's skeleton (contract the skeleton, deactivate hanging subtrees by
coin flip, solve each survivor as a rooted instance), the other cuts only
skeleton edges (guess an approximate cut count per skeleton segment, then
place exactly that many cuts per active segment with a path DP). Commodities
whose path is a single edge are never separated by the decomposition and get
an exact per-edge treatment instead.

Each fact about a fragment's geometry is worked out once, off the tree's
own adjacency. The border vertices are those a second child fragment
touches. One walk over the fragment's edges (`Tree.walk`), rooted at a
border vertex, yields the skeleton (an edge is on it iff the part of the
fragment below the edge holds a border vertex) and its breakpoints (the
border and every vertex with two or more skeleton children), read
bottom-up; one top-down pass over the same walk then groups every edge
into a segment or a hanging subtree (one off-skeleton edge at a skeleton
vertex plus all beyond it); segments are read from their lower-numbered
terminal. The decomposition carves each fragment greedily bottom-up along
a walk rooted at its lowest vertex, in time linear in the fragment: one
bottom-up pass of counts closes the buckets over each vertex's runs of
children, and one top-down pass gives each edge the piece of the bucket it
closed, or else its parent edge's piece. It numbers the pieces in the
order they are cut off, lets a small remainder join the smallest piece cut
off at one of its vertices, and falls back to a centroid split when d = 2
leaves one piece. The carve's walk is its own loop, over push positions,
in `Tree.walk`'s order and with its hub rule. A single-edge fragment goes
on to the next level as it is. A commodity descends the levels along the
stored child lists, with one mask test per level against the child
holding its path's lowest edge.
Per (segment, root), one scan of the fragment's commodities yields the
member rows of every aux instance on that segment: prefix length, the
segments that block the member and the segments its path holds whole. Per
guess, an aux instance only reads those rows.

Only the coin flips depend on the seed. `sublog_plan` runs everything
else that does not: the decomposition, the commodity assignment and, per
assigned fragment in (level, index) order, its skeleton and member rows,
refusing a fragment over the guess budget before its rows are built.
`Instance._sublog_plan` caches the plan, so the seeds of a bench grid
share it; the coin flips, roots, path DP reuse and scores stay per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .exact import (
    IntegerPathInstance,
    generalized_rooted_path_dp,
    rooted_cut_set,
)
from .model import (
    CapacityError,
    FzaError,
    Instance,
    InvalidInstanceError,
    SolveResult,
    edge_mask,
    first_best,
    make_result,
)
from .rng import substream

# skeleton_solve refuses a fragment with more cut-count guess combinations
GUESS_BUDGET = 10**6


def branching_parameter(n: int) -> int:
    """Smallest d with 2^(d*d) >= n, floored at 2."""
    d = 1
    while (1 << (d * d)) < n:
        d += 1
    return max(2, d)


def almost_balanced_decomposition(
    tree, fragment_edges: Iterable[int], d: int
) -> list[frozenset[int]]:
    """Split a connected fragment with at least d edges into edge-disjoint
    connected subtrees, each holding between m/(3d) and 3m/d of its m edges.
    A fragment whose walk from its lowest vertex misses an edge is not
    connected and is refused.

    Greedy bottom-up carving, linear in m. One bottom-up pass of counts
    along the fragment's walk from its lowest vertex runs each vertex's
    children in walk order: each child adds its edge and the open edges it
    passes up, and a bucket (a piece) closes over the run as soon as it
    reaches ceil(m/d) edges. The last run stays open and passes up to the
    vertex's parent. Pieces are numbered in the order they are cut off,
    which numbers the fragments of the next level. One top-down pass then
    gives each edge the piece of the bucket it closed, or else its parent
    edge's piece; the root's open edges, and all that join them, are the
    remainder. A remainder below the lower bound joins the smallest piece
    cut off at one of its vertices (the lowest index on a tie). The bounds
    are verified afterwards and a violation raises (it would indicate a
    bug, not bad input).

    The walk is the carve's own loop, in `Tree.walk`'s order and with its
    hub rule, but over push positions: `order[j]` is the vertex pushed j-th
    with its parent edge, and the children of position i, pushed together,
    are positions first[i] up to end[i]. In a tree the only neighbor
    already reached is the parent, so the loop skips the parent edge and
    keeps no visited set.
    """
    fragment = frozenset(fragment_edges)
    m = len(fragment)
    if d < 2:
        raise InvalidInstanceError("branching parameter d must be at least 2")
    if m < d:
        raise InvalidInstanceError(f"fragment with {m} edges cannot be split {d} ways")
    target = -(-m // d)

    adj = tree.adjacency
    # each entry is the (vertex, parent edge) pair the adjacency holds
    order = [(min(itertools.chain.from_iterable(map(tree.edges.__getitem__, fragment))), -1)]
    push = order.append
    first = [0] * (m + 1)
    end = [0] * (m + 1)
    stack = [0]
    start = 1
    hub_index = None
    while stack:
        i = stack.pop()
        v, parent_edge = order[i]
        pairs = adj[v]
        if len(pairs) > m:
            # a hub: read its neighbors off an index of the fragment, built
            # at the first hub, so a small fragment at a hub stays small
            if hub_index is None:
                hub_index = tree.pairs_within(fragment)
            pairs = sorted(hub_index[v])
        for pair in pairs:
            eid = pair[1]
            if eid != parent_edge and eid in fragment:
                push(pair)
        stop = len(order)
        if stop > start:
            first[i] = start
            end[i] = stop
            stack.extend(range(start, stop))
            start = stop
    # a connected fragment is a tree, so it has one vertex more than edges
    if len(order) != m + 1:
        raise InvalidInstanceError("fragment is not connected")

    # bottom-up, positions from last to first: `piece_of[j]` is the piece
    # whose bucket closed over position j's parent edge, -1 while it is
    # open, and `passed[i]` counts the open edges position i passes up
    passed = [0] * (m + 1)
    piece_of = [-1] * (m + 1)
    cut_at: list[int] = []  # the position each piece was cut off at
    open_runs: list[tuple[int, int, int]] = []  # (position, run, end)
    for i in range(m, -1, -1):
        run = first[i]
        stop = end[i]
        if run == stop:
            continue
        count = 0
        for j in range(run, stop):
            count += passed[j] + 1
            if count >= target:
                piece_of[run : j + 1] = [len(cut_at)] * (j + 1 - run)
                cut_at.append(i)
                count = 0
                run = j + 1
        if count:
            passed[i] = count
            open_runs.append((i, run, stop))

    # top-down, positions from first to last: an open run takes its parent
    # edge's piece, and the root's open edges are the remainder
    rem = len(cut_at)
    piece_of[0] = rem
    for i, run, stop in reversed(open_runs):
        piece_of[run:stop] = [piece_of[i]] * (stop - run)
    pieces: list[list[int]] = [[] for _ in range(rem + 1)]
    for k, (_, eid) in zip(piece_of, order):
        pieces[k].append(eid)
    remainder = pieces.pop()[1:]  # less the root's -1

    if remainder:
        if 3 * d * len(remainder) >= m:
            pieces.append(remainder)
        else:
            # a piece meets the remainder only at the position it was cut
            # off at: the root, or a position whose parent edge is in it
            touching = [(len(pieces[k]), k) for k, i in enumerate(cut_at) if piece_of[i] == rem]
            if not touching:
                raise FzaError("remainder not adjacent to any piece")
            pieces[min(touching)[1]] += remainder

    if len(pieces) == 1:
        # only possible for d = 2: a lone oversized piece swallowed the
        # remainder; fall back to a centroid split into two branch bundles
        pieces = _bipartition(fragment, order, first, end, d)

    if not 2 <= len(pieces) <= d:
        raise FzaError(f"carving produced {len(pieces)} pieces for d={d}")
    for p in pieces:
        if not (3 * d * len(p) >= m and d * len(p) <= 3 * m):
            raise FzaError(
                f"piece of {len(p)} edges violates bounds [{m}/(3*{d}), 3*{m}/{d}]"
            )
    return [frozenset(p) for p in pieces]


def _bipartition(fragment, order, first, end, d: int):
    """Split a fragment in two at a centroid vertex: bundle its branches
    greedily until the first side clears the lower size bound. `order`,
    `first` and `end` are the carve's walk of the fragment by position.

    One pass, positions from last to first, gives each position its edges
    below and its largest branch below; the branch above it holds the
    other m - below edges.
    """
    m = len(fragment)
    below = [0] * (m + 1)
    largest = [0] * (m + 1)
    for i in range(m, -1, -1):
        for j in range(first[i], end[i]):
            below[i] += below[j] + 1
            largest[i] = max(largest[i], below[j] + 1)
    centroid = min(range(m + 1), key=lambda i: (max(largest[i], m - below[i]), order[i][0]))

    # each edge joins the branch of the centroid's child above it, or the
    # branch through the centroid's parent (key -1), which comes last
    bundles = {j: set() for j in range(first[centroid], end[centroid])}
    bundles[-1] = set()
    branch = [-1] * (m + 1)
    for i in range(m + 1):
        for j in range(first[i], end[i]):
            branch[j] = j if i == centroid else branch[i]
            bundles[branch[j]].add(order[j][1])
    branches = sorted(filter(None, bundles.values()), key=len, reverse=True)
    lower = -(-m // (3 * d))
    side = set()
    i = 0
    while len(side) < lower:
        side |= branches[i]
        i += 1
    return [side, set(fragment) - side]


@dataclass(frozen=True)
class Decomposition:
    """Levels of edge-set fragments; level 1 is the whole edge set and the
    last level consists of single edges. children[j][i] lists the fragments
    of 0-based level j+1 that refine fragment i of 0-based level j."""

    d: int
    levels: tuple[tuple[frozenset[int], ...], ...]
    children: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def build_decomposition(tree, d: int | None = None) -> Decomposition:
    """Recursively refine the edge set until only single edges remain.

    Fragments of at least d edges get an almost-balanced split; smaller ones
    fall apart into individual edges, and a single edge goes on to the next
    level as the same fragment. The override `d` exists for tests; by
    default d = max(2, ceil(sqrt(log2 n))).
    """
    if tree.num_vertices < 2:
        raise InvalidInstanceError("decomposition needs at least one edge")
    if d is None:
        d = branching_parameter(tree.num_vertices)
    if d < 2:
        raise InvalidInstanceError("branching parameter d must be at least 2")
    level: tuple[frozenset[int], ...] = (frozenset(range(tree.num_edges)),)
    levels = [level]
    children: list[tuple[tuple[int, ...], ...]] = []
    # every level partitions the edge set, so the last, all single edges,
    # is the first with one fragment per edge
    while len(level) < tree.num_edges:
        next_level: list[frozenset[int]] = []
        refined: list[tuple[int, ...]] = []
        for frag in level:
            start = len(next_level)
            if len(frag) == 1:
                # a single edge goes on as it is
                refined.append((start,))
                next_level.append(frag)
                continue
            if len(frag) < d:
                next_level.extend([frozenset({e}) for e in sorted(frag)])
            else:
                next_level.extend(almost_balanced_decomposition(tree, frag, d))
            refined.append(tuple(range(start, len(next_level))))
        level = tuple(next_level)
        levels.append(level)
        children.append(tuple(refined))
    return Decomposition(d=d, levels=tuple(levels), children=tuple(children))


@dataclass(frozen=True)
class CommodityAssignment:
    """Commodity -> (level, fragment) assignment.

    by_fragment maps a 1-based level and a fragment index within it to the
    commodities assigned there; extra holds the single-edge paths, which no
    level ever separates.
    """

    by_fragment: dict[tuple[int, int], list[int]]
    extra: tuple[int, ...] = ()


def classify_commodities(decomp: Decomposition, instance: Instance) -> CommodityAssignment:
    """Assign each commodity to the deepest fragment that holds its whole path.

    The fragments of one level are edge-disjoint, so the only child that can
    hold a path is the one holding its lowest edge. Each level reads the
    current fragment's child list from `decomp.children` and tests at most d
    children for that edge, then makes one mask test. A fragment's mask is
    built the first time a path is tested against it.
    """
    # the last level holds single edges only, and single-edge paths are
    # `extra` before the descent, so no path the descent follows fits there
    inner = decomp.levels[1:-1]
    masks: list[dict[int, int]] = [{} for _ in inner]
    by_fragment: dict[tuple[int, int], list[int]] = {}
    extra = []
    for i, pm in enumerate(instance.paths):
        if pm.bit_count() == 1:
            extra.append(i)
            continue
        low = (pm & -pm).bit_length() - 1
        level, idx = 1, 0
        for refined, level_masks, level_frags in zip(decomp.children, masks, inner):
            child = next(c for c in refined[idx] if low in level_frags[c])
            mask = level_masks.get(child)
            if mask is None:
                mask = level_masks[child] = edge_mask(level_frags[child])
            if pm & ~mask:
                break
            level, idx = level + 1, child
        by_fragment.setdefault((level, idx), []).append(i)
    return CommodityAssignment(by_fragment, tuple(extra))


@dataclass(frozen=True)
class Segment:
    """A maximal skeleton subpath with no border or junction inner vertices."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def terminals(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SkeletonInfo:
    """A fragment's skeleton and what hangs off it. `hanging` holds one
    (edges, attachment vertex) per hanging subtree, ordered by lowest edge
    id, and `subtree_of` maps each fragment vertex off the skeleton to the
    index in `hanging` of the one subtree holding it."""

    border: frozenset[int]
    edges: frozenset[int]
    segments: tuple[Segment, ...]
    hanging: tuple[tuple[frozenset[int], int], ...] = ()
    subtree_of: Mapping[int, int] = field(default_factory=dict)


def compute_skeleton(tree, fragment_edges: Iterable[int], child_fragments: Sequence[Iterable[int]]) -> SkeletonInfo:
    """Border vertices (shared by >= 2 child fragments), the subtree spanning
    them, the segment partition of that subtree, and the hanging subtrees
    with the map from each vertex off the skeleton to its subtree, all from
    one walk over the fragment rooted at its lowest border vertex.

    Bottom-up along the walk, an edge is on the skeleton iff the part of the
    fragment below it holds a border vertex, and each skeleton vertex counts
    its skeleton children. The breakpoints are the border plus every vertex
    with two or more skeleton children (a junction, when it is off the
    border: its parent edge makes three). One top-down pass then puts every
    edge in a group. A skeleton edge joins the segment of its upper end, and
    starts a new segment at a breakpoint. An off-skeleton edge joins the
    hanging subtree of its upper end, and starts a new one at a skeleton
    vertex. Each segment is read from its lower-numbered terminal, and
    segments are ordered by (that terminal, first edge). Once the subtrees
    are sorted, each non-attachment vertex is mapped to its subtree's index.
    Breakpoints only split segments; the record does not hold them.
    """
    # a vertex is on the border once a second child touches it
    first_child: dict[int, int] = {}
    touched_again = set()
    for ci, child in enumerate(child_fragments):
        for eid in child:
            for v in tree.edges[eid]:
                if first_child.setdefault(v, ci) != ci:
                    touched_again.add(v)
    border = frozenset(touched_again)
    if not border:
        return SkeletonInfo(border, frozenset(), ())

    fragment = frozenset(fragment_edges)
    order, up = tree.walk(min(border), fragment)
    # a connected fragment is a tree, so it has one vertex more than edges
    if len(order) != len(fragment) + 1:
        raise FzaError("skeleton pass does not reach every fragment vertex")
    kids = dict.fromkeys(border, 0)  # skeleton vertex -> its skeleton children
    skel = set()
    for v in reversed(order[1:]):
        if v in kids:
            p, eid = up[v]
            kids[p] = kids.get(p, 0) + 1
            skel.add(eid)
    # a vertex with two or more skeleton children is a junction
    breakpoints = border | {v for v, k in kids.items() if k >= 2}

    segments: list[tuple[list[int], list[int]]] = []  # (vertices, edges), top down
    subtrees: list[tuple[list[int], list[int]]] = []  # (vertices, edges), attachment first
    group_of: dict[int, tuple[list[int], list[int]]] = {}  # vertex -> group of its parent edge
    for v in order[1:]:
        p, eid = up[v]
        if eid in skel and p in breakpoints:
            group = ([p], [])
            segments.append(group)
        elif eid not in skel and p in kids:
            group = ([p], [])
            subtrees.append(group)
        else:
            group = group_of[p]
        group[0].append(v)
        group[1].append(eid)
        group_of[v] = group
    subtrees.sort(key=lambda sub: min(sub[1]))
    subtree_of = {v: idx for idx, (verts, _) in enumerate(subtrees) for v in verts[1:]}
    oriented = [
        (verts, edges) if verts[0] < verts[-1] else (verts[::-1], edges[::-1])
        for verts, edges in segments
    ]
    oriented.sort(key=lambda seg: (seg[0][0], seg[1][0]))
    return SkeletonInfo(
        border,
        frozenset(skel),
        tuple(Segment(tuple(verts), tuple(edges)) for verts, edges in oriented),
        tuple((frozenset(edges), verts[0]) for verts, edges in subtrees),
        subtree_of,
    )


def non_skeleton_solve(
    instance: Instance,
    skeleton: SkeletonInfo,
    commodity_ids: Sequence[int],
    rng,
) -> frozenset[int]:
    """Candidate cutting only non-skeleton edges of the fragment.

    Each hanging subtree is deactivated with probability 1/2; an active
    subtree is solved exactly as an instance rooted at its attachment vertex,
    restricted to commodities with exactly one endpoint inside it and the
    other endpoint on the skeleton or in a deactivated subtree. The subtrees
    are `skeleton.hanging`, in its order, one coin each, and an endpoint is
    located by `skeleton.subtree_of`. The rooted DP runs on the instance's
    own tree, within the subtree's edges; a subtree with no such commodity
    is not solved (it would get no cut).

    `commodity_ids` must be the fragment's own commodities, whose endpoints
    are fragment vertices: an endpoint `subtree_of` does not hold is then on
    the skeleton.
    """
    comps = skeleton.hanging
    active = [rng.random() >= 0.5 for _ in comps]
    locate = skeleton.subtree_of.get

    # per subtree: member commodity id -> its endpoint inside the subtree
    far_ends: list[dict[int, int]] = [{} for _ in comps]
    for i in commodity_ids:
        c = instance.commodities[i]
        loc_s, loc_t = locate(c.source), locate(c.target)
        if loc_s == loc_t:
            continue
        for idx, inner_end, other_loc in ((loc_s, c.source, loc_t), (loc_t, c.target, loc_s)):
            if idx is not None and active[idx] and (other_loc is None or not active[other_loc]):
                far_ends[idx][i] = inner_end

    cuts: set[int] = set()
    for (comp_edges, attach), far_end in zip(comps, far_ends):
        if far_end:
            cuts.update(rooted_cut_set(instance, attach, far_end, comp_edges))
    if cuts & skeleton.edges:
        raise FzaError("non-skeleton candidate cuts a skeleton edge")
    return frozenset(cuts)


def segment_guesses(length: int) -> tuple[int, ...]:
    """Allowed cut-count guesses for a segment: 0 and the powers of two up to
    the segment length."""
    out = [0]
    p = 1
    while p <= length:
        out.append(p)
        p <<= 1
    return tuple(out)


def _oriented(skeleton: SkeletonInfo, seg_index: int, root: int) -> tuple[int, ...]:
    """The edge ids of a segment read from its terminal `root`."""
    seg = skeleton.segments[seg_index]
    if root == seg.vertices[0]:
        return seg.edges
    if root == seg.vertices[-1]:
        return seg.edges[::-1]
    raise InvalidInstanceError(f"root {root} is not a terminal of segment {seg_index}")


def _segment_members(
    instance: Instance, skeleton: SkeletonInfo, seg_index: int, root: int, commodity_ids: Iterable[int]
) -> list[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]]:
    """One row per commodity that may join the aux instance of a segment
    rooted at `root`, whatever the guess: the root is an inner vertex of its
    path, and the path meets the segment without holding all of it. Such a
    path meets the segment in one piece that starts at the root, so the test
    is: the path holds the segment's edge at the root, does not hold the
    whole segment, and does not end at the root.

    A row is (prefix length, budget, scaled weight, blockers, held). The
    prefix length counts the segment edges the path covers from the root.
    The blockers are the other segments that have an endpoint of the
    commodity as an inner vertex and do not contain the root. The held
    segments are the other segments the path holds whole. Every mask test of
    the aux instances is made here, once per (segment, root).

    A fragment's own commodity has a blocker only when d >= 5. A fragment
    with k <= d children has at most k - 1 border vertices: the children and
    the border vertices form a tree, and each border vertex sits in at least
    two children. So the skeleton has at most d - 1 leaves. A blocker needs
    a chain of three segments (one the path ends in, one it holds whole, one
    it covers from the root), and such a chain needs at least four border
    vertices. `branching_parameter` gives d >= 5 only for n > 65,536.
    """
    eids = _oriented(skeleton, seg_index, root)
    prefix = [0]
    for eid in eids:
        prefix.append(prefix[-1] | 1 << eid)
    root_edge, seg_mask = prefix[1], prefix[-1]
    segments = skeleton.segments
    others = [(si, edge_mask(s.edges)) for si, s in enumerate(segments) if si != seg_index]
    # inner vertex of a segment that misses the root (so not this one) -> that segment
    blocker_at = {v: si for si, s in enumerate(segments) if root not in s.vertices for v in s.vertices[1:-1]}
    _, weights, _, budgets = instance._scaled
    commodities = instance.commodities
    paths = instance.paths

    rows = []
    for i in commodity_ids:
        pm = paths[i]
        if not pm & root_edge:
            continue
        reduced = pm & seg_mask
        c = commodities[i]
        if reduced == seg_mask or root in (c.source, c.target):
            continue
        length = reduced.bit_count()
        if reduced != prefix[length]:
            raise FzaError("reduced path is not a prefix of the segment")
        blockers = tuple(blocker_at[v] for v in (c.source, c.target) if v in blocker_at)
        held = tuple(si for si, mask in others if pm & mask == mask)
        rows.append((length, budgets[i], weights[i], blockers, held))
    return rows


def build_aux_instance(
    instance: Instance,
    skeleton: SkeletonInfo,
    seg_index: int,
    guesses: Sequence[int],
    root: int,
    active: Sequence[bool],
    members: Sequence[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]],
) -> tuple[IntegerPathInstance, list[int]]:
    """Reduced instance on one active segment, rooted at one of its terminals.

    `members` are `_segment_members`' rows for this (segment, root). A row
    joins unless one of its blockers is active. Its shift is the sum of the
    guesses of its active held segments: the cuts already committed to them.
    With x cuts on the prefix it has shift + x in all, priced from the
    instance's own scaled table. A row whose shift exceeds its budget is
    omitted.

    Returns the path instance plus the position -> original edge id map.
    """
    eids = _oriented(skeleton, seg_index, root)
    rows = []
    for length, budget, weight, blockers, held in members:
        if any(active[b] for b in blockers):
            continue
        shift = sum(guesses[s] for s in held if active[s])
        if shift <= budget:
            rows.append((length, budget, weight, shift))
    return IntegerPathInstance(len(eids), tuple(rows), instance._scaled[2]), list(eids)


def _fragment_members(instance: Instance, skeleton: SkeletonInfo, commodity_ids: Sequence[int]) -> dict:
    """`_segment_members`' rows per (segment, root) for every segment end of
    a fragment, once its guess space is known to fit `GUESS_BUDGET`: a
    fragment over the budget is refused before any row is built."""
    segments = skeleton.segments
    if math.prod(len(segment_guesses(len(s))) for s in segments) > GUESS_BUDGET:
        raise CapacityError(f"guess space exceeds budget {GUESS_BUDGET} for {len(segments)} segments")
    return {
        (si, root): _segment_members(instance, skeleton, si, root, commodity_ids)
        for si, seg in enumerate(segments)
        for root in seg.terminals
    }


def skeleton_solve(
    instance: Instance,
    skeleton: SkeletonInfo,
    commodity_ids: Sequence[int],
    rng_labels: tuple,
    *,
    members: Mapping | None = None,
) -> frozenset[int]:
    """Candidate cutting only skeleton edges.

    For every combination of per-segment cut-count guesses: deactivate each
    segment with probability 1/2, pick a random terminal as root for the
    survivors, place exactly the guessed number of cuts per active segment
    with the generalized path DP, and keep the combination with the best
    revenue over the fragment's commodities.

    Each guess draws one root per segment from its own substream, in
    segment order: a coin that deactivates the segment (its root is None),
    then, for a survivor only, a coin between its two terminals. Whether a
    segment is active is read off that one list. Each segment end's member
    rows are worked out once per instance: `sublog` passes the fragment's
    `members` from its plan (`Instance._sublog_plan`), and a call without
    them builds them by `_fragment_members`, whose guard refuses a guess
    space over `GUESS_BUDGET` first. Within one call, a path DP result is
    reused whenever the same (segment, root, rows, cut count) comes up
    again. All coin draws of a guess happen before its DPs, so reuse does
    not change them. The guesses' cut sets are picked by `first_best` in
    guess order. With no segments, the one empty guess yields the empty cut
    set.
    """
    segments = skeleton.segments
    options = [segment_guesses(len(s)) for s in segments]
    if members is None:
        members = _fragment_members(instance, skeleton, commodity_ids)
    placed: dict[tuple, list[int]] = {}

    def guessed_cuts():
        for gi, guess in enumerate(itertools.product(*options)):
            rng = substream(*rng_labels, gi)
            roots = [
                None if rng.random() < 0.5 else (t1 if rng.random() < 0.5 else t2)
                for t1, t2 in (seg.terminals for seg in segments)
            ]
            active = [root is not None for root in roots]
            cuts: set[int] = set()
            for si, root in enumerate(roots):
                if root is None:
                    continue
                aux, eids = build_aux_instance(
                    instance, skeleton, si, guess, root, active, members[si, root]
                )
                key = (si, root, aux.commodities, guess[si])
                if key not in placed:
                    positions = generalized_rooted_path_dp(aux, guess[si])
                    if len(positions) != guess[si]:
                        raise FzaError("path DP placed a different number of cuts than guessed")
                    placed[key] = [eids[p] for p in positions]
                cuts.update(placed[key])
            yield frozenset(cuts)

    best = first_best(
        guessed_cuts(), lambda cuts: instance.scaled_revenue(edge_mask(cuts), commodity_ids)
    )
    if not best <= skeleton.edges:
        raise FzaError("skeleton candidate cuts a non-skeleton edge")
    return best


def _single_edge_candidate(instance: Instance, extra_ids: Sequence[int]) -> frozenset[int]:
    """Exact per-edge choice for commodities whose path is a single edge."""
    by_edge: dict[int, list[int]] = {}
    for i in extra_ids:
        eid = instance.paths[i].bit_length() - 1
        by_edge.setdefault(eid, []).append(i)
    cuts = []
    for eid, members in by_edge.items():
        keep = sum(instance.value(i, 0) for i in members)
        cut = sum(instance.value(i, 1) for i in members)
        if cut > keep:
            cuts.append(eid)
    return frozenset(cuts)


def sublog_plan(instance: Instance) -> tuple[Decomposition, list[tuple], tuple[int, ...]]:
    """Everything of `sublog` that depends on the instance alone: the
    decomposition, one (level, index, commodity ids, skeleton, member rows)
    per assigned fragment in (level, index) order, and the single-edge
    commodities. `Instance._sublog_plan` caches it, so every seed solved on
    one instance shares it; the coin flips are not in it.
    """
    decomp = build_decomposition(instance.tree)
    assignment = classify_commodities(decomp, instance)
    planned = []
    for (level, idx), ids in sorted(assignment.by_fragment.items()):
        kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]
        skel = compute_skeleton(instance.tree, decomp.levels[level - 1][idx], kids)
        planned.append((level, idx, ids, skel, _fragment_members(instance, skel, ids)))
    return decomp, planned, assignment.extra


def sublog(
    instance: Instance,
    seed: int,
    diagnostics: bool = False,
) -> SolveResult:
    """Divide-and-select over the decomposition levels.

    Per level, each fragment with assigned commodities runs both the
    non-skeleton and the skeleton subroutine and keeps the better one by the
    revenue of its own commodities (the non-skeleton set on a tie); fragment
    cut sets merge into one level candidate. The single-edge class gets an
    exact candidate. The best candidate by full revenue wins, with the empty
    set always in the running. Both choices are `first_best`'s.
    """
    if instance.tree.num_edges == 0:
        return make_result(instance, (), algorithm="sublog", seed=seed)
    decomp, planned, extra = instance._sublog_plan
    candidates: list[frozenset[int]] = [frozenset()]
    fragments_info = []
    for level, fragments in itertools.groupby(planned, lambda f: f[0]):
        level_cuts: set[int] = set()
        for _, idx, ids, skel, members in fragments:
            rng_ns = substream(seed, "sublog", "nonskel", level, idx)
            f_ns = non_skeleton_solve(instance, skel, ids, rng_ns)
            f_s = skeleton_solve(instance, skel, ids, (seed, "sublog", "skel", level, idx), members=members)
            chosen = first_best(
                (f_ns, f_s), lambda cuts: instance.scaled_revenue(edge_mask(cuts), ids)
            )
            level_cuts |= chosen
            if diagnostics:
                fragments_info.append(
                    {
                        "level": level,
                        "fragment": idx,
                        "edges": sorted(decomp.levels[level - 1][idx]),
                        "border": sorted(skel.border),
                        "skeleton": sorted(skel.edges),
                        "segments": [list(s.edges) for s in skel.segments],
                        "commodities": list(ids),
                        "picked": "non-skeleton" if chosen == f_ns else "skeleton",
                    }
                )
        candidates.append(frozenset(level_cuts))
    if extra:
        candidates.append(_single_edge_candidate(instance, extra))

    best = first_best(candidates, lambda cuts: instance.scaled_revenue(edge_mask(cuts)))
    diag = {"candidates": len(candidates), "num_levels": decomp.num_levels}
    if diagnostics:
        diag.update(d=decomp.d, levels=[len(lv) for lv in decomp.levels], fragments=fragments_info)
    return make_result(instance, best, algorithm="sublog", seed=seed, diagnostics=diag)
