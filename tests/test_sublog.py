import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from fza import (
    CapacityError,
    Commodity,
    GenSpec,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    gen_random,
    normalize,
    total_revenue,
)
from fza.sublog import (
    Segment,
    SkeletonInfo,
    _fragment_members,
    _oriented,
    _segment_members,
    almost_balanced_decomposition,
    branching_parameter,
    build_aux_instance,
    build_decomposition,
    classify_commodities,
    compute_skeleton,
    non_skeleton_solve,
    segment_guesses,
    skeleton_solve,
    sublog,
)
import fza.sublog as sublog_module
from fza.exact import generalized_rooted_path_dp, rooted_cut_set
from fza.files import dict_to_instance, instance_to_dict, solution_to_json
from fza.rng import substream
from conftest import (
    materialized_rooted_cuts,
    path_edges,
    prufer_tree,
    random_instance,
    reference_aux_instance,
    reference_hanging_subtrees,
    reference_non_skeleton_solve,
    reference_skeleton,
    reference_skeleton_solve,
    shaped_tree,
    skeleton_vertices,
)


def make(tree, pricing, commodities):
    return normalize(Instance.create(tree, pricing, commodities))


# A 28-vertex fragment with a six-way child split: five border vertices, a
# nine-edge skeleton, two junction vertices, six segments.
FIG3_EDGES = (
    (0, 1), (1, 2), (2, 4), (4, 3),                      # child 0
    (2, 5), (5, 8), (8, 9), (5, 10), (7, 5), (5, 6),     # child 1
    (9, 11), (11, 12), (12, 13), (11, 14), (14, 15),     # child 2
    (17, 16), (16, 10), (10, 18), (18, 19),              # child 3
    (13, 20), (20, 21), (22, 20), (20, 23),              # child 4
    (15, 24), (24, 26), (15, 25), (25, 27),              # child 5
)
FIG3_CHILDREN = (
    frozenset(range(0, 4)),
    frozenset(range(4, 10)),
    frozenset(range(10, 15)),
    frozenset(range(15, 19)),
    frozenset(range(19, 23)),
    frozenset(range(23, 27)),
)


def fig3_tree() -> Tree:
    return Tree(28, FIG3_EDGES)


def derived_vertices(skel) -> frozenset[int]:
    """The skeleton's vertices as the record gives them: the border vertices
    and every segment vertex."""
    return skel.border.union(*(s.vertices for s in skel.segments))


def derived_junctions(skel) -> frozenset[int]:
    """The junctions as the record gives them: segment terminals off the border."""
    return frozenset(v for s in skel.segments for v in s.terminals) - skel.border


def derived_subtree_vertices(skel) -> list[frozenset[int]]:
    """Each hanging subtree's vertices: its attachment plus every vertex
    `subtree_of` maps to its index."""
    verts = [{attach} for _, attach in skel.hanging]
    for v, idx in skel.subtree_of.items():
        verts[idx].add(v)
    return [frozenset(vs) for vs in verts]


class FixedRng:
    """Deterministic stand-in yielding a fixed cycle of uniform draws."""

    def __init__(self, values):
        self.values = list(values)
        self.i = 0

    def random(self):
        v = self.values[self.i % len(self.values)]
        self.i += 1
        return v


class TestBalancedDecomposition:
    def test_path_of_nine_thirds(self):
        t = Tree(10, tuple((i, i + 1) for i in range(9)))
        pieces = almost_balanced_decomposition(t, range(9), 3)
        assert sorted(sorted(p) for p in pieces) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8],
        ]

    def test_star_eight_spokes(self):
        t = Tree(9, tuple((0, v) for v in range(1, 9)))
        pieces = almost_balanced_decomposition(t, range(8), 2)
        assert sorted(len(p) for p in pieces) == [4, 4]

    def test_bounds_hold_on_random_trees(self):
        for seed in range(40):
            rng = substream(seed, "abd")
            n = rng.randint(8, 61)
            inst = random_instance(seed, n, 0, "linear")
            m = inst.tree.num_edges
            for d in (2, 3, 4):
                if m < d:
                    continue
                pieces = almost_balanced_decomposition(inst.tree, range(m), d)
                assert sorted(e for p in pieces for e in p) == list(range(m))
                assert 2 <= len(pieces) <= d
                for p in pieces:
                    assert 3 * d * len(p) >= m
                    assert d * len(p) <= 3 * m

    def test_refuses_a_disconnected_fragment(self):
        # the walk from vertex 0 misses edges 6 and 7 of the first fragment
        # and edge 7 of the second; unchecked, the carving would split the
        # edges it reached and silently drop the rest
        t = Tree(9, tuple((i, i + 1) for i in range(8)))
        for fragment in ({0, 1, 2, 3, 6, 7}, {0, 1, 2, 3, 4, 5, 7}):
            with pytest.raises(InvalidInstanceError, match="fragment is not connected"):
                almost_balanced_decomposition(t, fragment, 3)

    def test_refuses_d_below_two_and_too_few_edges(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        with pytest.raises(InvalidInstanceError, match="at least 2"):
            almost_balanced_decomposition(t, range(3), 1)
        with pytest.raises(InvalidInstanceError, match="3 edges cannot be split 4 ways"):
            almost_balanced_decomposition(t, range(3), 4)


class TestBuildDecomposition:
    def test_single_edge_tree(self):
        decomp = build_decomposition(Tree(2, ((0, 1),)))
        assert len(decomp.levels) == 1
        assert decomp.levels[0] == (frozenset({0}),)

    def test_path_nine_with_d3(self):
        t = Tree(10, tuple((i, i + 1) for i in range(9)))
        decomp = build_decomposition(t, d=3)
        assert len(decomp.levels) == 3
        assert len(decomp.levels[1]) == 3
        assert all(len(f) == 1 for f in decomp.levels[2])

    def test_refuses_edgeless_tree_and_d_below_two(self):
        with pytest.raises(InvalidInstanceError, match="at least one edge"):
            build_decomposition(Tree(1, ()))
        with pytest.raises(InvalidInstanceError, match="at least 2"):
            build_decomposition(Tree(3, ((0, 1), (1, 2))), d=1)

    def test_branching_parameter(self):
        assert branching_parameter(2) == 2
        assert branching_parameter(200) == 3
        assert branching_parameter(1000) == 4
        # d steps up only once 2^(d*d) falls below n: 2^4 = 16 and 2^9 = 512
        for n, d in ((15, 2), (16, 2), (17, 3), (511, 3), (512, 3), (513, 4)):
            assert branching_parameter(n) == d, n

    def test_invariants_random(self):
        for seed in range(20):
            n = 5 + (seed * 17) % 120
            inst = random_instance(seed, n, 0, "linear")
            decomp = build_decomposition(inst.tree)
            m = inst.tree.num_edges
            for frags in decomp.levels:
                assert sorted(e for f in frags for e in f) == list(range(m))
            for level, refined in enumerate(decomp.children):
                # every fragment of the next level refines exactly one fragment here
                assert sorted(c for kids in refined for c in kids) == list(range(len(decomp.levels[level + 1])))
                for parent, kids in zip(decomp.levels[level], refined):
                    assert all(decomp.levels[level + 1][c] <= parent for c in kids)
            assert all(len(f) == 1 for f in decomp.levels[-1])

    def test_level_size_bound_forced_d4(self):
        for seed in range(8):
            inst = random_instance(900 + seed, 120, 0, "linear")
            decomp = build_decomposition(inst.tree, d=4)
            m = inst.tree.num_edges
            for level, frags in enumerate(decomp.levels):
                for f in frags:
                    # |fragment| <= (3/d)^level * m, exactly in rationals
                    assert len(f) * 4**level <= 3**level * m

    def test_natural_d4_at_scale(self):
        # n >= 513 is where the default branching parameter first reaches 4
        rng = substream(0, "bigtree")
        n = 600
        t = Tree(n, tuple((rng.randrange(v), v) for v in range(1, n)))
        decomp = build_decomposition(t)
        assert decomp.d == 4
        m = t.num_edges
        for level, frags in enumerate(decomp.levels):
            assert sorted(e for f in frags for e in f) == list(range(m))
            for f in frags:
                assert len(f) * 4**level <= 3**level * m
        for level, refined in enumerate(decomp.children):
            assert sorted(c for kids in refined for c in kids) == list(range(len(decomp.levels[level + 1])))
            for parent, kids in zip(decomp.levels[level], refined):
                children = [decomp.levels[level + 1][c] for c in kids]
                for f in children:
                    assert f <= parent
                    if len(parent) >= 4:
                        pm = len(parent)
                        assert 3 * 4 * len(f) >= pm and 4 * len(f) <= 3 * pm
                if len(parent) > 1:
                    # the children and the border vertices form a tree in which
                    # every border vertex meets two children
                    assert len(compute_skeleton(t, parent, children).border) <= decomp.d - 1
        assert all(len(f) == 1 for f in decomp.levels[-1])

    def test_small_family_pinned(self, monkeypatch):
        # every labeled tree on 2..6 vertices plus seeded shapes on 8..16,
        # each split with d = 2 and d = 3; the digest pins which piece the
        # remainder joins and the centroid fallback, which must run here
        fallbacks = 0
        bipartition = sublog_module._bipartition

        def counted(*args):
            nonlocal fallbacks
            fallbacks += 1
            return bipartition(*args)

        monkeypatch.setattr(sublog_module, "_bipartition", counted)
        trees = [prufer_tree(n, seq) for n in range(2, 7) for seq in itertools.product(range(n), repeat=n - 2)]
        assert len(trees) == 1441
        rng = Random(2501)
        trees += [
            shaped_tree(rng, n, shape)
            for shape in ("tree", "path", "star", "broom", "caterpillar")
            for n in range(8, 17)
            for _ in range(10)
        ]
        h = hashlib.sha256()
        for tree in trees:
            for d in (2, 3):
                decomp = build_decomposition(tree, d)
                h.update(repr(([[sorted(f) for f in level] for level in decomp.levels], decomp.children)).encode())
        assert fallbacks > 300
        assert h.hexdigest() == "b94237d62fb30f6de46805cbbee815bcca87eeb157ef69537379f0e141afae13"

    def test_scale_family_pinned(self):
        # seeded shapes of 200 to 3,000 vertices at the default d, d = 3 and
        # d = 5: deep levels, long chains of one-child vertices (paths,
        # broom handles), hubs (stars, broom heads) and remainders at scale
        rng = Random(3901)
        trees = [
            shaped_tree(rng, n, shape)
            for shape in ("tree", "path", "star", "broom", "caterpillar")
            for n in (200, 1100, 3000)
        ]
        h = hashlib.sha256()
        for tree in trees:
            for d in (None, 3, 5):
                decomp = build_decomposition(tree, d)
                h.update(repr(([[sorted(f) for f in level] for level in decomp.levels], decomp.children)).encode())
        assert h.hexdigest() == "6ae18a357ba27bdfe1d25d18d2957308952af4aa7fef78ffe341a217c267cd5b"


class TestClassification:
    def test_whole_tree_commodity_first_level(self):
        inst = random_instance(5, 30, 0, "linear")
        verts, _ = inst.tree.rooted(0)[3], None
        # pick two far-apart leaves by brute force
        far = max(
            ((s, t) for s in range(30) for t in range(s + 1, 30)),
            key=lambda st: len(
                path_edges(
                    Instance.create(inst.tree, inst.pricing, [Commodity(st[0], st[1], 1, Fraction(1))]), 0
                )
            ),
        )
        inst2 = make(inst.tree, inst.pricing, [Commodity(far[0], far[1], 1, Fraction(1))])
        decomp = build_decomposition(inst2.tree)
        assert classify_commodities(decomp, inst2) == ({(1, 0): [0]}, ())

    def test_single_edge_commodity_extra_class(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(1, 2, 1, Fraction(1))])
        decomp = build_decomposition(t)
        assert classify_commodities(decomp, inst) == ({}, (0,))

    def test_partition_and_border_traversal(self):
        for seed in range(15):
            inst = random_instance(seed, 18, 10, "linear")
            decomp = build_decomposition(inst.tree)
            by_fragment, extra = classify_commodities(decomp, inst)
            ids = sorted(
                i for group in by_fragment.values() for i in group
            ) + sorted(extra)
            assert sorted(ids) == list(range(inst.num_commodities))
            for (level, idx), group in by_fragment.items():
                frag = decomp.levels[level - 1][idx]
                kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]
                assert len(kids) >= 2
                skel = compute_skeleton(inst.tree, frag, kids)
                for i in group:
                    path = path_edges(inst, i)
                    assert path <= frag
                    assert not any(path <= kid for kid in kids)
                    verts = {v for e in path for v in inst.tree.edges[e]}
                    border_hit = verts & (skel.border or set())
                    assert border_hit, "assigned commodity misses every border vertex"


class TestSkeleton:
    def test_path_thirds(self):
        t = Tree(10, tuple((i, i + 1) for i in range(9)))
        skel = compute_skeleton(
            t, range(9), [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})]
        )
        assert skel.border == {3, 6}
        assert skel.edges == {3, 4, 5}
        assert len(skel.segments) == 1
        assert skel.segments[0].terminals == (3, 6)

    def test_star_split(self):
        t = Tree(9, tuple((0, v) for v in range(1, 9)))
        skel = compute_skeleton(t, range(8), [frozenset(range(4)), frozenset(range(4, 8))])
        assert skel.border == {0}
        assert skel.edges == frozenset()
        assert skel.segments == ()

    def test_one_child_has_no_border(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        skel = compute_skeleton(t, range(3), [frozenset(range(3))])
        assert skel == SkeletonInfo(frozenset(), frozenset(), ())
        assert derived_vertices(skel) == derived_junctions(skel) == frozenset()

    def test_oriented_refuses_a_root_off_the_terminals(self):
        t = Tree(10, tuple((i, i + 1) for i in range(9)))
        skel = compute_skeleton(
            t, range(9), [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})]
        )
        assert _oriented(skel, 0, 6) == (5, 4, 3)
        with pytest.raises(InvalidInstanceError, match="root 4 is not a terminal of segment 0"):
            _oriented(skel, 0, 4)

    def test_six_way_fragment(self):
        skel = compute_skeleton(fig3_tree(), range(27), FIG3_CHILDREN)
        assert skel.border == {2, 9, 10, 13, 15}
        assert skel.edges == {4, 5, 6, 7, 10, 11, 12, 13, 14}
        assert derived_junctions(skel) == {5, 11}
        assert sorted(tuple(s.edges) for s in skel.segments) == [
            (4,), (5, 6), (7,), (10,), (11, 12), (13, 14),
        ]
        assert len(skel.segments) < 2 * 6


def spider(legs: int) -> Tree:
    """Hub 0 with `legs` two-edge legs: edge 2i joins the hub to 2i + 1, edge
    2i + 1 joins 2i + 1 to 2i + 2."""
    return Tree(2 * legs + 1, tuple(e for i in range(legs) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2))))


class TestGeometryMatchesReference:
    """The rooted-pass skeleton and the walk-off-the-skeleton hanging subtrees
    against conftest's leaf-pruning and component-DFS references."""

    def assert_matches(self, tree, frag, kids):
        skel = compute_skeleton(tree, frag, kids)
        ref = reference_skeleton(tree, frag, kids)
        assert (skel.border, skel.edges, derived_vertices(skel), derived_junctions(skel), skel.segments) == (
            ref.border, ref.edges, ref.vertices, ref.junctions, ref.segments
        )
        hanging = [(edges, verts, attach) for (edges, attach), verts in zip(skel.hanging, derived_subtree_vertices(skel))]
        assert hanging == reference_hanging_subtrees(tree, frag, ref)
        return skel

    def test_decomposition_fragments(self):
        fragments = with_segments = 0
        for inst, frag, kids, _, _ in sublog_fragments(range(48)):
            fragments += 1
            with_segments += bool(self.assert_matches(inst.tree, frag, kids).segments)
        assert fragments > 60 and with_segments > 40

    def test_star_hub_junction(self):
        # the hub edges form one child and each outer edge another: the leg
        # middles are the border, the hub a junction, the outer edges hang
        skel = self.assert_matches(spider(5), range(10), [frozenset(range(0, 10, 2))] + [{e} for e in range(1, 10, 2)])
        assert derived_junctions(skel) == {0} and skel.edges == set(range(0, 10, 2)) and len(skel.segments) == 5

    def test_one_border_vertex(self):
        # each leg is a child: the hub is the one border vertex, every leg hangs from it
        skel = self.assert_matches(spider(4), range(8), [{2 * i, 2 * i + 1} for i in range(4)])
        assert derived_vertices(skel) == skel.border == {0} and not skel.edges
        assert [attach for _, attach in skel.hanging] == [0] * 4


class TestSkeletonContract:
    """What `non_skeleton_solve` and `skeleton_solve` read of the record:
    segments and hanging subtrees partition the fragment's edges, and
    `subtree_of` locates exactly the vertices off the skeleton."""

    def assert_contract(self, tree, frag, kids):
        skel = compute_skeleton(tree, frag, kids)
        groups = [s.edges for s in skel.segments] + [edges for edges, _ in skel.hanging]
        assert sorted(e for g in groups for e in g) == sorted(frag)
        on_skeleton = skeleton_vertices(tree, skel)
        frag_verts = {v for e in frag for v in tree.edges[e]}
        assert skel.subtree_of.keys() == frag_verts - on_skeleton
        for v, idx in skel.subtree_of.items():
            assert any(v in tree.edges[e] for e in skel.hanging[idx][0]), (v, idx)
        assert all(attach in on_skeleton for _, attach in skel.hanging)
        return skel

    def test_sublog_fragments(self):
        hanging = 0
        for inst, frag, kids, _, _ in sublog_fragments(range(48)):
            hanging += len(self.assert_contract(inst.tree, frag, kids).hanging)
        assert hanging > 500

    def test_small_trees(self):
        # every labeled tree on 2..6 vertices, each fragment of two or more
        # edges in its decompositions at d = 2, 3 and 4 (a single edge has
        # one child and no border, and sublog never assigns it a commodity)
        several = 0
        for n in range(2, 7):
            for seq in itertools.product(range(n), repeat=n - 2):
                tree = prufer_tree(n, seq)
                for d in (2, 3, 4):
                    decomp = build_decomposition(tree, d)
                    for level, refined in enumerate(decomp.children):
                        for frag, kids in zip(decomp.levels[level], refined):
                            if len(frag) < 2:
                                continue
                            skel = self.assert_contract(tree, frag, [decomp.levels[level + 1][c] for c in kids])
                            several += len(skel.hanging) >= 2
        assert several > 13000


class TestNonSkeleton:
    def _setup(self):
        tree = fig3_tree()
        comms = [
            Commodity(0, 12, 4, Fraction(2)),    # crosses the skeleton
            Commodity(19, 21, 3, Fraction(1)),   # subtree to subtree
            Commodity(6, 9, 2, Fraction(3)),     # ends on a border vertex
        ]
        inst = make(tree, PricingFunction.linear(28), comms)
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        return inst, skel

    def test_all_deactivated_yields_empty(self):
        inst, skel = self._setup()
        cuts = non_skeleton_solve(inst, skel, [0, 1, 2], FixedRng([0.0]))
        assert cuts == frozenset()

    def test_never_cuts_skeleton(self):
        inst, skel = self._setup()
        for seed in range(30):
            rng = substream(seed, "ns-test")
            cuts = non_skeleton_solve(inst, skel, [0, 1, 2], rng)
            assert not cuts & skel.edges

    def test_single_active_edge_commodity(self):
        # one hanging edge with a commodity ending there gets cut when active
        t = Tree(4, ((0, 1), (1, 2), (1, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(2, 3, 1, Fraction(1))])
        skel = compute_skeleton(t, range(3), [frozenset({0, 1}), frozenset({2})])
        assert skel.border == {1}
        cuts = non_skeleton_solve(inst, skel, [0], FixedRng([0.9, 0.0]))
        assert len(cuts) == 1


def row_price(aux, row, x, scale):
    """Revenue of an aux row's commodity with x cuts: its weight times price,
    divided by the instance's `scale`."""
    _, _, w, shift = row
    return Fraction(w * aux.prices[shift + x], scale)


def row_outcomes(aux, positions, scale):
    """Per aux row, in order: (served, revenue) under cuts at `positions`."""
    out = []
    for row in aux.commodities:
        end, budget, _, shift = row
        x = sum(1 for p in positions if p < end)
        out.append((shift + x <= budget, row_price(aux, row, x, scale) if shift + x <= budget else 0))
    return out


def commodity_outcomes(gpi, positions):
    """Per commodity of a `GeneralizedPathInstance`, in order: (served,
    revenue) under cuts at `positions`, from its Fraction pricing."""
    pos = {v: j for j, v in enumerate(gpi.path)}
    out = []
    for c in gpi.commodities:
        x = sum(1 for p in positions if p < pos[c.target])
        out.append((x <= c.budget, c.weight * c.price(x) if x <= c.budget else 0))
    return out


class TestAuxInstance:
    def test_shift_and_table(self):
        tree = fig3_tree()
        inst = make(tree, PricingFunction.linear(28), [Commodity(19, 12, 5, Fraction(1))])
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        seg_index = next(
            i for i, s in enumerate(skel.segments) if tuple(s.edges) == (11, 12)
        )
        active = [False, True, True, False, True, False]
        members = _segment_members(inst, skel, seg_index, 11, [0])
        gpi, edge_map = build_aux_instance(inst, skel, seg_index, (0, 2, 1, 0, 1, 0), 11, active, members)
        assert gpi.m == 2
        assert edge_map == [11, 12]
        assert len(gpi.commodities) == 1
        c = gpi.commodities[0]
        assert c[0] == 1  # the path from 11 ends at 12, one edge along
        assert c[1] - c[3] == 5 - 3  # two active inner segments guessed 2 + 1
        assert (row_price(gpi, c, 0, inst.scale), row_price(gpi, c, 1, inst.scale)) == (Fraction(3), Fraction(4))

    def test_negative_budget_omits(self):
        tree = fig3_tree()
        inst = make(tree, PricingFunction.linear(28), [Commodity(19, 12, 2, Fraction(1))])
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        seg_index = next(
            i for i, s in enumerate(skel.segments) if tuple(s.edges) == (11, 12)
        )
        active = [False, True, True, False, True, False]
        members = _segment_members(inst, skel, seg_index, 11, [0])
        gpi, _ = build_aux_instance(inst, skel, seg_index, (0, 2, 1, 0, 1, 0), 11, active, members)
        assert gpi.commodities == ()

    def test_no_active_inner_segments(self):
        tree = fig3_tree()
        inst = make(tree, PricingFunction.linear(28), [Commodity(19, 12, 2, Fraction(1))])
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        seg_index = next(
            i for i, s in enumerate(skel.segments) if tuple(s.edges) == (11, 12)
        )
        active = [False, False, False, False, True, False]
        members = _segment_members(inst, skel, seg_index, 11, [0])
        gpi, _ = build_aux_instance(inst, skel, seg_index, (0, 2, 1, 0, 1, 0), 11, active, members)
        c = gpi.commodities[0]
        assert c[1] - c[3] == 2
        assert (row_price(gpi, c, 0, inst.scale), row_price(gpi, c, 1, inst.scale)) == (Fraction(0), Fraction(1))


class TestSkeletonSolve:
    def test_guess_sets(self):
        assert segment_guesses(1) == (0, 1)
        assert segment_guesses(4) == (0, 1, 2, 4)
        assert segment_guesses(7) == (0, 1, 2, 4)

    def test_cuts_stay_on_skeleton(self):
        tree = fig3_tree()
        comms = [
            Commodity(0, 12, 4, Fraction(2)),
            Commodity(6, 15, 3, Fraction(1)),
            Commodity(19, 12, 5, Fraction(1)),
        ]
        inst = make(tree, PricingFunction.linear(28), comms)
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        members = _fragment_members(inst, skel, [0, 1, 2])
        for seed in range(10):
            cuts = skeleton_solve(inst, skel, [0, 1, 2], (seed, "sk-test"), members)
            assert cuts <= skel.edges

    def test_guess_space_guard(self, monkeypatch):
        # 13 two-edge segments give 3^13 > 10^6 guess combinations (12 fit);
        # the guard must refuse before any member row is built
        t = Tree(27, tuple((v, v + 1) for v in range(26)))
        inst = make(t, PricingFunction.linear(27), [])
        segments = tuple(Segment((v, v + 1, v + 2), (v, v + 1)) for v in range(0, 26, 2))
        rows_built = []

        def rows(*args):
            rows_built.append(args[2:4])
            return []

        monkeypatch.setattr("fza.sublog._segment_members", rows)

        def skeleton(count):
            return SkeletonInfo(frozenset({0, 2 * count}), frozenset(range(2 * count)), segments[:count])

        assert len(_fragment_members(inst, skeleton(12), [])) == len(rows_built) == 24
        rows_built.clear()
        with pytest.raises(CapacityError, match="guess space"):
            _fragment_members(inst, skeleton(13), [])
        assert not rows_built

    def test_scores_each_cut_set_once_per_call(self, monkeypatch):
        calls = []
        scoring = Instance.scaled_revenue

        def counted(self, mask, ids=None):
            calls[-1].append(mask)
            return scoring(self, mask, ids)

        monkeypatch.setattr(Instance, "scaled_revenue", counted)
        guesses = 0
        for n, (inst, _, _, skel, ids) in enumerate(sublog_fragments(range(24), max_guesses=600)):
            if not skel.segments:
                continue
            calls.append([])
            skeleton_solve(inst, skel, ids, (n, "once"), _fragment_members(inst, skel, ids))
            assert len(set(calls[-1])) == len(calls[-1])
            guesses += math.prod(len(segment_guesses(len(s))) for s in skel.segments)
        # the guesses repeat cut sets, so skipping repeats saved scorings
        assert guesses > sum(map(len, calls)) > 0

    def test_no_segments_empty(self):
        t = Tree(9, tuple((0, v) for v in range(1, 9)))
        inst = make(t, PricingFunction.linear(9), [])
        skel = compute_skeleton(t, range(8), [frozenset(range(4)), frozenset(range(4, 8))])
        assert skeleton_solve(inst, skel, [], (0, "x"), _fragment_members(inst, skel, [])) == frozenset()


class TestSublog:
    def test_empty_and_zero_budget(self):
        t = Tree(6, tuple((0, v) for v in range(1, 6)))
        comms = [Commodity(v, v % 5 + 1, 0, Fraction(1)) for v in range(1, 5)]
        inst = make(t, PricingFunction.affine(6), comms)
        res = sublog(inst, 3)
        assert res.cuts == ()

    def test_two_edge_path(self):
        # the spanning commodity reaches an auxiliary instance only when the
        # opposite subtree is deactivated, so per seed one cut or none
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(t, PricingFunction.linear(3), [Commodity(0, 2, 2, Fraction(4))])
        outcomes = {sublog(inst, seed).revenue for seed in range(12)}
        assert outcomes <= {Fraction(0), Fraction(4)}
        assert Fraction(4) in outcomes

    def test_revenue_at_least_empty(self):
        for seed in range(12):
            inst = random_instance(seed, 14, 9, "affine")
            res = sublog(inst, seed)
            assert res.revenue >= total_revenue(inst, [])

    def test_deterministic(self):
        inst = random_instance(4, 15, 8, "linear")
        assert sublog(inst, 11) == sublog(inst, 11)

    def test_diagnostics_payload(self):
        inst = random_instance(6, 12, 6, "linear")
        res = sublog(inst, 2, diagnostics=True)
        assert "fragments" in res.diagnostics and "levels" in res.diagnostics

    def test_single_edge_class_exact(self):
        t = Tree(3, ((0, 1), (1, 2)))
        comms = [
            Commodity(0, 1, 1, Fraction(5)),
            Commodity(1, 2, 0, Fraction(2)),
        ]
        inst = make(t, PricingFunction.affine(3), comms)
        res = sublog(inst, 0)
        # cut edge 0 (5*2), keep edge 1 (2*1)
        assert res.revenue == 12

    def test_single_edge_class_keeps_an_edge_on_a_tie(self):
        # under f(x) = x a budget-0 commodity earns 0 with its edge cut or
        # kept; the edge stays uncut, so the winning candidate is edge 0 alone
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        comms = [Commodity(0, 1, 1, Fraction(5)), Commodity(2, 3, 0, Fraction(1))]
        res = sublog(make(t, PricingFunction.linear(4), comms), 0)
        assert (res.cuts, res.revenue) == ((0,), 5)


def sublog_fragments(seeds, max_guesses=None):
    """(instance, fragment edges, child fragments, skeleton, commodity ids) of every fragment
    of a decomposition of small random trees and paths. The branching
    parameter is forced to 4 or 5, as sublog picks it only from n >= 513 on:
    below that, no aux instance has a commodity with a nonzero shift."""
    for seed in seeds:
        n = (9, 16, 30, 48)[seed % 4]
        spec = GenSpec(
            ("random-tree", "random-path")[seed % 2],
            n,
            (n, 2 * n)[seed // 4 % 2],
            pricing=("linear", "affine")[seed // 2 % 2],
            max_weight=(2, 5)[seed % 2],
            fractional_weights=seed % 3 == 0,
            seed=seed,
        )
        inst = gen_random(spec)
        if inst.tree.num_edges == 0:
            continue
        decomp = build_decomposition(inst.tree, d=(4, 5)[seed // 3 % 2])
        by_fragment, _ = classify_commodities(decomp, inst)
        for (level, idx), ids in sorted(by_fragment.items()):
            frag = decomp.levels[level - 1][idx]
            kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]
            skel = compute_skeleton(inst.tree, frag, kids)
            guesses = 1
            for seg in skel.segments:
                guesses *= len(segment_guesses(len(seg)))
            if max_guesses is None or guesses <= max_guesses:
                yield inst, frag, kids, skel, ids


class TestSubSolvesMatchReference:
    """The sub-solves on the parent instance's integer tables against the
    materialized sub-instances of conftest's reference constructions."""

    def test_component_dp_matches_materialized_subinstance(self):
        for seed in range(80):
            rng = substream(seed, "component-dp")
            n = rng.randint(2, 36)
            parent = [-1] + [rng.randrange(v) for v in range(1, n)]
            tree = Tree(n, tuple((parent[v], v) for v in range(1, n)))  # edge v-1 is v's
            root = rng.randrange(n)
            below_root = {root}
            inside = {root}
            edges = set()
            for v in range(root + 1, n):
                if parent[v] in below_root:
                    below_root.add(v)
                    if parent[v] in inside and rng.random() < 0.8:
                        inside.add(v)
                        edges.add(v - 1)
            outside = [u for u in range(n) if u not in below_root] + [root]
            inner = sorted(inside - {root})
            comms, far_end = [], {}
            for _ in range(rng.randint(0, 2 * n)):
                weight = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
                budget = rng.randint(0, n - 1)
                if inner and rng.random() < 0.7:
                    # a member: one end in the subtree, the path leaves it at the root
                    v, u = rng.choice(inner), rng.choice(outside)
                    far_end[len(comms)] = v
                    comms.append(Commodity(*((v, u) if rng.random() < 0.5 else (u, v)), budget, weight))
                else:
                    # not a member, often with no endpoint in the subtree
                    s, t = rng.sample(range(n), 2)
                    comms.append(Commodity(s, t, budget, weight))
            pricing = PricingFunction.affine(n) if seed % 2 else PricingFunction.linear(n)
            inst = Instance.create(tree, pricing, comms)
            got = sorted(rooted_cut_set(inst, root, far_end, frozenset(edges)))
            assert got == materialized_rooted_cuts(inst, root, far_end, edges), seed
            stray = [u for u in outside if u != root]
            if stray:
                with pytest.raises(InvalidInstanceError, match="not reachable"):
                    rooted_cut_set(inst, root, {0: stray[0]}, frozenset(edges))

    def test_aux_rows_match_generalized_commodities_for_every_y(self):
        checked = with_rows = 0
        # member rows by what the aux filters did with them; perfbench's
        # sublog-tree reaches neither filter, so this sample is their coverage
        filtered = Counter()
        for f, (inst, _, _, skel, _) in enumerate(sublog_fragments(range(48))):
            rng = substream(f, "aux-rows")
            every = range(inst.num_commodities)
            for _ in range(6):
                guess = tuple(rng.choice(segment_guesses(len(s))) for s in skel.segments)
                active = [rng.random() < 0.6 for _ in skel.segments]
                for si, seg in enumerate(skel.segments):
                    if not active[si]:
                        continue
                    root = rng.choice(seg.terminals)
                    members = _segment_members(inst, skel, si, root, every)
                    aux, eids = build_aux_instance(inst, skel, si, guess, root, active, members)
                    gpi, ref_eids = reference_aux_instance(inst, skel, si, guess, root, active, every)
                    assert eids == ref_eids and len(aux.commodities) == len(gpi.commodities)
                    with_rows += bool(aux.commodities)
                    committed = [g if on else 0 for g, on in zip(guess, active)]
                    for _, budget, _, blockers, held in members:
                        if any(active[b] for b in blockers):
                            filtered["blocked"] += 1
                        elif sum(committed[s] for s in held) > budget:
                            filtered["over budget"] += 1
                        elif blockers:
                            filtered["kept with a blocker"] += 1
                    for y in range(len(seg) + 1):
                        got = generalized_rooted_path_dp(aux, y)
                        want = generalized_rooted_path_dp(gpi.integer, y)
                        assert got == want
                        assert row_outcomes(aux, got, inst.scale) == commodity_outcomes(gpi, want)
                        checked += 1
        assert checked > 2000 and with_rows > 200
        assert len(filtered) == 3 and min(filtered.values()) > 0, filtered

    def test_skeleton_solve_matches_reference(self):
        fragments = 0
        for inst, _, _, skel, ids in sublog_fragments(range(48), max_guesses=600):
            if not skel.segments:
                continue
            fragments += 1
            members = _fragment_members(inst, skel, ids)
            for labels in ((fragments, "skel"), (fragments, "other")):
                assert skeleton_solve(inst, skel, ids, labels, members) == reference_skeleton_solve(
                    inst, skel, ids, labels
                )
        assert fragments > 40

    def test_non_skeleton_solve_matches_reference(self):
        fragments = 0
        for inst, frag, _, skel, ids in sublog_fragments(range(32)):
            fragments += 1
            for label in ("a", "b", "c"):
                got = non_skeleton_solve(inst, skel, ids, substream(fragments, label))
                want = reference_non_skeleton_solve(inst, frag, skel, ids, substream(fragments, label))
                assert got == want
        assert fragments > 40



class TestSharedPlan:
    """`Instance._sublog_plan` holds what sublog works out from the instance
    alone; seeds solved on one instance share it, instances never do."""

    def test_seeds_on_one_instance_match_fresh_copies(self):
        for idx, shape in enumerate(("random-tree", "random-path")):
            spec = GenSpec(shape, 150, 150, pricing="affine", max_weight=5, fractional_weights=True, seed=40 + idx)
            inst = gen_random(spec)
            data = instance_to_dict(inst)
            plans = set()
            for seed, diagnostics in itertools.product((3, 0, 7, 0), (False, True)):
                got = solution_to_json(sublog(inst, seed, diagnostics))
                assert got == solution_to_json(sublog(dict_to_instance(data), seed, diagnostics)), (shape, seed)
                plans.add(id(inst._sublog_plan))
            assert len(plans) == 1
            assert any(members for *_, members in inst._sublog_plan[1])

    def test_instances_on_one_tree_keep_their_own_classification(self):
        tree = gen_random(GenSpec("random-tree", 60, 0, seed=5)).tree
        rng = Random(38)
        first, second = (
            Instance.create(
                tree,
                PricingFunction.affine(60),
                [Commodity(*rng.sample(range(60), 2), rng.randint(0, 3), Fraction(rng.randint(1, 4))) for _ in range(k)],
            )
            for k in (40, 70)
        )
        assert first.tree is second.tree
        for inst in (first, second):
            got = solution_to_json(sublog(inst, 1, diagnostics=True))
            fresh = Instance.create(Tree(60, tree.edges), inst.pricing, inst.commodities)
            assert got == solution_to_json(sublog(fresh, 1, diagnostics=True))
            _, planned, extra = inst._sublog_plan
            by_fragment, want_extra = classify_commodities(build_decomposition(tree), inst)
            assert [(level, idx, ids) for level, idx, ids, _, _ in planned] == [
                (level, idx, ids) for (level, idx), ids in sorted(by_fragment.items())
            ]
            assert extra == want_extra
        assert first._sublog_plan[1] != second._sublog_plan[1]

    def test_guard_refuses_a_fragment_before_its_member_rows(self, monkeypatch):
        inst = gen_random(GenSpec("random-tree", 150, 150, pricing="affine", seed=41))
        decomp = build_decomposition(inst.tree)
        spaces = []
        for (level, idx), _ in sorted(classify_commodities(decomp, inst)[0].items()):
            kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]
            skel = compute_skeleton(inst.tree, decomp.levels[level - 1][idx], kids)
            spaces.append(math.prod(len(segment_guesses(len(s))) for s in skel.segments))
        # the first fragment whose guess space is larger than every earlier one's
        refused = next(j for j in range(1, len(spaces)) if max(spaces[:j]) > 1 and spaces[j] > max(spaces[:j]))
        monkeypatch.setattr(sublog_module, "GUESS_BUDGET", spaces[refused] - 1)
        skeletons, rows_for = [], []
        computed, members = sublog_module.compute_skeleton, sublog_module._segment_members

        def recorded(*args):
            skeletons.append(computed(*args))
            return skeletons[-1]

        def spied(instance, skeleton, *rest):
            rows_for.append(skeleton)
            return members(instance, skeleton, *rest)

        monkeypatch.setattr(sublog_module, "compute_skeleton", recorded)
        monkeypatch.setattr(sublog_module, "_segment_members", spied)
        with pytest.raises(CapacityError, match="guess space"):
            sublog(inst, 0)
        assert len(skeletons) == refused + 1
        assert rows_for and all(skel is not skeletons[-1] for skel in rows_for)


class TestPinned:
    def test_outputs_pinned(self):
        # revenues alone miss a changed tie-break in a sub-solve; this digest
        # of every (cuts, served, revenue, diagnostics) pins sublog on fixed
        # random trees and paths, two solver seeds each
        h = hashlib.sha256()
        for idx in range(32):
            n = (12, 40, 150, 400)[idx % 4]
            spec = GenSpec(
                ("random-tree", "random-path")[idx // 4 % 2],
                n,
                n if idx % 3 else n // 2,
                pricing=("linear", "affine")[idx // 8 % 2],
                max_weight=(1, 3, 10)[idx % 3],
                fractional_weights=idx // 16 % 2 == 1,
                seed=idx,
            )
            inst = gen_random(spec)
            for seed in (idx, idx + 100):
                res = sublog(inst, seed, diagnostics=True)
                h.update(repr((res.cuts, res.served, res.revenue, res.diagnostics)).encode())
        assert h.hexdigest() == "77068306f20dea67288e2eb13308757351ca6805cda44ee6fe5db3802b7d6adb"

    def test_structure_pinned(self):
        # the outputs pin reaches only n <= 400, where d <= 3; this digest of
        # the decomposition, the commodity assignment and every assigned
        # fragment's skeleton covers d = 2..6 on shapes up to n = 2000
        h = hashlib.sha256()
        rng = Random(2101)
        cases = [(shape, n) for shape in ("tree", "path", "star", "broom", "caterpillar") for n in (30, 250, 700)]
        for shape, n in cases + [("tree", 2000)]:
            tree = shaped_tree(rng, n, shape)
            commodities = [Commodity(*rng.sample(range(n), 2), 0, Fraction(1)) for _ in range(n // 2)]
            inst = Instance.create(tree, PricingFunction.linear(n), commodities)
            for d in range(2, 7):
                decomp = build_decomposition(tree, d)
                h.update(repr(([[sorted(f) for f in level] for level in decomp.levels], decomp.children)).encode())
                by_fragment, extra = classify_commodities(decomp, inst)
                h.update(repr((sorted(by_fragment.items()), extra)).encode())
                for level, idx in sorted(by_fragment):
                    kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]
                    skel = compute_skeleton(tree, decomp.levels[level - 1][idx], kids)
                    h.update(repr((
                        sorted(skel.border), sorted(skel.edges),
                        sorted(derived_vertices(skel)), sorted(derived_junctions(skel)),
                        [(s.vertices, s.edges) for s in skel.segments],
                        [(sorted(e), sorted(v), a) for (e, a), v in zip(skel.hanging, derived_subtree_vertices(skel))],
                    )).encode())
        assert h.hexdigest() == "8b7e8d7b73cbf1452c564f0e34c5e12b3e553967c604165c13a8d78d3ffd82f1"
