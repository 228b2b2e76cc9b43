from fractions import Fraction

import pytest

from fza import (
    CapacityError,
    Commodity,
    Instance,
    PricingFunction,
    Tree,
    normalize,
    total_revenue,
)
from fza.sublog import (
    Segment,
    SkeletonInfo,
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
from fza.rng import substream
from conftest import random_instance


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


class TestBuildDecomposition:
    def test_single_edge_tree(self):
        decomp = build_decomposition(Tree(2, ((0, 1),)))
        assert decomp.num_levels == 1
        assert decomp.levels[0] == (frozenset({0}),)

    def test_path_nine_with_d3(self):
        t = Tree(10, tuple((i, i + 1) for i in range(9)))
        decomp = build_decomposition(t, d=3)
        assert decomp.num_levels == 3
        assert len(decomp.levels[1]) == 3
        assert all(len(f) == 1 for f in decomp.levels[2])

    def test_branching_parameter(self):
        assert branching_parameter(2) == 2
        assert branching_parameter(200) == 3
        assert branching_parameter(1000) == 4

    def test_invariants_random(self):
        for seed in range(20):
            n = 5 + (seed * 17) % 120
            inst = random_instance(seed, n, 0, "linear")
            decomp = build_decomposition(inst.tree)
            m = inst.tree.num_edges
            for level, frags in enumerate(decomp.levels):
                assert sorted(e for f in frags for e in f) == list(range(m))
                if level:
                    for i, f in enumerate(frags):
                        parent = decomp.levels[level - 1][decomp.parents[level][i]]
                        assert f <= parent
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
            for i, f in enumerate(frags):
                if level:
                    parent = decomp.levels[level - 1][decomp.parents[level][i]]
                    assert f <= parent
                    if len(parent) >= 4:
                        pm = len(parent)
                        assert 3 * 4 * len(f) >= pm and 4 * len(f) <= 3 * pm
                assert len(f) * 4**level <= 3**level * m
        assert all(len(f) == 1 for f in decomp.levels[-1])


class TestClassification:
    def test_whole_tree_commodity_first_level(self):
        inst = random_instance(5, 30, 0, "linear")
        verts, _ = inst.tree.rooted(0)[3], None
        # pick two far-apart leaves by brute force
        far = max(
            ((s, t) for s in range(30) for t in range(s + 1, 30)),
            key=lambda st: len(
                Instance.create(
                    inst.tree, inst.pricing, [Commodity(st[0], st[1], 1, Fraction(1))]
                ).path_edges(0)
            ),
        )
        inst2 = make(inst.tree, inst.pricing, [Commodity(far[0], far[1], 1, Fraction(1))])
        decomp = build_decomposition(inst2.tree)
        assign = classify_commodities(decomp, inst2)
        assert assign.level_of[0] == 1

    def test_single_edge_commodity_extra_class(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(1, 2, 1, Fraction(1))])
        decomp = build_decomposition(t)
        assign = classify_commodities(decomp, inst)
        assert assign.extra == (0,)
        assert assign.level_of[0] == decomp.num_levels

    def test_partition_and_border_traversal(self):
        for seed in range(15):
            inst = random_instance(seed, 18, 10, "linear")
            decomp = build_decomposition(inst.tree)
            assign = classify_commodities(decomp, inst)
            ids = sorted(
                i for group in assign.by_fragment.values() for i in group
            ) + sorted(assign.extra)
            assert sorted(ids) == list(range(inst.num_commodities))
            for (level, idx), group in assign.by_fragment.items():
                frag = decomp.levels[level - 1][idx]
                kids = [
                    decomp.levels[level][c] for c in decomp.children_of(level, idx)
                ]
                assert len(kids) >= 2
                skel = compute_skeleton(inst.tree, frag, kids)
                for i in group:
                    path = inst.path_edges(i)
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

    def test_six_way_fragment(self):
        skel = compute_skeleton(fig3_tree(), range(27), FIG3_CHILDREN)
        assert skel.border == {2, 9, 10, 13, 15}
        assert skel.edges == {4, 5, 6, 7, 10, 11, 12, 13, 14}
        assert skel.junctions == {5, 11}
        assert sorted(tuple(s.edges) for s in skel.segments) == [
            (4,), (5, 6), (7,), (10,), (11, 12), (13, 14),
        ]
        assert len(skel.segments) < 2 * 6


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
        cuts = non_skeleton_solve(inst, range(27), skel, [0, 1, 2], FixedRng([0.0]))
        assert cuts == frozenset()

    def test_never_cuts_skeleton(self):
        inst, skel = self._setup()
        for seed in range(30):
            rng = substream(seed, "ns-test")
            cuts = non_skeleton_solve(inst, range(27), skel, [0, 1, 2], rng)
            assert not cuts & skel.edges

    def test_single_active_edge_commodity(self):
        # one hanging edge with a commodity ending there gets cut when active
        t = Tree(4, ((0, 1), (1, 2), (1, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(2, 3, 1, Fraction(1))])
        skel = compute_skeleton(t, range(3), [frozenset({0, 1}), frozenset({2})])
        assert skel.border == {1}
        cuts = non_skeleton_solve(inst, range(3), skel, [0], FixedRng([0.9, 0.0]))
        assert len(cuts) == 1


class TestAuxInstance:
    def test_shift_and_table(self):
        tree = fig3_tree()
        inst = make(tree, PricingFunction.linear(28), [Commodity(19, 12, 5, Fraction(1))])
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        seg_index = next(
            i for i, s in enumerate(skel.segments) if tuple(s.edges) == (11, 12)
        )
        active = [False, True, True, False, True, False]
        gpi, edge_map = build_aux_instance(
            inst, skel, seg_index, (0, 2, 1, 0, 1, 0), 11, active, [0]
        )
        assert gpi.path == (11, 12, 13)
        assert edge_map == [11, 12]
        assert len(gpi.commodities) == 1
        c = gpi.commodities[0]
        assert c.target == 12
        assert c.budget == 5 - 3  # two active inner segments guessed 2 + 1
        assert (c.price(0), c.price(1)) == (Fraction(3), Fraction(4))

    def test_negative_budget_omits(self):
        tree = fig3_tree()
        inst = make(tree, PricingFunction.linear(28), [Commodity(19, 12, 2, Fraction(1))])
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        seg_index = next(
            i for i, s in enumerate(skel.segments) if tuple(s.edges) == (11, 12)
        )
        active = [False, True, True, False, True, False]
        gpi, _ = build_aux_instance(
            inst, skel, seg_index, (0, 2, 1, 0, 1, 0), 11, active, [0]
        )
        assert gpi.commodities == ()

    def test_no_active_inner_segments(self):
        tree = fig3_tree()
        inst = make(tree, PricingFunction.linear(28), [Commodity(19, 12, 2, Fraction(1))])
        skel = compute_skeleton(tree, range(27), FIG3_CHILDREN)
        seg_index = next(
            i for i, s in enumerate(skel.segments) if tuple(s.edges) == (11, 12)
        )
        active = [False, False, False, False, True, False]
        gpi, _ = build_aux_instance(
            inst, skel, seg_index, (0, 2, 1, 0, 1, 0), 11, active, [0]
        )
        c = gpi.commodities[0]
        assert c.budget == 2 and (c.price(0), c.price(1)) == (Fraction(0), Fraction(1))


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
        for seed in range(10):
            cuts = skeleton_solve(inst, skel, [0, 1, 2], (seed, "sk-test"))
            assert cuts <= skel.edges

    def test_guess_space_guard(self, monkeypatch):
        # 13 two-edge segments give 3^13 > 10^6 guess combinations (12 would
        # fit); the guard must refuse before any aux instance is built
        t = Tree(27, tuple((v, v + 1) for v in range(26)))
        inst = make(t, PricingFunction.linear(27), [])
        segments = tuple(Segment((v, v + 1, v + 2), (v, v + 1)) for v in range(0, 26, 2))
        skel = SkeletonInfo(
            border=frozenset({0, 26}),
            edges=frozenset(range(26)),
            vertices=frozenset(range(27)),
            junctions=frozenset(range(2, 26, 2)),
            segments=segments,
        )

        def enumerated(*args):
            raise AssertionError("guess enumeration started")

        monkeypatch.setattr("fza.sublog.build_aux_instance", enumerated)
        with pytest.raises(CapacityError, match="guess space"):
            skeleton_solve(inst, skel, [], (0, "guard"))

    def test_no_segments_empty(self):
        t = Tree(9, tuple((0, v) for v in range(1, 9)))
        inst = make(t, PricingFunction.linear(9), [])
        skel = compute_skeleton(t, range(8), [frozenset(range(4)), frozenset(range(4, 8))])
        assert skeleton_solve(inst, skel, [], (0, "x")) == frozenset()


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
