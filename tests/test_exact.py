import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from fza import (
    CapacityError,
    Commodity,
    GeneralizedCommodity,
    GeneralizedPathInstance,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    generalized_rooted_path_dp,
    normalize,
    rooted_dp,
    total_revenue,
)
from conftest import random_gpi, random_instance


def make(tree, pricing, commodities):
    return normalize(Instance.create(tree, pricing, commodities))


class TestBruteForce:
    def test_fig1(self, fig1_linear, fig1_affine):
        assert brute_force(fig1_linear).revenue == 14
        assert brute_force(fig1_affine).revenue == 20

    def test_single_edge_forced_dropout(self):
        t = Tree(2, ((0, 1),))
        inst = make(t, PricingFunction((1, 2)), [Commodity(0, 1, 0, Fraction(1))])
        res = brute_force(inst)
        assert res.cuts == () and res.revenue == 1

    def test_capacity_guard(self):
        t = Tree(30, tuple((i, i + 1) for i in range(29)))
        inst = make(t, PricingFunction.linear(30), [])
        with pytest.raises(CapacityError):
            brute_force(inst)

    def test_tie_break_lex_smallest(self):
        # two symmetric edges, either single cut is optimal
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(
            t,
            PricingFunction.linear(3),
            [Commodity(0, 1, 1, Fraction(1)), Commodity(1, 2, 1, Fraction(1))],
        )
        res = brute_force(inst)
        assert res.revenue == 2
        assert res.cuts == (0, 1)

    def test_matches_reference_optimum(self):
        # the optimum by the plain Fraction reference, lexicographically
        # smallest sorted cut tuple among the ties
        for seed in range(12):
            inst = random_instance(seed, 2 + seed % 8, 6, ("linear", "affine", "capped")[seed % 3])
            m = inst.tree.num_edges
            ref = min(
                (cuts for size in range(m + 1) for cuts in combinations(range(m), size)),
                key=lambda cuts: (-total_revenue(inst, cuts), cuts),
            )
            res = brute_force(inst)
            assert (res.cuts, res.revenue) == (ref, total_revenue(inst, ref))

    def test_outputs_pinned(self):
        # digest of (cuts, served, revenue) on random trees and paths
        h = hashlib.sha256()
        for seed in range(40):
            shape = ("tree", "path")[seed % 2]
            inst = random_instance(
                seed, 4 + seed % 10, 3 + seed % 7, ("linear", "affine", "capped")[seed % 3], shape
            )
            res = brute_force(inst)
            h.update(repr((res.cuts, res.served, res.revenue)).encode())
        assert h.hexdigest() == "c423cddc40eabd8a92ef9472cd9885a1dcfbe1b869a4eb867b865d4708a3c4ef"


class TestRootedDP:
    def test_star(self):
        t = Tree(4, ((0, 1), (0, 2), (0, 3)))
        comms = [Commodity(0, v, 1, Fraction(1)) for v in (1, 2, 3)]
        inst = make(t, PricingFunction.linear(4), comms)
        res = rooted_dp(inst, 0)
        assert res.revenue == 3
        assert set(res.cuts) == {0, 1, 2}

    def test_two_edge_path(self):
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(t, PricingFunction.linear(3), [Commodity(0, 2, 1, Fraction(2))])
        res = rooted_dp(inst, 0)
        assert res.revenue == 2 and len(res.cuts) == 1

    def test_rejects_unrooted_commodity(self):
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(t, PricingFunction.linear(3), [Commodity(1, 2, 1, Fraction(1))])
        with pytest.raises(InvalidInstanceError):
            rooted_dp(inst, 0)

    @pytest.mark.parametrize("pricing", ["linear", "affine", "capped"])
    def test_matches_brute_force(self, pricing):
        for seed in range(25):
            inst = random_instance(seed, 4 + seed % 8, 2 + seed % 6, pricing,
                                   root_commodities=True)
            assert rooted_dp(inst, 0).revenue == brute_force(inst).revenue

    def test_recursion_consistency(self):
        # recompute R_v(x) from children for a random rooted instance
        inst = random_instance(11, 9, 6, "affine", root_commodities=True)
        tree = inst.tree
        parent, parent_edge, depth, order = tree.rooted(0)
        children = {v: [] for v in range(tree.num_vertices)}
        for v in order[1:]:
            children[parent[v]].append(v)
        far = [c.target if c.source == 0 else c.source for c in inst.commodities]
        f = inst.pricing

        table = {}
        for v in reversed(order):
            for x in range(depth[v] + 1):
                val = sum(
                    (
                        c.weight * f(x)
                        for c, t in zip(inst.commodities, far)
                        if t == v and x <= c.budget
                    ),
                    Fraction(0),
                )
                for w in children[v]:
                    val += max(table[(w, x)], table[(w, x + 1)])
                table[(v, x)] = val
        assert rooted_dp(inst, 0).revenue == table[(0, 0)]


def gpi_revenue(gpi: GeneralizedPathInstance, cuts) -> Fraction:
    total = Fraction(0)
    for c in gpi.commodities:
        count = sum(1 for p in cuts if p < c.target)
        if count <= c.budget:
            total += c.weight * c.price(count)
    return total


class TestGeneralizedPathDP:
    def test_zero_cuts(self):
        gpi = random_gpi(1, 6, 4)
        res = generalized_rooted_path_dp(gpi, 0)
        assert res.cuts == ()
        assert res.revenue == sum(
            (c.weight * c.price(0) for c in gpi.commodities), Fraction(0)
        )

    def test_all_cuts(self):
        gpi = random_gpi(2, 6, 4)
        res = generalized_rooted_path_dp(gpi, 5)
        assert res.cuts == tuple(range(5))
        assert res.revenue == gpi_revenue(gpi, range(5))

    def test_out_of_range(self):
        gpi = random_gpi(3, 5, 3)
        with pytest.raises(InvalidInstanceError):
            generalized_rooted_path_dp(gpi, 5)

    def test_shifted_view(self):
        pricing = PricingFunction.linear(5)
        c = GeneralizedCommodity(3, 3, Fraction(1), pricing, shift=1)
        assert (c.price(0), c.price(3)) == (1, 4)
        GeneralizedPathInstance((0, 1, 2, 3), (c,))
        too_short = GeneralizedCommodity(3, 3, Fraction(1), pricing, shift=2)
        with pytest.raises(InvalidInstanceError):
            GeneralizedPathInstance((0, 1, 2, 3), (too_short,))
        with pytest.raises(InvalidInstanceError):
            GeneralizedCommodity(3, 3, Fraction(1), pricing, shift=-1)

    def test_refuses_non_int_fields(self):
        pricing = PricingFunction.linear(5)
        for target, budget, shift in ((3, True, 0), (3, 3, True), (3, 2.0, 0), (3, 3, 1.0), (3.0, 3, 0)):
            with pytest.raises(InvalidInstanceError, match="must be an integer"):
                GeneralizedCommodity(target, budget, Fraction(1), pricing, shift=shift)
        c = GeneralizedCommodity(3, 3, Fraction(1), pricing)
        for path in ((0, 1, 2, 3.5), (0, 1.0, 2, 3), (False, True, 2, 3)):
            with pytest.raises(InvalidInstanceError, match="must be an integer"):
                GeneralizedPathInstance(path, (c,))
        assert GeneralizedPathInstance([0, 1, 2, 3], [c]).path == (0, 1, 2, 3)

    def test_exact_cut_count_and_optimality(self):
        for seed in range(20):
            n = 4 + seed % 7
            gpi = random_gpi(seed, n, 2 + seed % 4)
            for y in range(n):
                res = generalized_rooted_path_dp(gpi, y)
                assert len(res.cuts) == y
                best = max(
                    gpi_revenue(gpi, subset)
                    for subset in combinations(range(n - 1), y)
                )
                assert res.revenue == best

    def test_identical_tables_match_rooted_dp(self):
        # maximizing over y recovers the unconstrained rooted optimum
        for seed in range(10):
            n = 4 + seed % 6
            inst = random_instance(
                400 + seed, n, 4, "affine", shape="path", root_commodities=False
            )
            verts, edge_ids = inst.tree.path_order()
            root = verts[0]
            comms = [
                Commodity(root, v, u, Fraction(w))
                for v, u, w in [
                    (verts[-1], 2, 3),
                    (verts[len(verts) // 2], 1, 2),
                ]
                if v != root
            ]
            inst2 = make(inst.tree, inst.pricing, comms)
            gpi = GeneralizedPathInstance(
                tuple(verts),
                tuple(
                    GeneralizedCommodity(
                        c.target if c.source == root else c.source,
                        c.budget,
                        c.weight,
                        inst2.pricing,
                    )
                    for c in inst2.commodities
                ),
            )
            best = max(
                generalized_rooted_path_dp(gpi, y).revenue
                for y in range(len(edge_ids) + 1)
            )
            assert best == rooted_dp(inst2, root).revenue
