import ast
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from fza import (
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    normalize,
    parameters,
    total_revenue,
)
from fza.model import edge_mask, make_result, revenue_for, total_revenue_mask
from fza.sublog import sublog
from conftest import fig1_instance, random_instance, resolve_path, revenue_of_commodity


def make(tree, pricing, commodities):
    return normalize(Instance.create(tree, pricing, commodities))


class TestTree:
    def test_rejects_disconnected(self):
        with pytest.raises(InvalidInstanceError):
            Tree(4, ((0, 1), (2, 3), (0, 1)))

    def test_rejects_cycle(self):
        with pytest.raises(InvalidInstanceError):
            Tree(3, ((0, 1), (1, 2), (2, 0)))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstanceError):
            Tree(2, ((0, 0),))

    def test_single_vertex(self):
        t = Tree(1, ())
        assert t.num_edges == 0

    def test_path_order(self):
        t = Tree(4, ((2, 3), (0, 1), (1, 2)))
        verts, eids = t.path_order()
        assert verts == [0, 1, 2, 3]
        assert eids == [1, 2, 0]


class TestResolvePath:
    def test_single_edge(self):
        t = Tree(2, ((0, 1),))
        assert resolve_path(t, 0, 1) == {0}

    def test_whole_path(self):
        t = Tree(3, ((0, 1), (1, 2)))
        assert resolve_path(t, 0, 2) == {0, 1}

    def test_star_through_center(self):
        t = Tree(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        assert resolve_path(t, 1, 3) == {0, 2}

    def test_same_endpoint_rejected(self):
        t = Tree(2, ((0, 1),))
        with pytest.raises(InvalidInstanceError):
            resolve_path(t, 1, 1)
        with pytest.raises(InvalidInstanceError):
            resolve_path(t, 0, 5)


class TestPricing:
    def test_concavity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            PricingFunction((0, 1, 3))

    def test_decreasing_rejected(self):
        with pytest.raises(InvalidInstanceError):
            PricingFunction((2, 1))

    def test_base_revenue_flag(self):
        assert PricingFunction.affine(3).base_revenue
        assert not PricingFunction.linear(3).base_revenue

    def test_capped_is_concave(self):
        PricingFunction.capped(10, 3)  # must not raise


class TestNormalize:
    def test_merges_same_path_and_budget(self):
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(
            t,
            PricingFunction.linear(3),
            [Commodity(0, 2, 1, Fraction(2)), Commodity(2, 0, 1, Fraction(3))],
        )
        assert inst.num_commodities == 1
        assert inst.commodities[0].weight == 5

    def test_clamps_budget_to_path_length(self):
        t = Tree(5, tuple((i, i + 1) for i in range(4)))
        inst = make(t, PricingFunction.linear(5), [Commodity(0, 4, 10, Fraction(1))])
        assert inst.commodities[0].budget == 4

    def test_distinct_budgets_not_merged(self):
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(
            t,
            PricingFunction.linear(3),
            [Commodity(0, 2, 1, Fraction(2)), Commodity(0, 2, 2, Fraction(3))],
        )
        assert inst.num_commodities == 2


class TestRevenue:
    def test_direct_formula(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(0, 3, 2, Fraction(3))])
        assert revenue_of_commodity(inst, 0, [0, 2]) == 6

    def test_drop_out(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(0, 3, 1, Fraction(3))])
        assert revenue_of_commodity(inst, 0, [0, 2]) == 0

    def test_base_revenue_no_cuts(self):
        t = Tree(2, ((0, 1),))
        inst = make(t, PricingFunction.affine(2), [Commodity(0, 1, 1, Fraction(4))])
        assert revenue_of_commodity(inst, 0, []) == 4

    def test_fig1_depicted_solutions(self):
        # the depicted cut sets, translated to edge ids
        inst = fig1_instance("linear")
        depicted = [3, 5, 6, 7, 11]  # v5-v6, v9-v10, v11-v12, v12-v13, v7-v8
        assert total_revenue(inst, depicted) == 14
        inst2 = fig1_instance("affine")
        assert total_revenue(inst2, [3, 5, 6, 7]) == 20

    def test_no_cuts_no_base_revenue(self):
        inst = random_instance(7, 8, 5, "linear")
        assert total_revenue(inst, []) == 0


class TestScaledKernel:
    """The integer kernel against the plain Fraction definition, with both a
    weight and a price denominator above 1."""

    @staticmethod
    def fractional_instance(seed):
        base = random_instance(seed, 9, 8, "linear")
        rng = Random(seed)
        # harmonic prices: increments 1, 1/2, 1/3, ... keep the table concave
        prices = [Fraction(0)]
        for x in range(1, base.tree.num_vertices):
            prices.append(prices[-1] + Fraction(1, x))
        commodities = [
            Commodity(c.source, c.target, c.budget, Fraction(rng.randint(1, 9), rng.randint(2, 7)))
            for c in base.commodities
        ]
        inst = make(base.tree, PricingFunction(tuple(prices)), commodities)
        d_f = inst.pricing.scaled[0]
        assert d_f > 1 and inst.scale // d_f > 1
        return inst

    def test_revenues_match_fraction_sum(self):
        for seed in range(20):
            inst = self.fractional_instance(seed)
            rng = Random(100 + seed)
            m = inst.tree.num_edges
            for _ in range(10):
                cuts = [e for e in range(m) if rng.random() < 0.4]
                ids = [i for i in range(inst.num_commodities) if rng.random() < 0.5]
                per = [revenue_of_commodity(inst, i, cuts) for i in range(inst.num_commodities)]
                expected = sum(per, Fraction(0))
                assert total_revenue_mask(inst, edge_mask(cuts)) == expected
                assert make_result(inst, cuts, "test").revenue == expected
                assert revenue_for(inst, ids, cuts) == sum((per[i] for i in ids), Fraction(0))

    def test_value_difference_is_marginal_gain(self):
        def marginal(w, f, z, u):
            if z < u:
                return w * (f(z + 1) - f(z))
            if z == u:
                return -w * f(u)
            return Fraction(0)

        branches = set()
        for seed in range(20):
            inst = self.fractional_instance(seed)
            for i, c in enumerate(inst.commodities):
                for z in range(inst.paths[i].bit_count() + 1):
                    got = Fraction(inst.value(i, z + 1) - inst.value(i, z), inst.scale)
                    assert got == marginal(c.weight, inst.pricing, z, c.budget)
                    branches.add((z > c.budget) - (z < c.budget))
        assert branches == {-1, 0, 1}


class TestParameters:
    def test_fig1_u_max(self):
        assert parameters(fig1_instance("linear")).u_max == 5

    def test_single_commodity_path(self):
        t = Tree(7, tuple((i, i + 1) for i in range(6)))
        inst = make(t, PricingFunction.linear(7), [Commodity(0, 6, 3, Fraction(1))])
        p = parameters(inst)
        assert p.p_max == 6 and p.congestion == 1

    def test_shared_edge_congestion(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(
            t,
            PricingFunction.linear(4),
            [Commodity(0, 2, 1, Fraction(1)), Commodity(1, 3, 1, Fraction(1))],
        )
        assert parameters(inst).congestion == 2

    def test_empty(self):
        t = Tree(1, ())
        inst = make(t, PricingFunction.linear(1), [])
        assert parameters(inst) == (0, 0, 0)


class TestInvariants:
    def test_revenue_upper_bound(self):
        for seed in range(30):
            inst = random_instance(seed, 9, 6, "affine")
            bound = sum(
                c.weight * inst.pricing(c.budget) for c in inst.commodities
            )
            rng_cuts = [e for e in range(inst.tree.num_edges) if (seed >> e) & 1]
            rev = total_revenue(inst, rng_cuts)
            assert 0 <= rev <= bound

    def test_serving_monotone_under_subset(self):
        inst = random_instance(3, 10, 8, "linear")
        m = inst.tree.num_edges
        full = list(range(0, m, 2))
        for i in range(inst.num_commodities):
            u = inst.commodities[i].budget
            count = len(set(full) & inst.path_edges(i))
            if count <= u:
                for r in range(len(full)):
                    for sub in combinations(full, r):
                        assert len(set(sub) & inst.path_edges(i)) <= u

    def test_restricted_submodularity(self):
        # g(F') = revenue of commodities served by F, over subsets F' of F
        for seed in range(12):
            inst = random_instance(100 + seed, 8, 6, "affine")
            m = inst.tree.num_edges
            base = [e for e in range(m)][:6]
            served = [
                i
                for i in range(inst.num_commodities)
                if len(set(base) & inst.path_edges(i)) <= inst.commodities[i].budget
            ]

            def g(subset):
                return sum(
                    (revenue_of_commodity(inst, i, subset) for i in served),
                    Fraction(0),
                )

            subsets = []
            for r in range(len(base) + 1):
                subsets.extend(combinations(base, r))
            for a in subsets:
                assert g(a) >= 0
                for b in subsets:
                    if set(a) <= set(b):
                        for e in base:
                            if e in set(b):
                                continue
                            lhs = g(tuple(set(a) | {e})) - g(a)
                            rhs = g(tuple(set(b) | {e})) - g(b)
                            assert lhs >= rhs

    def test_result_revenue_reproducible(self):
        from fza import brute_force

        inst = random_instance(5, 9, 7, "capped")
        res = brute_force(inst)
        # recompute from served flags and cut counts, bit for bit
        total = Fraction(0)
        for i, ok in enumerate(res.served):
            count = len(set(res.cuts) & inst.path_edges(i))
            if ok:
                total += inst.commodities[i].weight * inst.pricing(count)
            else:
                assert count > inst.commodities[i].budget
        assert total == res.revenue

    def test_single_vertex_tree_all_solvers(self):
        import fza

        inst = make(Tree(1, ()), PricingFunction.affine(1), [])
        solvers = [
            fza.brute_force,
            lambda i: fza.rooted_dp(i, 0),
            lambda i: fza.single_density(i, 0),
            fza.single_density_path,
            fza.single_density_base,
            lambda i: fza.simplified_single_density(i, 0),
            lambda i: sublog(i, 0),
            fza.dp_umax,
            fza.dp_pmax,
            fza.dp_congestion,
        ]
        for solver in solvers:
            res = solver(inst)
            assert res.cuts == () and res.revenue == 0

    def test_no_commodities_all_solvers(self):
        import fza

        inst = make(
            Tree(5, tuple((i, i + 1) for i in range(4))),
            PricingFunction.affine(5),
            [],
        )
        solvers = [
            fza.brute_force,
            lambda i: fza.rooted_dp(i, 0),
            lambda i: fza.single_density(i, 1),
            fza.single_density_path,
            fza.single_density_base,
            lambda i: fza.simplified_single_density(i, 1),
            lambda i: sublog(i, 1),
            fza.dp_umax,
            fza.dp_pmax,
            fza.dp_congestion,
        ]
        for solver in solvers:
            res = solver(inst)
            assert res.revenue == 0 and res.served == ()


def test_public_surface():
    import inspect

    import fza
    import fza.sublog as sublog_module

    assert inspect.ismodule(sublog_module)
    assert len(set(fza.__all__)) == len(fza.__all__) <= 32
    for name in fza.__all__:
        assert not inspect.ismodule(getattr(fza, name)), name


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every invariant check in fza must raise
    import fza

    offenders = []
    for path in sorted(Path(fza.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []
