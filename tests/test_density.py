from fractions import Fraction

import pytest

from fza import (
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    normalize,
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
    total_revenue,
)
from fza.density import bernoulli_candidate, ceil_log2
from conftest import classify_by_density, density_class, offset_candidates, random_instance


def make(tree, pricing, commodities):
    return normalize(Instance.create(tree, pricing, commodities))


def path_instance(n, commodities, pricing="linear"):
    t = Tree(n, tuple((i, i + 1) for i in range(n - 1)))
    table = (
        PricingFunction.linear(n) if pricing == "linear" else PricingFunction.affine(n)
    )
    return make(t, table, commodities)


class TestClassification:
    def test_density_three_quarters_is_class_one(self):
        assert density_class(3, 4) == 1

    def test_zero_budget_is_class_zero(self):
        inst = path_instance(5, [Commodity(0, 4, 0, Fraction(1))])
        cls = classify_by_density(inst)
        assert cls.class_of[0] == 0 and cls.densities[0] == 0

    def test_quarter_density(self):
        # d = 1/4 sits in (2^-3, 2^-2], hence class 3
        assert density_class(1, 4) == 3

    def test_exact_powers(self):
        assert density_class(1, 1) == 1
        assert density_class(1, 2) == 2
        assert density_class(1, 3) == 2

    def test_partition(self):
        for seed in range(20):
            inst = random_instance(seed, 12, 10, "linear")
            cls = classify_by_density(inst)
            seen = sorted(i for group in cls.classes for i in group)
            assert seen == list(range(inst.num_commodities))
            for j, group in enumerate(cls.classes):
                for i in group:
                    assert cls.class_of[i] == j
            assert len(cls.classes) == ceil_log2(12) + 1


class TestOffsetCandidates:
    def test_path_mod4(self):
        t = Tree(9, tuple((i, i + 1) for i in range(8)))
        inst = make(t, PricingFunction.linear(9), [])
        cand = offset_candidates(inst)[1][0]
        assert cand == {0, 4}  # depths 0 and 4

    def test_empty_residue_class(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [])
        assert offset_candidates(inst)[2][7] == frozenset()

    def test_star_all_depth_zero(self):
        t = Tree(5, tuple((0, v) for v in range(1, 5)))
        inst = make(t, PricingFunction.linear(5), [])
        assert offset_candidates(inst)[1][0] == {0, 1, 2, 3}

    def test_offsets_partition_edges(self):
        for seed in range(10):
            inst = random_instance(seed, 14, 0, "linear")
            m = inst.tree.num_edges
            cands = offset_candidates(inst)
            for j in range(1, ceil_log2(14) + 1):
                seen = []
                for theta in range(1 << (j + 1)):
                    seen.extend(cands[j][theta])
                assert sorted(seen) == list(range(m))

    def test_candidate_safety(self):
        # for i in M_j with budget >= 2, every offset candidate keeps i served
        for seed in range(25):
            inst = random_instance(seed, 12, 8, "linear")
            cls = classify_by_density(inst)
            cands = offset_candidates(inst)
            for j in range(1, len(cls.classes)):
                for theta in range(1 << (j + 1)):
                    cand = cands[j][theta]
                    for i in cls.classes[j]:
                        if inst.commodities[i].budget >= 2:
                            hits = len(cand & inst.path_edges(i))
                            assert hits <= inst.commodities[i].budget


class TestSingleDensity:
    def test_all_zero_budget_picks_empty(self):
        t = Tree(5, tuple((0, v) for v in range(1, 5)))
        comms = [Commodity(v, (v % 4) + 1, 0, Fraction(2)) for v in range(1, 4)]
        inst = make(t, PricingFunction.affine(5), comms)
        res = single_density(inst, seed=3)
        assert res.cuts == ()
        assert res.revenue == sum(c.weight for c in inst.commodities)

    def test_deterministic_per_seed(self):
        inst = random_instance(8, 12, 9, "affine")
        a = single_density(inst, seed=42)
        b = single_density(inst, seed=42)
        assert a == b

    def test_beats_empty(self):
        for seed in range(10):
            inst = random_instance(seed, 11, 7, "affine")
            res = single_density(inst, seed=seed)
            assert res.revenue >= total_revenue(inst, [])


class TestSingleDensityPath:
    def test_rejects_non_path(self):
        t = Tree(4, ((0, 1), (0, 2), (0, 3)))
        inst = make(t, PricingFunction.linear(4), [])
        with pytest.raises(InvalidInstanceError):
            single_density_path(inst)

    def test_every_second_edge_pattern(self):
        inst = path_instance(5, [Commodity(0, 4, 2, Fraction(3))])
        res = single_density_path(inst)
        assert res.revenue == 3 * 2  # two cuts on the commodity, f(2) = 2

    def test_all_zero_budget(self):
        inst = path_instance(6, [Commodity(0, 5, 0, Fraction(1))])
        assert single_density_path(inst).cuts == ()

    def test_per_instance_guarantee(self):
        # deterministic bound: revenue >= OPT / (6 (ceil(log2 n) + 1))
        for seed in range(25):
            n = 4 + seed % 11
            inst = random_instance(seed, n, 6, "linear", shape="path")
            opt = brute_force(inst).revenue
            got = single_density_path(inst).revenue
            assert got * 6 * (ceil_log2(n) + 1) >= opt


class TestSingleDensityBase:
    def test_requires_base_revenue(self):
        inst = path_instance(4, [])
        with pytest.raises(InvalidInstanceError):
            single_density_base(inst)

    def test_low_budget_instance(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        comms = [Commodity(0, 2, 1, Fraction(5)), Commodity(1, 3, 0, Fraction(2))]
        inst = make(t, PricingFunction.affine(4), comms)
        res = single_density_base(inst)
        assert res.revenue >= 7  # empty set already collects all base revenue

    def test_budget_two_short_path(self):
        # adjacent depths never share an offset class, so at most one of the
        # two edges is cut; that still meets the variant's guarantee
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(t, PricingFunction((1, 2, 3)), [Commodity(0, 2, 2, Fraction(1))])
        res = single_density_base(inst)
        assert res.revenue == 2
        assert res.revenue * 12 * (ceil_log2(3) + 1) >= 3

    def test_per_instance_guarantee(self):
        for seed in range(25):
            n = 4 + seed % 11
            inst = random_instance(seed, n, 6, "affine")
            opt = brute_force(inst).revenue
            got = single_density_base(inst).revenue
            assert got * 12 * (ceil_log2(n) + 1) >= opt


class TestSimplified:
    def test_sampling_rate(self):
        # class j=1 keeps each edge with probability 1/4
        t = Tree(6, tuple((i, i + 1) for i in range(5)))
        inst = make(t, PricingFunction.linear(6), [])
        trials = 10_000
        hits = sum(0 in bernoulli_candidate(inst, seed, 1) for seed in range(trials))
        assert abs(hits / trials - 0.25) < 0.02

    def test_empty_candidate_floor(self):
        inst = path_instance(6, [Commodity(0, 5, 0, Fraction(4))], pricing="affine")
        for seed in range(20):
            res = simplified_single_density(inst, seed)
            assert res.revenue >= 4  # never worse than the empty set

    def test_deterministic_per_seed(self):
        inst = random_instance(9, 10, 6, "linear")
        assert simplified_single_density(inst, 7) == simplified_single_density(inst, 7)
