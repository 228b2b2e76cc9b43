import hashlib
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from fza import (
    Commodity,
    GenSpec,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    dp_congestion,
    dp_pmax,
    dp_umax,
    gen_random,
    normalize,
    parameters,
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
    total_revenue,
)
import fza.density
from fza.density import _offset_buckets, bernoulli_candidate, ceil_log2
from fza.rng import substream
from conftest import (
    bounded_path_instance,
    classify_by_density,
    density_class,
    offset_candidates,
    path_edges,
    random_instance,
    seeded_density_candidates,
    shaped_tree,
)


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

    def test_ceil_log2_refuses_zero(self):
        assert [ceil_log2(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 2, 2, 3]
        with pytest.raises(InvalidInstanceError, match="n must be positive"):
            ceil_log2(0)

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
                            hits = len(cand & path_edges(inst, i))
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

    def test_seeds_exactly_the_streams_it_reads(self, monkeypatch):
        # a stream is seeded only for a filled bucket whose parent offset
        # (j - 1, theta mod 2^j) was seeded, and at most once; the pairs it
        # skips could not have won, so the result still equals the first
        # maximum over a build that seeds every stream
        seeded = []

        def record(seed, *labels):
            seeded.append(labels)
            return substream(seed, *labels)

        monkeypatch.setattr(fza.density, "substream", record)
        rng = Random(1402)
        filled_total = seeded_total = 0
        for trial in range(45):
            n = rng.randint(2, 200) if trial % 5 else rng.randint(2, 8)
            tree = shaped_tree(rng, n, ("tree", "path", "star")[trial % 3])
            commodities = [Commodity(*rng.sample(range(n), 2), rng.randrange(n), Fraction(1)) for _ in range(6)]
            inst = make(tree, PricingFunction.linear(n), commodities)
            filled = {(j, theta) for j, buckets in _offset_buckets(inst) for theta, b in enumerate(buckets) if b}
            for seed in (0, 1, 4001):
                seeded.clear()
                res = single_density(inst, seed)
                pairs = {(j, theta) for _, j, theta in seeded}
                assert len(pairs) == len(seeded) and {name for name, _, _ in seeded} <= {"single-density"}
                assert pairs <= filled, (trial, seed)
                assert all(j == 1 or (j - 1, theta % (1 << j)) in pairs for j, theta in pairs), (trial, seed)
                filled_total += len(filled)
                seeded_total += len(pairs)
                reference = seeded_density_candidates(inst, seed)
                assert res.diagnostics == {"candidates": len(reference)}
                # the first candidate of maximum revenue wins
                revenues = [total_revenue(inst, cuts) for cuts in reference]
                best = reference[revenues.index(max(revenues))]
                assert (res.cuts, res.revenue) == (tuple(sorted(best)), max(revenues))
        assert seeded_total < filled_total / 2

    def test_seeded_streams_pinned(self, monkeypatch):
        # a deterministic work count: the streams single_density seeds on
        # fixed instances, against 140, 132, 717 and 295 filled buckets, a
        # stream each before the buckets were bounded; a change that stops
        # skipping changes no output, so only this count shows it
        seeded = []

        def record(seed, *labels):
            seeded.append(labels)
            return substream(seed, *labels)

        monkeypatch.setattr(fza.density, "substream", record)
        counts = []
        for spec in (
            GenSpec("random-tree", 128, 128, "linear", seed=3501),
            GenSpec("random-tree", 128, 128, "affine", fractional_weights=True, seed=3502),
            GenSpec("random-path", 300, 300, "capped", seed=3503),
            GenSpec("random-tree", 500, 250, "affine", max_weight=10, seed=3504),
        ):
            seeded.clear()
            single_density(gen_random(spec), 1)
            counts.append(len(seeded))
        assert counts == [4, 7, 12, 6]

    def test_scores_each_cut_set_once(self, monkeypatch):
        scored, lists = Counter(), []
        score, argmax = Instance.scaled_cut_revenue, fza.density._argmax_candidates

        def count(instance, cuts):
            scored[frozenset(cuts)] += 1
            return score(instance, cuts)

        def keep(instance, candidates, *args, **kwargs):
            lists.append(candidates)
            return argmax(instance, candidates, *args, **kwargs)

        monkeypatch.setattr(Instance, "scaled_cut_revenue", count)
        monkeypatch.setattr(fza.density, "_argmax_candidates", keep)
        # 39 edges and classes up to j = 6: most offset buckets are empty, and
        # the unthinned buckets repeat in every class whose modulus exceeds the depth
        tree_inst = random_instance(3, 40, 30, "affine")
        path_inst = random_instance(3, 40, 30, "affine", shape="path")
        solves = [
            (single_density, tree_inst, (5,)),
            (simplified_single_density, tree_inst, (5,)),
            (single_density_base, tree_inst, ()),
            (single_density_path, path_inst, ()),
        ]
        for solve, inst, seed in solves:
            scored.clear()
            lists.clear()
            res = solve(inst, *seed)
            if solve is single_density:
                # it hands `first_best` only the candidates that can still
                # win, and `_argmax_candidates` none
                assert lists == []
                candidates = seeded_density_candidates(inst, *seed)
                assert set(scored) < set(candidates) and set(scored.values()) == {1}
            else:
                candidates = lists[0]
                assert set(scored) == set(candidates) and set(scored.values()) == {1}
            assert len(scored) < len(candidates)
            # the first candidate of maximum revenue still wins
            revenues = [total_revenue(inst, cuts) for cuts in candidates]
            assert res.cuts == tuple(sorted(candidates[revenues.index(max(revenues))]))


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

    def test_refuses_class_index_zero(self):
        inst = path_instance(4, [])
        with pytest.raises(InvalidInstanceError, match="j must be >= 1"):
            bernoulli_candidate(inst, 0, 0)

    def test_empty_candidate_floor(self):
        inst = path_instance(6, [Commodity(0, 5, 0, Fraction(4))], pricing="affine")
        for seed in range(20):
            res = simplified_single_density(inst, seed)
            assert res.revenue >= 4  # never worse than the empty set

    def test_deterministic_per_seed(self):
        inst = random_instance(9, 10, 6, "linear")
        assert simplified_single_density(inst, 7) == simplified_single_density(inst, 7)


def test_only_the_density_family_and_parameters_build_the_edge_bitsets():
    # the density family scores through per-edge commodity bitsets
    # (`Instance._cut_table`), and `parameters()` reads the congestion off
    # them; brute force and the three path DPs read the gain table instead
    tree_inst = random_instance(33, 60, 60, "affine")
    path_inst = random_instance(33, 60, 60, "affine", shape="path")
    bounded = bounded_path_instance(33)
    seeded = [(single_density, 1), (simplified_single_density, 1), (single_density_base,), (parameters,)]
    runs = [(inst, call) for inst in (tree_inst, path_inst) for call in seeded]
    runs += [(path_inst, (single_density_path,)), (bounded, (parameters,))]
    runs += [(bounded, (read,)) for read in (brute_force, dp_umax, dp_pmax, dp_congestion)]
    for inst, (read, *args) in runs:
        fresh = Instance(inst.tree, inst.pricing, inst.commodities)
        read(fresh, *args)
        exact = read in (brute_force, dp_umax, dp_pmax, dp_congestion)
        assert ("_cut_table" in fresh.__dict__, "gains" in fresh.__dict__) == (not exact, exact), read.__name__


class TestPinned:
    def test_outputs_pinned(self):
        # revenues alone miss a changed tie-break or a changed candidate
        # order; this digest of every (cuts, served, revenue, diagnostics)
        # pins the four density variants on fixed random instances
        h = hashlib.sha256()
        for seed in range(48):
            spec = GenSpec(
                ("random-tree", "random-path")[seed % 2],
                (8, 17, 33, 64)[seed % 4],
                (4, 17, 40)[seed % 3],
                pricing=("linear", "affine", "capped")[seed % 3],
                max_weight=(1, 3, 10)[seed % 3],
                fractional_weights=seed % 4 >= 2,
                seed=seed,
            )
            inst = gen_random(spec)
            results = [
                single_density(inst, 1),
                single_density(inst, 2),
                simplified_single_density(inst, 1),
            ]
            if inst.pricing.base_revenue:
                results.append(single_density_base(inst))
            if inst.tree.is_path:
                results.append(single_density_path(inst))
            for res in results:
                h.update(repr((res.cuts, res.served, res.revenue, res.diagnostics)).encode())
        assert h.hexdigest() == "da13bb202357b4f9fd2561a496c92aa4c5a1a5980bf23b63be6ffaa93e8164bd"
