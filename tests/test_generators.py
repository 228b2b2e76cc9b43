from fractions import Fraction

import pytest

from fza import (
    CapacityError,
    Commodity,
    Formula2CNF,
    GenSpec,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    gen_path_from_2sat,
    gen_random,
    gen_star_from_2sat,
    max2sat_optimum,
    normalize,
    parameters,
    total_revenue,
)
from fza.files import instance_to_dict, dumps_canonical
from fza.rng import substream

PHI_FIG2 = Formula2CNF(2, (((0, False), (1, True)), ((0, True), (1, True))))


class TestFormula:
    def test_occurrence_cap(self):
        clause = ((0, False), (1, False))
        with pytest.raises(InvalidInstanceError):
            Formula2CNF(2, (clause,) * 4)

    def test_duplicate_literal_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Formula2CNF(1, (((0, False), (0, False)),))

    def test_tautology_clause_allowed(self):
        Formula2CNF(1, (((0, False), (0, True)),))


class TestMax2Sat:
    def test_fig2_formula(self):
        assert max2sat_optimum(PHI_FIG2) == 2

    def test_single_clause(self):
        assert max2sat_optimum(Formula2CNF(2, (((0, False), (1, False)),))) == 1

    def test_var_guard(self):
        big = Formula2CNF(25, (((0, False), (1, False)),))
        with pytest.raises(CapacityError):
            max2sat_optimum(big)

    def test_half_clauses_always_satisfiable(self):
        for seed in range(30):
            rng = substream(seed, "formula")
            nv = rng.randint(1, 4)
            pairs = [
                ((v1, bool(n1)), (v2, bool(n2)))
                for v1 in range(nv)
                for v2 in range(nv)
                for n1 in (0, 1)
                for n2 in (0, 1)
                if (v1, n1) < (v2, n2)
            ]
            clauses = []
            occ = [0] * nv
            rng.shuffle(pairs)
            for pair in pairs:
                used = {pair[0][0], pair[1][0]}
                if all(occ[v] < 3 for v in used):
                    clauses.append(pair)
                    for v in used:
                        occ[v] += 1
                if len(clauses) == 4:
                    break
            if not clauses:
                continue
            phi = Formula2CNF(nv, tuple(clauses))
            assert max2sat_optimum(phi) >= -(-len(clauses) // 2)


class TestGenRandom:
    def test_deterministic_bytes(self):
        spec = GenSpec("random-tree", 10, 8, pricing="capped", seed=7)
        a = dumps_canonical(instance_to_dict(gen_random(spec)))
        b = dumps_canonical(instance_to_dict(gen_random(spec)))
        assert a == b

    def test_two_vertices_single_edge(self):
        spec = GenSpec("random-path", 2, 5, seed=3)
        inst = gen_random(spec)
        assert inst.tree.num_edges == 1
        assert all(inst.path_edges(i) == {0} for i in range(inst.num_commodities))

    def test_inconsistent_spec(self):
        with pytest.raises(InvalidInstanceError):
            GenSpec("random-tree", 1, 3)

    def test_all_draws_normalized(self):
        from fza.model import normalize as renorm

        for seed in range(1000):
            spec = GenSpec(
                "random-path" if seed % 2 else "random-tree",
                3 + seed % 9,
                seed % 7,
                pricing=("linear", "affine", "capped")[seed % 3],
                fractional_weights=bool(seed % 5 == 0),
                seed=seed,
            )
            inst = gen_random(spec)
            again = renorm(inst)
            assert again.commodities == inst.commodities
            for i, c in enumerate(inst.commodities):
                assert c.budget <= inst.paths[i].bit_count()


class TestStarReduction:
    def test_fig2_shape(self):
        inst, target = gen_star_from_2sat(PHI_FIG2)
        assert inst.tree.num_vertices == 5
        assert inst.tree.num_edges == 4
        # 2 variable commodities + 6 clause commodities, two of which share
        # (path, budget) and merge
        assert inst.num_commodities == 7
        assert all(c.budget == 1 for c in inst.commodities)

    def test_fig2_optimum(self):
        inst, target = gen_star_from_2sat(PHI_FIG2)
        opt = brute_force(inst).revenue
        assert opt == 9 * 2 + 5 * 2 + 3 * 2 == 34
        assert target(max2sat_optimum(PHI_FIG2)) == opt

    def test_clause_triple_payoffs(self):
        # one clause on fresh variables: its three commodities pay 5 with no
        # literal edge cut, 8 otherwise
        phi = Formula2CNF(2, (((0, False), (1, False)),))
        inst, _ = gen_star_from_2sat(phi)
        lit_edges = {0, 2}  # edges center-x1 and center-x2
        triple = [
            i
            for i in range(inst.num_commodities)
            if inst.commodities[i].weight in (Fraction(1), Fraction(2))
        ]

        def triple_rev(cuts):
            return sum(
                inst.commodities[i].weight
                * (
                    inst.pricing(len(set(cuts) & inst.path_edges(i)))
                    if len(set(cuts) & inst.path_edges(i)) <= 1
                    else 0
                )
                for i in triple
            )

        assert triple_rev([]) == 5
        assert triple_rev([0]) == 8
        assert triple_rev([2]) == 8
        assert triple_rev([0, 2]) == 8

    def test_target_matches_exhaustive_formulas(self):
        # all single-clause formulas over two variables
        lits = [(v, n) for v in range(2) for n in (False, True)]
        for a in lits:
            for b in lits:
                if a >= b:
                    continue
                phi = Formula2CNF(2, ((a, b),))
                inst, target = gen_star_from_2sat(phi)
                assert brute_force(inst).revenue == target(max2sat_optimum(phi))


class TestPathReduction:
    def test_rejects_small_m(self):
        with pytest.raises(InvalidInstanceError):
            gen_path_from_2sat(PHI_FIG2, 2)

    def test_shape(self):
        inst, _ = gen_path_from_2sat(PHI_FIG2, 3)
        assert inst.tree.num_edges == 20
        # 4 gadgets x 5 commodities + 2 consistency + 2m clause commodities
        assert inst.num_commodities == 20 + 2 + 4

    def test_gadget_patterns(self):
        # among three-cut patterns the gadget pays 20M exactly for 0-3-0 and
        # every 1-1-1 placement; unrestricted, 2 cuts in block B reach 21M
        # (which is why the full construction overshoots its target)
        big = Fraction(5)
        t = Tree(6, tuple((i, i + 1) for i in range(5)))
        comms = [
            Commodity(0, 5, 3, big),
            Commodity(1, 4, 3, 4 * big),
            Commodity(1, 4, 1, big),
            Commodity(0, 4, 2, big),
            Commodity(1, 5, 2, big),
        ]
        inst = normalize(Instance.create(t, PricingFunction.affine(6), comms))
        payoffs = {}
        for mask in range(32):
            cuts = tuple(e for e in range(5) if mask >> e & 1)
            payoffs[cuts] = total_revenue(inst, cuts)
        three_cut_best = max(v for k, v in payoffs.items() if len(k) == 3)
        assert three_cut_best == 20 * big
        winners = sorted(
            k for k, v in payoffs.items() if len(k) == 3 and v == three_cut_best
        )
        # 0-3-0 plus the three 1-1-1 placements (any single edge of block B)
        assert (1, 2, 3) in winners
        assert {(0, 1, 4), (0, 2, 4), (0, 3, 4)} <= set(winners)
        assert max(payoffs.values()) == 21 * big
        assert payoffs[(1, 2)] == 21 * big

    def test_tiny_formula_exceeds_target(self):
        # the 21M two-cut anomaly lifts the optimum one M above the target
        phi = Formula2CNF(1, (((0, False), (0, True)),))
        inst, target = gen_path_from_2sat(phi, 2)
        assert inst.tree.num_edges == 10
        opt = brute_force(inst).revenue
        ystar = max2sat_optimum(phi)
        assert ystar == 1
        assert target(ystar) == 42 * 2 + 1
        assert opt == target(ystar) + 2  # one extra M from a 21M gadget

    def test_clause_budgets_scale_with_gap(self):
        phi = Formula2CNF(3, (((0, False), (2, True)),))
        inst, _ = gen_path_from_2sat(phi, 4)
        u = parameters(inst)
        # literals x1 and not-x3 sit 4 gadgets apart: budgets 3B+1 = 13
        budgets = sorted(c.budget for c in inst.commodities)
        assert 13 in budgets and 12 in budgets
