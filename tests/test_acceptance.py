"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Expected values are either
fixed constants verified by hand or recomputed at test time by independent
oracles (exhaustive enumeration); no expected value is derived from the
algorithm under test.

Criterion 10's path-reduction half is known-red: the five-commodity gadget
admits a two-cut pattern worth 21M (above the 20M the intended patterns pay),
so the built instance's optimum provably exceeds the 42Mn + y target. See
test_criterion_10b and the gadget payoff test in test_generators.py.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from fza import (
    Formula2CNF,
    brute_force,
    dp_congestion,
    dp_pmax,
    dp_umax,
    gen_path_from_2sat,
    gen_star_from_2sat,
    generalized_rooted_path_dp,
    max2sat_optimum,
    rooted_dp,
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
    total_revenue,
)
from fza.density import ceil_log2
from fza.files import solution_to_json
from fza.rng import substream
from fza.sublog import (
    build_decomposition,
    classify_commodities,
    compute_skeleton,
    non_skeleton_solve,
    skeleton_solve,
    sublog,
)
from conftest import (
    bounded_path_instance,
    classify_by_density,
    fig1_instance,
    offset_candidates,
    path_edges,
    random_gpi,
    random_instance,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")


def test_criterion_1_fig1_reproduction():
    start = time.perf_counter()
    linear = brute_force(fig1_instance("linear")).revenue
    affine = brute_force(fig1_instance("affine")).revenue
    elapsed = time.perf_counter() - start
    ok = linear == 14 and affine == 20 and elapsed < 1.0
    report("1", ok, f"brute force 14/20 on the reference instance ({elapsed:.2f}s)")
    assert linear == 14
    assert affine == 20
    assert elapsed < 1.0


def test_criterion_2_rooted_dp_exactness():
    start = time.perf_counter()
    presets = ("linear", "affine", "capped")
    checked = 0
    for seed in range(200):
        inst = random_instance(
            seed,
            n=4 + seed % 9,
            k=1 + seed % 15,
            pricing=presets[seed % 3],
            root_commodities=True,
        )
        assert rooted_dp(inst, 0).revenue == brute_force(inst).revenue
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 30
    report("2", ok, f"rooted DP == brute force on {checked} instances ({elapsed:.1f}s)")
    assert ok


def test_criterion_3_generalized_path_dp_exactness():
    start = time.perf_counter()
    for seed in range(100):
        n = 4 + seed % 11  # vertices, so up to 14
        gpi = random_gpi(seed, n, 2 + seed % 5)
        m = n - 1
        # independent oracle: sweep all cut masks, best revenue per cut count
        prefixes = [
            ((1 << (c.target)) - 1, c.budget, c.weight, c.price)
            for c in gpi.commodities
        ]

        def revenue(mask: int) -> Fraction:
            rev = Fraction(0)
            for pmask, budget, weight, price in prefixes:
                count = (mask & pmask).bit_count()
                if count <= budget:
                    rev += weight * price(count)
            return rev

        best: list[Fraction | None] = [None] * (m + 1)
        for mask in range(1 << m):
            rev = revenue(mask)
            y = mask.bit_count()
            if best[y] is None or rev > best[y]:
                best[y] = rev
        for y in range(m + 1):
            cuts = generalized_rooted_path_dp(gpi.integer, y)
            assert len(cuts) == y
            assert revenue(sum(1 << p for p in cuts)) == best[y]
    elapsed = time.perf_counter() - start
    ok = elapsed < 60
    report("3", ok, f"path DP matches exhaustive size-y optimum, 100 instances ({elapsed:.1f}s)")
    assert ok


def test_criterion_4_parameterized_dp_exactness():
    start = time.perf_counter()
    for seed in range(200):
        inst = bounded_path_instance(seed, n_max=14, u_cap=3, p_cap=6, cong_cap=3)
        opt = brute_force(inst).revenue
        assert dp_umax(inst).revenue == opt
        assert dp_pmax(inst).revenue == opt
        assert dp_congestion(inst).revenue == opt
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    report("4", ok, f"all three DPs == brute force on 200 paths ({elapsed:.1f}s)")
    assert ok


def test_criterion_5_deterministic_guarantees():
    for seed in range(60):
        n = 4 + seed % 11
        inst = random_instance(
            seed, n, 2 + seed % 7, ("linear", "affine")[seed % 2], shape="path"
        )
        opt = brute_force(inst).revenue
        got = single_density_path(inst).revenue
        assert got * 6 * (ceil_log2(n) + 1) >= opt
    for seed in range(60):
        n = 4 + seed % 11
        inst = random_instance(1000 + seed, n, 2 + seed % 7, "affine")
        opt = brute_force(inst).revenue
        got = single_density_base(inst).revenue
        assert got * 12 * (ceil_log2(n) + 1) >= opt
    report("5", True, "per-instance 1/(6(log+1)) path and 1/(12(log+1)) base bounds")


def test_criterion_6_candidate_safety():
    for seed in range(100):
        n = 4 + seed % 17  # up to 20
        inst = random_instance(seed, n, 1 + seed % 10, "linear")
        cls = classify_by_density(inst)
        cands = offset_candidates(inst)
        for j in range(1, len(cls.classes)):
            for theta in range(1 << (j + 1)):
                cand = cands[j][theta]
                for i in cls.classes[j]:
                    if inst.commodities[i].budget >= 2:
                        assert (
                            len(cand & path_edges(inst, i))
                            <= inst.commodities[i].budget
                        )
    report("6", True, "offset candidates never exceed budgets in their class (u >= 2)")


def _mean_and_se(samples):
    floats = [float(x) for x in samples]
    mean = sum(samples, Fraction(0)) / len(samples)
    se = statistics.pstdev(floats) / (len(floats) ** 0.5)
    return mean, se


def test_criterion_7_randomized_expectation_bounds():
    for tree_seed in range(20):
        n = 6 + tree_seed % 9  # up to 14
        inst = random_instance(tree_seed, n, 2 + tree_seed % 8, "linear")
        opt = brute_force(inst).revenue
        bound = opt / (24 * (ceil_log2(n) + 1))
        samples = [single_density(inst, s).revenue for s in range(500)]
        mean, se = _mean_and_se(samples)
        assert float(mean) >= float(bound) - 3 * se, (
            f"single_density mean {float(mean):.4f} below {float(bound):.4f} - 3se"
        )
    for tree_seed in range(20):
        n = 6 + tree_seed % 9
        inst = random_instance(500 + tree_seed, n, 2 + tree_seed % 8, "linear")
        opt = brute_force(inst).revenue
        bound = opt / (3200 * (ceil_log2(n) + 1))
        samples = [simplified_single_density(inst, s).revenue for s in range(2000)]
        mean, se = _mean_and_se(samples)
        assert float(mean) >= float(bound) - 3 * se
    report("7", True, "mean revenue within 3 SE of the 1/24 and 1/3200 class bounds")


def test_criterion_8_decomposition_invariants():
    violations = 0
    for seed in range(200):
        n = 2 + (seed * 37) % 199  # up to 200
        inst = random_instance(seed, n, 0, "linear")
        for forced_d in (None, 4):
            if inst.tree.num_edges == 0:
                continue
            decomp = build_decomposition(inst.tree, d=forced_d)
            d = decomp.d
            m = inst.tree.num_edges
            for level, frags in enumerate(decomp.levels):
                if sorted(e for f in frags for e in f) != list(range(m)):
                    violations += 1
                for f in frags:
                    if d >= 4 and len(f) * d**level > 3**level * m:
                        violations += 1
            for level, refined in enumerate(decomp.children):
                if sorted(c for kids in refined for c in kids) != list(range(len(decomp.levels[level + 1]))):
                    violations += 1
                for parent, kids in zip(decomp.levels[level], refined):
                    for c in kids:
                        f = decomp.levels[level + 1][c]
                        if not f <= parent:
                            violations += 1
                        if d >= 4 and len(parent) >= d:
                            pm = len(parent)
                            if not (3 * d * len(f) >= pm and d * len(f) <= 3 * pm):
                                violations += 1
            if not all(len(f) == 1 for f in decomp.levels[-1]):
                violations += 1
    ok = violations == 0
    report("8", ok, "partition/refinement/termination plus d>=4 size bounds, 200 trees")
    assert violations == 0


def test_criterion_9_sublog_structural_and_statistical():
    # structural: valid cut sets, never below the empty set, and the two
    # subroutines respect their skeleton constraints on decomposed fragments
    for seed in range(25):
        inst = random_instance(seed, 5 + seed % 12, 2 + seed % 8, "affine")
        res = sublog(inst, seed)
        assert all(0 <= e < inst.tree.num_edges for e in res.cuts)
        assert res.revenue >= total_revenue(inst, [])
        if inst.tree.num_edges == 0:
            continue
        decomp = build_decomposition(inst.tree)
        assign = classify_commodities(decomp, inst)
        for (level, idx), ids in assign.by_fragment.items():
            frag = decomp.levels[level - 1][idx]
            kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]
            skel = compute_skeleton(inst.tree, frag, kids)
            rng = substream(seed, "check", level, idx)
            f_ns = non_skeleton_solve(inst, skel, ids, rng)
            assert not f_ns & skel.edges
            assert f_ns <= frag
            f_s = skeleton_solve(inst, skel, ids, (seed, "check-skel", level, idx))
            assert f_s <= skel.edges
    # statistical: mean over seeds of full runs against brute-force optimum
    for tree_seed in range(10):
        n = 8 + tree_seed % 9  # up to 16
        inst = random_instance(9000 + tree_seed, n, 3 + tree_seed % 7, "linear")
        opt = brute_force(inst).revenue
        probe = sublog(inst, 0)
        levels = probe.diagnostics["num_levels"]
        bound = opt / (128 * (levels + 1))
        samples = [sublog(inst, s).revenue for s in range(200)]
        mean, se = _mean_and_se(samples)
        assert float(mean) >= float(bound) - 3 * se, (
            f"sublog mean {float(mean):.4f} below {float(bound):.4f} - 3se"
        )
    report("9", True, "structural constraints hold; mean within 3 SE of OPT/(128(l+1))")


def _formulas_up_to(num_vars: int, max_clauses: int):
    lits = [(v, n) for v in range(num_vars) for n in (False, True)]
    pairs = [(a, b) for i, a in enumerate(lits) for b in lits[i + 1 :]]
    for m in range(1, max_clauses + 1):
        for combo in combinations_with_replacement(pairs, m):
            occ = [0] * num_vars
            for (v1, _), (v2, _) in combo:
                for v in {v1, v2}:
                    occ[v] += 1
            if all(o <= 3 for o in occ):
                yield Formula2CNF(num_vars, combo)


def test_criterion_10a_star_reduction_soundness():
    checked = 0
    for num_vars in (1, 2, 3):
        for phi in _formulas_up_to(num_vars, 4):
            inst, target = gen_star_from_2sat(phi)
            opt = brute_force(inst).revenue
            expected = target(max2sat_optimum(phi))
            assert opt == expected, f"star mismatch for {phi}"
            checked += 1
    report("10a", True, f"star optimum == 9n + 5m + 3y* on all {checked} formulas")
    assert checked > 2500


def test_criterion_10b_path_reduction_soundness():
    """Known-red: the path gadget admits a 21M two-cut pattern, so the
    instance optimum exceeds 42Mn + y*. Kept faithful to the stated
    criterion; see the decisions ledger for the full analysis."""
    phi = Formula2CNF(1, (((0, False), (0, True)),))
    inst, target = gen_path_from_2sat(phi, 2)
    opt = brute_force(inst).revenue
    ystar = max2sat_optimum(phi)
    expected = target(ystar)  # 42 * 2 * 1 + 1 = 85
    ok = opt == expected
    report(
        "10b",
        ok,
        f"path reduction optimum {opt} vs target {expected} "
        "(gadget admits a 21M two-cut pattern; construction defect)",
    )
    assert opt == expected


def test_criterion_11_determinism():
    inst = random_instance(77, 13, 9, "affine")
    for solver in (single_density, simplified_single_density, sublog):
        a = solution_to_json(solver(inst, 12345))
        b = solution_to_json(solver(inst, 12345))
        assert a == b
    # bench byte-determinism
    import tempfile
    from pathlib import Path

    from fza import GenSpec, gen_random
    from fza.bench import BenchConfig, run_bench
    from fza.files import write_instance

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        files = []
        for seed in range(2):
            p = tmp_path / f"i{seed}.json"
            write_instance(gen_random(GenSpec("random-tree", 9, 6, seed=seed)), p)
            files.append(str(p))
        config = BenchConfig(
            instances=tuple(files),
            algorithms=("brute", "single-density", "sublog"),
            seeds=(3, 4),
        )
        run_bench(config, tmp_path / "a")
        run_bench(config, tmp_path / "b")
        assert (tmp_path / "a/report.csv").read_bytes() == (
            tmp_path / "b/report.csv"
        ).read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (
            tmp_path / "b/summary.json"
        ).read_bytes()
    report("11", True, "byte-identical results and bench reports across reruns")
