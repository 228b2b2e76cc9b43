import contextlib
import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from fza import (
    CapacityError,
    Commodity,
    Formula2CNF,
    GeneralizedCommodity,
    GeneralizedPathInstance,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    dp_congestion,
    dp_pmax,
    dp_umax,
    gen_rooted_path,
    gen_star_from_2sat,
    generalized_rooted_path_dp,
    normalize,
    parameters,
    rooted_dp,
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
    total_revenue,
)
from fza.density import ceil_log2
from fza.exact import MAX_BRUTE_EDGES
from fza.generators import pricing_preset
from fza.model import make_result
from fza.rng import substream
from fza.sublog import sublog
from conftest import (
    bounded_path_instance,
    congestion_optimum,
    gray_code_optimum,
    random_gpi,
    random_instance,
    resolve_path,
    shaped_tree,
    small_tree_family,
)


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


BUDGET_MODES = ("zero", "one", "at-most-two", "quarter", "random", "n-1")


def oracle_case(index: int) -> Instance:
    """A random tree, path or star of 2-15 vertices; the pricing preset, the
    budget mode and integer or fractional weights cycle with `index`, and
    every 45th case has no commodities."""
    rng = substream(1501, "brute-oracle-case", index)
    n = rng.randint(2, 15)
    tree = shaped_tree(rng, n, ("tree", "path", "star")[index % 3])
    mode = BUDGET_MODES[index // 9 % len(BUDGET_MODES)]
    fractional = index // 54 % 2 == 1
    commodities = []
    for _ in range(0 if index % 45 == 0 else rng.randint(1, 3 * n)):
        s, t = rng.sample(range(n), 2)
        budget = {
            "zero": 0,
            "one": 1,
            "at-most-two": rng.randint(0, 2),
            "quarter": n // 4,
            "random": rng.randint(0, n - 1),
            "n-1": n - 1,
        }[mode]
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 6) if fractional else 1)
        commodities.append(Commodity(s, t, budget, weight))
    table = pricing_preset(("linear", "affine", "capped")[index // 3 % 3], n)
    return normalize(Instance.create(tree, table, commodities))


def random_formula(rng, num_vars: int) -> Formula2CNF:
    """A random 2-CNF formula with each variable in at most three clauses."""
    occurrences = [0] * num_vars
    clauses = []
    for _ in range(rng.randint(1, 3 * num_vars // 2 + 1)):
        free = [v for v in range(num_vars) if occurrences[v] < 3]
        if len(free) < 2:
            break
        a, b = rng.sample(free, 2)
        occurrences[a] += 1
        occurrences[b] += 1
        clauses.append(((a, rng.random() < 0.5), (b, rng.random() < 0.5)))
    return Formula2CNF(num_vars, tuple(clauses))


class TestBruteForceSearch:
    """The branch and bound against the plain enumeration of all 2^m cut sets."""

    def check(self, inst: Instance) -> None:
        res = brute_force(inst)
        ref = make_result(inst, gray_code_optimum(inst), "brute")
        assert (res.cuts, res.served, res.revenue) == (ref.cuts, ref.served, ref.revenue)

    def test_matches_gray_code_enumeration(self):
        for index in range(540):
            self.check(oracle_case(index))

    def test_matches_on_star_2sat_reductions(self):
        rng = substream(1502, "brute-star-2sat")
        for trial in range(40):
            inst, _ = gen_star_from_2sat(random_formula(rng, 1 + trial % 7))
            self.check(inst)

    def test_no_commodities_at_the_edge_limit(self):
        tree = Tree(MAX_BRUTE_EDGES + 1, tuple((v, v + 1) for v in range(MAX_BRUTE_EDGES)))
        res = brute_force(make(tree, PricingFunction.linear(MAX_BRUTE_EDGES + 1), []))
        assert (res.cuts, res.revenue) == ((), 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_commodities_at_the_edge_limit(self, seed):
        # the path DPs solve these exactly; an unpruned search would walk 2^24 sets
        rng = substream(seed, "brute-24-edge-path")
        n = MAX_BRUTE_EDGES + 1
        commodities = []
        for _ in range(rng.randint(n, 2 * n)):
            a = rng.randrange(n - 1)
            commodities.append(
                Commodity(a, min(n - 1, a + rng.randint(1, 4)), rng.randint(0, 2), Fraction(rng.randint(1, 5)))
            )
        inst = make(Tree(n, tuple((v, v + 1) for v in range(n - 1))), PricingFunction.affine(n), commodities)
        assert brute_force(inst).revenue == dp_pmax(inst).revenue == dp_congestion(inst).revenue

    def test_refuses_one_edge_past_the_limit(self):
        tree = Tree(MAX_BRUTE_EDGES + 2, tuple((v, v + 1) for v in range(MAX_BRUTE_EDGES + 1)))
        inst = make(tree, PricingFunction.linear(MAX_BRUTE_EDGES + 2), [Commodity(0, 1, 1, Fraction(1))])
        with pytest.raises(CapacityError):
            brute_force(inst)


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
    # cuts are edge positions; a commodity holds those below its target's position
    total = Fraction(0)
    for c in gpi.commodities:
        count = sum(1 for p in cuts if p < gpi.path.index(c.target))
        if count <= c.budget:
            total += c.weight * c.price(count)
    return total


class TestGeneralizedPathDP:
    def test_zero_cuts(self):
        gpi = random_gpi(1, 6, 4)
        cuts = generalized_rooted_path_dp(gpi.integer, 0)
        assert cuts == []
        assert gpi_revenue(gpi, cuts) == sum(
            (c.weight * c.price(0) for c in gpi.commodities), Fraction(0)
        )

    def test_all_cuts(self):
        gpi = random_gpi(2, 6, 4)
        cuts = generalized_rooted_path_dp(gpi.integer, 5)
        assert cuts == list(range(5))
        assert gpi_revenue(gpi, cuts) == gpi_revenue(gpi, range(5))

    def test_out_of_range(self):
        gpi = random_gpi(3, 5, 3)
        with pytest.raises(InvalidInstanceError):
            generalized_rooted_path_dp(gpi.integer, 5)

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

    @pytest.mark.parametrize(
        "budget, weight",
        [pytest.param(-1, 1, id="negative-budget"), pytest.param(1, 0, id="zero-weight")],
    )
    def test_commodity_refuses(self, budget, weight):
        with pytest.raises(InvalidInstanceError):
            GeneralizedCommodity(2, budget, weight, PricingFunction.linear(4))

    @pytest.mark.parametrize(
        "path, target",
        [
            pytest.param((), 1, id="empty-path"),
            pytest.param((0, 1, 0), 1, id="repeated-vertex"),
            pytest.param((0, 1, 2), 0, id="target-at-root"),
            pytest.param((0, 1, 2), 5, id="target-off-path"),
        ],
    )
    def test_instance_refuses(self, path, target):
        c = GeneralizedCommodity(target, 1, Fraction(1), PricingFunction.linear(4))
        with pytest.raises(InvalidInstanceError):
            GeneralizedPathInstance(path, (c,))

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
                cuts = generalized_rooted_path_dp(gpi.integer, y)
                assert len(cuts) == y
                best = max(
                    gpi_revenue(gpi, subset)
                    for subset in combinations(range(n - 1), y)
                )
                assert gpi_revenue(gpi, cuts) == best

    def test_tie_rule_pinned(self):
        # revenue checks miss a changed tie-break; one digest over (seed, y,
        # cut positions) for every y of criterion 3's 100 instances and of
        # this class's seeds pins which optimum the DP returns. `getattr`
        # also reads the positions off a result object, so the digest can be
        # recomputed against older revisions of the DP.
        cases = [(seed, 4 + seed % 11, 2 + seed % 5) for seed in range(100)]
        cases += [(1, 6, 4), (2, 6, 4), (3, 5, 3)]
        cases += [(seed, 4 + seed % 7, 2 + seed % 4) for seed in range(20)]
        h = hashlib.sha256()
        for seed, n, k in cases:
            rows = random_gpi(seed, n, k).integer
            for y in range(n):
                res = generalized_rooted_path_dp(rows, y)
                h.update(repr((seed, y, tuple(getattr(res, "cuts", res)))).encode())
        assert h.hexdigest() == "e1cd77b4f1fb6a51f2371faf2be0b173475789be09a36c87eb089a3d558a758e"

    def test_gen_rooted_path_from_the_far_end(self):
        # rooted at the last vertex of `path_order`, the path is read backwards:
        # its vertices and its edge ids alike
        t = Tree(5, tuple((i, i + 1) for i in range(4)))
        comms = [Commodity(4, 0, 2, Fraction(3)), Commodity(4, 1, 1, Fraction(2)), Commodity(2, 4, 1, Fraction(5))]
        inst = make(t, PricingFunction.affine(5), comms)
        assert inst.tree.path_order()[0][-1] == 4
        results = [gen_rooted_path(inst, 0, root=4, cuts=y) for y in range(5)]
        assert [len(res.cuts) for res in results] == list(range(5))
        best = max(res.revenue for res in results)
        assert best == rooted_dp(inst, 4).revenue == brute_force(inst).revenue == 23

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
                gpi_revenue(gpi, generalized_rooted_path_dp(gpi.integer, y))
                for y in range(len(edge_ids) + 1)
            )
            assert best == rooted_dp(inst2, root).revenue


def test_small_trees_exhaustive():
    # every labeled tree with 2..5 vertices, one instance per commodity and
    # one with all of them (12,090): brute force returns the Gray-code
    # enumeration's optimum, `rooted_dp` from a lone commodity's source earns
    # its revenue, and one digest per solver over its cut sets, recorded
    # before any change to either, pins the optimum each one returns. Every
    # result, and those of the approximations on the 885 instances with
    # n <= 4 and every tenth of the 11,205 with n = 5 (2,005 in all), reports
    # its own cut set's revenue and served flags. Only the whole instances
    # tell brute force's tie rule from keeping the last optimum found.
    digests = {"brute": hashlib.sha256(), "rooted": hashlib.sha256()}
    count = approximated = 0
    for inst in small_tree_family():
        brute = brute_force(inst)
        assert brute.cuts == gray_code_optimum(inst), inst
        digests["brute"].update(repr(brute.cuts).encode())
        results = [brute]
        if inst.num_commodities == 1:
            rooted = rooted_dp(inst, inst.commodities[0].source)
            assert rooted.revenue == brute.revenue, inst
            digests["rooted"].update(repr(rooted.cuts).encode())
            results.append(rooted)
        if inst.tree.num_vertices <= 4 or count % 10 == 0:
            approximated += 1
            results += [
                single_density(inst, 0),
                simplified_single_density(inst, 0),
                sublog(inst, 0),
            ]
            if inst.pricing.base_revenue:
                results.append(single_density_base(inst))
        paths = [resolve_path(inst.tree, c.source, c.target) for c in inst.commodities]
        for res in results:
            assert res.revenue == total_revenue(inst, res.cuts), (res.algorithm, inst)
            served = tuple(len(p.intersection(res.cuts)) <= c.budget for p, c in zip(paths, inst.commodities))
            assert res.served == served, (res.algorithm, inst)
        count += 1
    assert (count, approximated) == (12090, 2005)
    assert {name: h.hexdigest() for name, h in digests.items()} == {
        "brute": "fb2afc4035a887db4a713fcd7bf146f15f3e52a3f25612d4db1313b4abcd7ea7",
        "rooted": "948f4a783da2d917b1d68bab99cc14f9663c3f910eb78440563bd007c071a8dd",
    }


def local_instance(seed: int, n: int, k: int, shape: str, pricing: str, max_budget: int, root=None) -> Instance:
    """A seeded tree or path whose commodities are local: each runs along at
    most 5 edges from a random vertex, with a budget of at most `max_budget`.
    With `root`, every commodity runs from the vertex `root` (or from an end
    of the path, for root="end") to a random vertex instead."""
    rng = substream(seed, "local-instance", n, k, shape, pricing, max_budget, root)
    tree = shaped_tree(rng, n, shape)
    if root == "end":
        root = tree.path_order()[0][0]
    neighbors = [[] for _ in range(n)]
    for u, v in tree.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    commodities = []
    for _ in range(k):
        if root is None:
            s = prev = rng.randrange(n)
            t = rng.choice(neighbors[s])
            for _ in range(rng.randint(0, 4)):
                onward = [w for w in neighbors[t] if w != prev]
                if not onward:
                    break
                prev, t = t, rng.choice(onward)
        else:
            s, t = root, rng.choice([v for v in range(n) if v != root])
        weight = Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3)))
        commodities.append(Commodity(s, t, rng.randint(0, max_budget), weight))
    return make(tree, pricing_preset(pricing, n), commodities)


def test_congestion_oracle_beyond_brute_force():
    # `congestion_optimum` reaches 500-vertex trees with local commodities;
    # it is checked against brute force where m <= 24 and then stands in for
    # it: every exact solver must reach its revenue wherever it runs, and no
    # approximation may beat it. Revenues only, since tie rules differ.
    cases = []
    for i in range(8):  # small enough for brute force
        cases.append((i, 12 + 2 * i, 12 + 2 * i, ("tree", "path")[i % 2], 3, None))
    for i in range(24):  # local commodities on large trees and paths
        n = (50, 120, 250, 500)[i % 4]
        cases.append((i, n, n // (1 + i % 2), ("tree", "path", "caterpillar")[i % 3], (1, 2, 3)[i % 3], None))
    for i in range(4):  # rooted trees: every commodity from one vertex
        cases.append((i, 50 + 10 * i, 5, "tree", 3, i))
    for i in range(6):  # rooted paths, within reach of one DP per cut count
        cases.append((i, 20 + 8 * i, 5, "path", 3, "end"))
    failures = []
    ran = dict.fromkeys(("brute", "rooted", "dp-umax", "dp-pmax", "dp-cong", "gen-rooted-path", "bound"), 0)
    for index, (seed, n, k, shape, max_budget, root) in enumerate(cases):
        pricing = ("linear", "affine", "capped")[index % 3]
        inst = local_instance(seed, n, k, shape, pricing, max_budget, root)
        opt = congestion_optimum(inst)
        exact = {}
        if inst.tree.num_edges <= MAX_BRUTE_EDGES:
            exact["brute"] = brute_force(inst).revenue
        if root is not None:
            far_root = inst.tree.path_order()[0][0] if root == "end" else root
            exact["rooted"] = rooted_dp(inst, far_root).revenue
            if root == "end":
                exact["gen-rooted-path"] = max(
                    gen_rooted_path(inst, 0, root=far_root, cuts=y).revenue for y in range(n)
                )
        if inst.tree.is_path:
            for name, solver in (("dp-umax", dp_umax), ("dp-pmax", dp_pmax), ("dp-cong", dp_congestion)):
                try:
                    exact[name] = solver(inst).revenue
                except CapacityError:
                    pass
        for name, revenue in exact.items():
            ran[name] += 1
            if revenue != opt:
                failures.append((name, index, revenue, opt))
        approx = {
            "single-density": single_density(inst, index),
            "simplified": simplified_single_density(inst, index),
            "sublog": sublog(inst, index),
        }
        log_factor = ceil_log2(n) + 1
        if inst.tree.is_path:
            approx["single-density-path"] = res = single_density_path(inst)
            ran["bound"] += 1
            if res.revenue * 6 * log_factor < opt:
                failures.append(("single-density-path bound", index, res.revenue, opt))
        if inst.pricing.base_revenue:
            approx["single-density-base"] = res = single_density_base(inst)
            if pricing == "affine":
                ran["bound"] += 1
                if res.revenue * 12 * log_factor < opt:
                    failures.append(("single-density-base bound", index, res.revenue, opt))
        failures.extend(
            (f"{name} above the optimum", index, res.revenue, opt)
            for name, res in approx.items()
            if res.revenue > opt
        )
    assert failures == []
    assert ran == {"brute": 8, "rooted": 10, "dp-umax": 8, "dp-pmax": 14, "dp-cong": 18, "gen-rooted-path": 6, "bound": 32}


def milp_cut_set(instance: Instance) -> list[int]:
    """The cut set of an optimal solution to a MILP (scipy's HiGHS): one
    binary per edge and, per commodity i, a one-hot choice among served with
    c cuts on its path for c = 0 .. min(u_i, |P_i|), earning w_i * f(c), and
    dropped, earning nothing with u_i + 1 .. |P_i| cuts. The MILP works in
    floats, so only the cut set is kept and its revenue is scored exactly."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    m = instance.tree.num_edges
    objective, rows = [0.0] * m, []  # rows: ({variable: coefficient}, low, high)
    for c, path in zip(instance.commodities, instance.paths):
        length, first = path.bit_count(), len(objective)
        served = min(c.budget, length) + 1
        objective += [-float(c.weight * instance.pricing(x)) for x in range(served)] + [0.0]
        dropped = first + served
        rows.append((dict.fromkeys(range(first, dropped + 1), 1), 1, 1))
        # the cuts on the path, less the count of the chosen served state
        counted = {**{e: 1 for e in range(m) if path >> e & 1}, **{first + x: -x for x in range(served)}}
        rows.append(({**counted, dropped: -(c.budget + 1)}, 0, np.inf))
        rows.append(({**counted, dropped: -length}, -np.inf, 0))
    matrix = np.zeros((len(rows), len(objective)))
    for r, (coefficients, _, _) in enumerate(rows):
        for v, a in coefficients.items():
            matrix[r, v] = a
    constraint = optimize.LinearConstraint(matrix, [low for _, low, _ in rows], [high for _, _, high in rows])
    res = optimize.milp(
        np.array(objective), constraints=constraint, integrality=np.ones(len(objective)),
        bounds=optimize.Bounds(0, 1), options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    return [e for e in range(m) if res.x[e] > 0.5]


def test_milp_never_beats_an_exact_solver():
    # one-sided: the MILP's cut set, scored by `total_revenue`, is a revenue
    # some cut set earns, so an exact solver that earns less has lost revenue;
    # a MILP short of the optimum would only weaken the check, and on the
    # instances brute force solves it reaches the optimum
    cases = []
    for seed in range(24):  # brute force: trees and paths on 8-21 vertices
        n = 8 + seed % 14
        pricing = ("linear", "affine", "capped")[seed % 3]
        cases.append(random_instance(seed, n, n, pricing, ("tree", "path")[seed % 2], max_budget=3))
    for seed in range(6):  # rooted_dp: every commodity from vertex 0
        cases.append(random_instance(seed, 12 + 4 * seed, 8, "affine", "tree", root_commodities=True))
    cases += [bounded_path_instance(seed) for seed in range(10)]  # the path DPs, inside their guards
    for i in range(6):  # congestion_optimum beyond brute force's reach
        n = (30, 40, 60)[i % 3]
        shape, pricing = ("tree", "path", "caterpillar")[i % 3], ("linear", "affine", "capped")[i % 3]
        cases.append(local_instance(i, n, n // 2, shape, pricing, 3))
    ran = dict.fromkeys(("brute", "rooted", "dp-umax", "dp-pmax", "dp-cong", "congestion"), 0)
    for index, inst in enumerate(cases):
        milp = total_revenue(inst, milp_cut_set(inst))
        exact = {}
        if inst.tree.num_edges <= MAX_BRUTE_EDGES:
            exact["brute"] = brute_force(inst).revenue
            assert milp == exact["brute"], index
        else:
            exact["congestion"] = congestion_optimum(inst)
        if all(0 in (c.source, c.target) for c in inst.commodities):
            exact["rooted"] = rooted_dp(inst, 0).revenue
        # short commodities only: dp_pmax's tables double with each edge of |P|_max
        if inst.tree.is_path and parameters(inst).p_max <= 8:
            for name, solver in (("dp-umax", dp_umax), ("dp-pmax", dp_pmax), ("dp-cong", dp_congestion)):
                with contextlib.suppress(CapacityError):
                    exact[name] = solver(inst).revenue
        for name, revenue in exact.items():
            ran[name] += 1
            assert milp <= revenue, (name, index, milp, revenue)
    assert ran == {"brute": 38, "rooted": 11, "dp-umax": 14, "dp-pmax": 16, "dp-cong": 15, "congestion": 8}
