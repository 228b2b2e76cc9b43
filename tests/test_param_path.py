import hashlib
from fractions import Fraction
from math import prod

import pytest

from fza import (
    CapacityError,
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    dp_congestion,
    dp_pmax,
    dp_umax,
    normalize,
    parameters,
)
from fza import param_path
from fza.cli import main
from fza.files import write_instance
from fza.generators import pricing_preset
from fza.rng import substream
from conftest import bounded_path_instance, pairwise_sweep, path_edges, small_path_family


def make(tree, pricing, commodities):
    return normalize(Instance.create(tree, pricing, commodities))


class TestGuards:
    def test_non_path_rejected(self):
        t = Tree(4, ((0, 1), (0, 2), (0, 3)))
        # a star of 60 vertices holds 60^(2 + 2) > 10^7 dp_umax states, and
        # a path of 22 vertices with a leaf off vertex 1 holds a 2^21 window
        big_star = Tree(60, tuple((0, v) for v in range(1, 60)))
        broom = Tree(23, tuple((v, v + 1) for v in range(21)) + ((1, 22),))
        instances = [
            make(t, PricingFunction.linear(4), []),
            make(big_star, PricingFunction.linear(60), [Commodity(1, 2, 2, Fraction(1))]),
            make(broom, PricingFunction.linear(23), [Commodity(0, 21, 4, Fraction(1))]),
        ]
        for inst in instances:
            for solver in (dp_umax, dp_pmax, dp_congestion):
                with pytest.raises(InvalidInstanceError):
                    solver(inst)

    # each guard trips on an instance just beyond its fixed limit and must
    # refuse before the sweep makes a single transition, and before the
    # sweep is built (dp_umax, dp_pmax) or the gain table read (dp_congestion)
    def test_umax_budget_guard(self, monkeypatch):
        t = Tree(30, tuple((i, i + 1) for i in range(29)))
        inst = make(t, PricingFunction.linear(30), [Commodity(0, 5, 3, Fraction(1))])
        monkeypatch.setattr(param_path, "_update", _no_transition)
        monkeypatch.setattr(param_path._Sweep, "__init__", _no_sweep)
        with pytest.raises(CapacityError, match=r"30\^5 > 10000000"):
            dp_umax(inst)

    def test_pmax_budget_guard(self, monkeypatch):
        t = Tree(23, tuple((i, i + 1) for i in range(22)))
        inst = make(t, PricingFunction.linear(23), [Commodity(0, 22, 1, Fraction(1))])
        monkeypatch.setattr(param_path, "_update", _no_transition)
        monkeypatch.setattr(param_path._Sweep, "__init__", _no_sweep)
        with pytest.raises(CapacityError, match=r"2\^22 > 1048576"):
            dp_pmax(inst)

    def test_congestion_budget_guard(self, monkeypatch):
        t = Tree(11, tuple((i, i + 1) for i in range(10)))
        comms = [Commodity(0, v, 3, Fraction(1)) for v in range(3, 11)]
        inst = make(t, PricingFunction.linear(11), comms)
        monkeypatch.setattr(param_path, "_update", _no_transition)
        with pytest.raises(CapacityError, match="would hold up to 1679616 states > 1000000"):
            dp_congestion(inst)
        assert "gains" not in inst.__dict__

    def test_congestion_budget_is_inclusive(self, monkeypatch):
        # two commodities over the whole path: slack product (1 + 3) * (2 + 3)
        # = 20 at every position, solved at a budget of 20, refused at 19
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(0, 3, 1, Fraction(2)), Commodity(0, 3, 2, Fraction(1))])
        monkeypatch.setattr(param_path, "TABLE_BUDGET", 20)
        assert dp_congestion(inst).revenue == brute_force(inst).revenue
        monkeypatch.setattr(param_path, "TABLE_BUDGET", 19)
        with pytest.raises(CapacityError, match="would hold up to 20 states > 19"):
            dp_congestion(inst)

    def test_congestion_guard_caps_its_product(self, tmp_path, capsys, monkeypatch):
        # 5,000 commodities through the middle edge of a 100-vertex path: the
        # exact slack product there has over 4,300 digits, more than Python
        # turns into a string, so the refusal names the cap instead
        n = 100
        t = Tree(n, tuple((i, i + 1) for i in range(n - 1)))
        comms = [
            Commodity(a, b, u, Fraction(1))
            for a in range(50)
            for b in range(50, n)
            for u in (b - a, (b - a) // 2)
        ]
        inst = make(t, PricingFunction.linear(n), comms)
        monkeypatch.setattr(param_path, "_update", _no_transition)
        message = f"slack table would hold at least {param_path.SLACK_CAP} states > 1000000"
        with pytest.raises(CapacityError) as exc:
            dp_congestion(inst)
        assert str(exc.value) == message and "gains" not in inst.__dict__
        assert parameters(inst).congestion == inst.num_commodities == 5000
        assert prod(c.budget + 3 for c in inst.commodities) > 10**4300
        write_instance(inst, tmp_path / "wide.json")
        assert main(["solve", "--algo", "dp-cong", "--input", str(tmp_path / "wide.json")]) == 3
        assert capsys.readouterr().err == f"capacity error: {message}\n"


def _no_transition(*args):
    raise AssertionError("the DP sweep started")


def _no_sweep(*args):
    raise AssertionError("the DP sweep was built")


class TestSmallCases:
    def test_single_cut_spanning_commodity(self):
        t = Tree(5, tuple((i, i + 1) for i in range(4)))
        inst = make(t, PricingFunction.linear(5), [Commodity(0, 4, 1, Fraction(3))])
        for solver in (dp_umax, dp_pmax, dp_congestion):
            res = solver(inst)
            assert res.revenue == 3 and len(res.cuts) == 1

    def test_unit_paths_decide_per_edge(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        comms = [
            Commodity(0, 1, 1, Fraction(2)),
            Commodity(1, 2, 0, Fraction(5)),
            Commodity(2, 3, 1, Fraction(1)),
        ]
        inst = make(t, PricingFunction.affine(4), comms)
        res = dp_pmax(inst)
        # cutting edges 0 and 2 serves everyone at f(1), keeps f(0) for the middle
        assert res.revenue == 2 * 2 + 5 * 1 + 1 * 2

    def test_congestion_one_decouples(self):
        t = Tree(7, tuple((i, i + 1) for i in range(6)))
        comms = [
            Commodity(0, 2, 1, Fraction(2)),
            Commodity(3, 5, 2, Fraction(3)),
        ]
        inst = make(t, PricingFunction.linear(7), comms)
        res = dp_congestion(inst)
        expected = 2 * 1 + 3 * 2  # each commodity exhausts its budget alone
        assert res.revenue == expected

    def test_empty_instance(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [])
        for solver in (dp_umax, dp_pmax, dp_congestion):
            res = solver(inst)
            assert res.revenue == 0 and res.cuts == ()


class TestExactness:
    def test_matches_brute_force(self):
        for seed in range(40):
            inst = bounded_path_instance(seed)
            opt = brute_force(inst).revenue
            assert dp_umax(inst).revenue == opt
            assert dp_pmax(inst).revenue == opt
            assert dp_congestion(inst).revenue == opt

    def test_umax_double_dropout_regression(self):
        # a commodity at the maximum budget with budget+2 cuts on its path:
        # the drop-out penalty must be charged exactly once
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        comms = [
            Commodity(0, 3, 1, Fraction(5)),
            Commodity(0, 1, 1, Fraction(10)),
            Commodity(1, 2, 1, Fraction(10)),
            Commodity(2, 3, 1, Fraction(10)),
        ]
        inst = make(t, PricingFunction.linear(4), comms)
        assert brute_force(inst).revenue == 30
        assert dp_umax(inst).revenue == 30

    def test_slack_bookkeeping(self):
        # replaying the returned cut set reproduces per-commodity counts
        for seed in range(10):
            inst = bounded_path_instance(200 + seed)
            res = dp_congestion(inst)
            for i in range(inst.num_commodities):
                count = len(set(res.cuts) & path_edges(inst, i))
                assert res.served[i] == (count <= inst.commodities[i].budget)

    def test_dropout_nets_to_zero(self):
        # a dropped commodity contributes exactly zero along the trajectory
        t = Tree(3, ((0, 1), (1, 2)))
        comms = [
            Commodity(0, 2, 0, Fraction(7)),
            Commodity(0, 1, 1, Fraction(100)),
            Commodity(1, 2, 1, Fraction(100)),
        ]
        inst = make(t, PricingFunction.linear(3), comms)
        for solver in (dp_umax, dp_pmax, dp_congestion):
            assert solver(inst).revenue == 200

    def test_congestion_tie_prefers_no_cut_then_smaller_state(self):
        # two transitions reach one dp_congestion state with equal value, and
        # the tie rule decides which optimal cut set comes back
        t = Tree(11, tuple((i, i + 1) for i in range(10)))
        comms = [
            Commodity(s, e, u, Fraction(1))
            for s, e, u in ((0, 8, 2), (1, 8, 5), (1, 9, 4), (6, 7, 0), (8, 10, 1))
        ]
        inst = make(t, PricingFunction.affine(11), comms)
        res = dp_congestion(inst)
        assert res.cuts == (1, 2, 8) and res.revenue == 13
        assert brute_force(inst).revenue == 13

    def test_umax_tie_prefers_smaller_state(self):
        # edge 0 carries no commodity, so cutting it or not ties; the windows
        # (0, 2) and (1, 2) differ only there and both reach (2, 3) when edge
        # 2 is cut, where the smaller predecessor (edge 0 uncut) wins
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        comms = [Commodity(1, 2, 1, Fraction(1)), Commodity(2, 3, 1, Fraction(2))]
        inst = make(t, PricingFunction.linear(4), comms)
        res = dp_umax(inst)
        assert res.cuts == (1, 2) and res.revenue == 3
        assert brute_force(inst).revenue == 3

    def test_pmax_tie_prefers_smaller_state(self):
        # with p_max = 1 the masks 0 and 1 (edge 0 uncut / cut, a free choice)
        # both reach mask 1 when edge 1 is cut, where the smaller wins
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(t, PricingFunction.affine(3), [Commodity(1, 2, 1, Fraction(1))])
        res = dp_pmax(inst)
        assert res.cuts == (1,) and res.revenue == 2
        assert brute_force(inst).revenue == 2

    def test_cut_sets_pinned(self):
        # revenues alone miss a changed tie-break; this digest of every
        # (cuts, served) pair pins the fixed tie rule of all three DPs
        h = hashlib.sha256()
        for seed in range(100):
            inst = bounded_path_instance(seed)
            for solver in (dp_umax, dp_pmax, dp_congestion):
                res = solver(inst)
                h.update(repr((res.cuts, res.served)).encode())
        assert h.hexdigest() == "e69f0579c6c4970b881e2509cb186c1af504b03efc115b3f331f9c89e0ecfbab"

    def test_small_paths_exhaustive(self):
        # every instance of a small enumerated family: each DP earns brute
        # force's revenue, and one digest per DP over its (cuts, served)
        # pairs, recorded before the DPs dropped dominated states, pins the
        # tie rule each one returns
        digests = {solver: hashlib.sha256() for solver in (dp_umax, dp_pmax, dp_congestion)}
        count = 0
        for inst in small_path_family():
            opt = brute_force(inst).revenue
            for solver, h in digests.items():
                res = solver(inst)
                assert res.revenue == opt, (solver.__name__, inst)
                h.update(repr((res.cuts, res.served)).encode())
            count += 1
        assert count == 7749
        assert {solver.__name__: h.hexdigest() for solver, h in digests.items()} == {
            "dp_umax": "c347f5224fdf79bfae8f3e1db8b0e2a5323c213a65bcde80708185736fca703e",
            "dp_pmax": "5beafd3886f37e95c84387dbd325d798f490096a5618501c7e288ebd9941d590",
            "dp_congestion": "d3641762f4d3434a235afa7bacd2b25e1fa6fb8d5ae85a150dadf0d798b4b55e",
        }


def test_tables_stay_within_the_readable_window(monkeypatch):
    # 150 short commodities on a 200-vertex path with u_max = 1 and p_max = 4:
    # without dropping dominated states dp_umax holds about p^2/2 windows at
    # position p (19,702 at the widest merge); with it, a table holds no more
    # states than the cuts a later commodity can still read tell apart
    rng = substream(0, "state-bound")
    n = 200
    tree = Tree(n, tuple((v, v + 1) for v in range(n - 1)))
    comms = []
    for _ in range(150):
        a = rng.randrange(n - 1)
        b = a + rng.randint(1, min(4, n - 1 - a))
        comms.append(Commodity(a, b, rng.randint(0, 1), Fraction(rng.randint(1, 7), 3)))
    inst = make(tree, PricingFunction.affine(n), comms)
    params = parameters(inst)
    assert (params.u_max, params.p_max) == (1, 4)
    widest = 0
    update = param_path._update

    def recording(table, keys, *rest):
        nonlocal widest
        widest = max(widest, len(keys))
        update(table, keys, *rest)

    monkeypatch.setattr(param_path, "_update", recording)
    assert dp_umax(inst).revenue == dp_pmax(inst).revenue
    assert widest <= 64


def tie_heavy_path(seed: int) -> Instance:
    """A random path on 2..20 vertices under any pricing preset, with up to
    six commodities of length at most 6, budgets 0..3 (lower on longer
    paths, so dp_umax's windows stay few) and mostly unit or double weights,
    so that many moves tie."""
    rng = substream(seed, "tie-heavy-path")
    n = rng.randint(2, 20)
    labels = list(range(n))
    rng.shuffle(labels)
    tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
    pricing = pricing_preset(rng.choice(("linear", "affine", "capped")), n)
    top = 3 if n <= 9 else 2 if n <= 12 else 1
    comms = []
    for _ in range(rng.randint(0, 6)):
        a = rng.randrange(n - 1)
        b = a + rng.randint(1, min(6, n - 1 - a))
        w = Fraction(rng.randint(1, 2)) if rng.random() < 0.9 else Fraction(rng.randint(1, 5), 3)
        comms.append(Commodity(labels[a], labels[b], rng.randint(0, top), w))
    return make(tree, pricing, comms)


def test_sweep_matches_pairwise_reference(monkeypatch):
    # the two ordered passes keep the pairwise (cut, predecessor) tie rule,
    # each DP's gain cache changes no move's value, and dropping dominated
    # states changes no cut set: the reference keeps every reachable state
    pruned = {dp_umax: set(), dp_pmax: set()}
    drop = param_path._drop_dominated

    def recording(table, keys):
        kept = drop(table, keys)
        if len(kept) < len(table):
            pruned[solver].add(seed)
        return kept

    monkeypatch.setattr(param_path, "_drop_dominated", recording)
    for seed in range(1000):
        inst = tie_heavy_path(seed)
        for solver in (dp_umax, dp_pmax, dp_congestion):
            res, ref = solver(inst), pairwise_sweep(solver, inst)
            assert (res.cuts, res.served, res.revenue) == (ref.cuts, ref.served, ref.revenue), (seed, solver)
    # the comparison means something only where a state was dropped
    assert all(pruned.values()), {solver.__name__: len(seeds) for solver, seeds in pruned.items()}


def test_sweep_future_matches_its_definition():
    # `_Sweep` reads covering, start and future off each commodity's end
    # places; here covering is recounted off the path masks, and start and
    # future come from it instead: start[i] is the first position holding
    # i, future[p] the lowest start among the commodities on any position
    # after p (m + 1 if none)
    tails = reaching_end = 0
    for seed in range(300):
        rng = substream(seed, "sweep-future")
        n = rng.randint(2, 24)
        labels = list(range(n))
        rng.shuffle(labels)
        tree = Tree(n, tuple((labels[i], labels[i + 1]) for i in range(n - 1)))
        # commodities stay left of `reach`, so positions past every commodity
        # occur, and about a third end at `reach`, the last vertex when
        # reach = n - 1
        reach = rng.randint(1, n - 1)
        comms = []
        for _ in range(rng.randint(0, 8)):
            a = rng.randrange(reach)
            b = reach if rng.random() < 0.3 else rng.randint(a + 1, reach)
            pair = (labels[a], labels[b]) if rng.random() < 0.5 else (labels[b], labels[a])
            comms.append(Commodity(*pair, rng.randint(0, 2), Fraction(1)))
        inst = make(tree, PricingFunction.linear(n), comms)
        sweep = param_path._Sweep(inst)
        m, covering, edge_ids = sweep.m, sweep.covering, sweep.edge_ids
        for p in range(1, m + 1):
            assert covering[p] == [i for i, mask in enumerate(inst.paths) if mask >> edge_ids[p - 1] & 1], seed
        start = {}
        for p in range(1, m + 1):
            for i in covering[p]:
                start.setdefault(i, p)
        assert sweep.start == [start[i] for i in range(len(sweep.instance.commodities))], seed
        future = [
            min((start[i] for q in range(p + 1, m + 1) for i in covering[q]), default=m + 1)
            for p in range(m + 1)
        ]
        assert sweep.future == future, seed
        tails += bool(comms) and reach < m
        reaching_end += any(covering[m])
    assert tails >= 50 and reaching_end >= 50, (tails, reaching_end)
