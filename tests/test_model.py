import ast
import re
import tracemalloc
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import fza.model

from fza import (
    CapacityError,
    Commodity,
    GenSpec,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    Tree,
    brute_force,
    dp_pmax,
    gen_random,
    normalize,
    parameters,
    single_density,
    single_density_base,
    total_revenue,
)
from fza.model import MAX_VERTICES, edge_mask, first_best, make_result, revenue_for, to_fraction, total_revenue_mask
from fza.sublog import build_decomposition, sublog
from fza.files import instance_to_dict, read_instance, write_instance
from conftest import (
    bfs_rooting,
    fig1_instance,
    fraction_pricing_error,
    offset_candidates,
    path_edges,
    random_instance,
    reference_normalize,
    reference_walk,
    resolve_path,
    revenue_of_commodity,
    seeded_density_candidates,
    shaped_tree,
)


def make(tree, pricing, commodities):
    return normalize(Instance.create(tree, pricing, commodities))


class TestTree:
    def test_instance_refuses_a_tree_over_the_vertex_cap(self):
        # refused before the root-path table, and before the pricing table's
        # length is read: this one is far too short for the tree
        tree = Tree(MAX_VERTICES + 1, tuple((v, v + 1) for v in range(MAX_VERTICES)))
        with pytest.raises(CapacityError, match=f"instance limited to {MAX_VERTICES} vertices, got {MAX_VERTICES + 1}"):
            Instance.create(tree, PricingFunction.linear(2), [])

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

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, ((0, 1.7), (1, 2))),
            (3, ((0, 1), (1.0, 2))),
            (2, ((False, True),)),
            (2.0, ((0, 1),)),
            (True, ()),
        ],
    )
    def test_refuses_non_int_vertices(self, n, edges):
        # a float or bool is refused, not truncated to an int vertex
        with pytest.raises(InvalidInstanceError, match="must be an integer"):
            Tree(n, edges)

    def test_path_order(self):
        t = Tree(4, ((2, 3), (0, 1), (1, 2)))
        verts, eids = t.path_order()
        assert verts == [0, 1, 2, 3]
        assert eids == [1, 2, 0]


class TestInstance:
    PATH = Tree(3, ((0, 1), (1, 2)))

    def test_fields_are_the_inputs(self):
        assert [f.name for f in fields(Instance)] == ["tree", "pricing", "commodities"]
        assert isinstance(Instance.__dict__["paths"], cached_property)
        assert isinstance(Instance.__dict__["create"], classmethod)

    def test_create_keeps_every_commodity_of_a_generator(self):
        inst = Instance.create(self.PATH, PricingFunction.linear(3), (Commodity(0, 2, 1, 1) for _ in range(2)))
        assert inst.num_commodities == 2 and len(inst.paths) == 2
        assert inst == Instance(self.PATH, PricingFunction.linear(3), (Commodity(0, 2, 1, 1),) * 2)
        assert normalize(inst).commodities == (Commodity(0, 2, 1, 2),)

    def test_constructor_refuses_an_over_cap_tree(self):
        # refused before the pricing table's length is read: this one is far too short
        tree = Tree(MAX_VERTICES + 1, tuple((v, v + 1) for v in range(MAX_VERTICES)))
        with pytest.raises(CapacityError, match=f"instance limited to {MAX_VERTICES} vertices, got {MAX_VERTICES + 1}"):
            Instance(tree, PricingFunction.linear(2), ())

    def test_constructor_refuses_a_short_pricing_table_before_an_endpoint(self):
        with pytest.raises(InvalidInstanceError, match="pricing table has 2 entries, need at least 3"):
            Instance(self.PATH, PricingFunction.linear(2), (Commodity(0, 3, 1, 1),))

    @pytest.mark.parametrize("s, t", [(0, 3), (3, 0), (-1, 2), (2, -1)])
    def test_constructor_refuses_an_endpoint_out_of_range(self, s, t):
        with pytest.raises(InvalidInstanceError, match=re.escape(f"commodity endpoint out of range: ({s},{t})")):
            Instance(self.PATH, PricingFunction.linear(3), (Commodity(0, 1, 0, 1), Commodity(s, t, 1, 1)))

    def test_paths_are_built_on_first_read_and_once(self, monkeypatch):
        built = []
        derive = Instance.__dict__["paths"].func

        def counting(self):
            built.append(self)
            return derive(self)

        paths = cached_property(counting)
        paths.__set_name__(Instance, "paths")
        monkeypatch.setattr(Instance, "paths", paths)
        canonical = Instance.create(self.PATH, PricingFunction.linear(3), [Commodity(0, 2, 1, 1), Commodity(1, 2, 0, 3)])
        assert "paths" not in canonical.__dict__
        assert normalize(canonical) is canonical and built == [canonical]
        assert canonical.paths == (0b11, 0b10) and built == [canonical]
        # a changed input and its normal form each derive their own
        raw = Instance.create(self.PATH, PricingFunction.linear(3), [Commodity(2, 0, 5, 1)])
        out = normalize(raw)
        assert built[1:] == [raw]
        assert out.paths == (0b11,) and built[1:] == [raw, out]


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


SHAPES = ("tree", "path", "star")


def test_path_masks_match_resolve_path():
    # `Instance.paths` reads each mask off the rooting at vertex 0;
    # `resolve_path` walks up from t to s on the tree rooted at s
    rng = Random(1301)
    for trial in range(90):
        n = rng.randint(2, 200) if trial % 3 else rng.randint(2, 6)
        tree = shaped_tree(rng, n, SHAPES[trial % 3])
        leaves = [v for v in range(n) if len(tree.adjacency[v]) == 1]
        ends = [0, *rng.sample(leaves, min(3, len(leaves)))]
        pairs = [(s, t) for s in ends for t in ends if s != t]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(20)]
        inst = Instance.create(tree, PricingFunction.linear(n), [Commodity(s, t, 0, Fraction(1)) for s, t in pairs])
        for (s, t), mask in zip(pairs, inst.paths):
            assert mask == edge_mask(resolve_path(tree, s, t)), (trial, s, t)


class TestWalk:
    @staticmethod
    def check_walk(tree, root, edges=None):
        """The walk from `root` over `edges` reaches each vertex of the
        component holding `root` once, a parent before its child, and pushes
        a vertex's children together, ascending by (neighbor, edge id)."""
        order, up = tree.walk(root, edges)
        allowed = set(range(tree.num_edges) if edges is None else edges)
        component = {root}
        while True:
            grown = component | {v for e in allowed if component & set(tree.edges[e]) for v in tree.edges[e]}
            if grown == component:
                break
            component = grown
        assert len(order) == len(set(order)) and set(order) == set(up) == component
        assert order[0] == root and up[root] == (-1, -1)
        position = {v: i for i, v in enumerate(order)}
        children: dict[int, list[tuple[int, int]]] = {}
        for v in order[1:]:
            p, eid = up[v]
            assert eid in allowed and set(tree.edges[eid]) == {p, v}
            assert position[p] < position[v]
            children.setdefault(p, []).append((v, eid))
        for kids in children.values():
            spots = [position[v] for v, _ in kids]
            assert kids == sorted(kids) and spots == list(range(spots[0], spots[0] + len(kids)))
        return order

    def test_rooted_matches_bfs_reference(self):
        rng = Random(1302)
        for trial in range(45):
            n = rng.randint(1, 120)
            tree = shaped_tree(rng, n, SHAPES[trial % 3])
            leaves = [v for v in range(n) if len(tree.adjacency[v]) == 1]
            for root in {0, n - 1, rng.randrange(n), *leaves[:2]}:
                parent, parent_edge, depth, order = tree.rooted(root)
                assert (parent, parent_edge, depth) == bfs_rooting(tree, root)
                assert order == self.check_walk(tree, root)

    def test_walks_over_decomposition_fragments(self):
        rng = Random(1303)
        for trial in range(30):
            tree = shaped_tree(rng, rng.randint(2, 80), SHAPES[trial % 3])
            for level in build_decomposition(tree, d=2 + trial % 3).levels:
                for fragment in level:
                    vertices = sorted({v for e in fragment for v in tree.edges[e]})
                    for root in {vertices[0], rng.choice(vertices)}:
                        self.check_walk(tree, root, fragment)

    def test_edge_set_walk_matches_reference(self):
        # the walk reads `Tree.adjacency` and, at a vertex of more neighbors
        # than the set has edges, the set itself; both must give the order
        # of a walk over an adjacency built from the set alone
        rng = Random(2111)
        for trial in range(60):
            shape = ("tree", "star", "broom")[trial % 3]
            tree = shaped_tree(rng, rng.randint(2, 150), shape)
            m = tree.num_edges
            for _ in range(4):
                # a random connected edge set: grow from one edge along the tree
                start = rng.randrange(m)
                chosen, frontier = {start}, set(tree.edges[start])
                for _ in range(rng.randint(0, m - 1)):
                    nxt = [e for v in frontier for _, e in tree.adjacency[v] if e not in chosen]
                    if not nxt:
                        break
                    e = rng.choice(nxt)
                    chosen.add(e)
                    frontier.update(tree.edges[e])
                inside = sorted(frontier)
                outside = [v for v in range(tree.num_vertices) if v not in frontier]
                roots = {inside[0], rng.choice(inside), max(inside, key=lambda v: len(tree.adjacency[v]))}
                if outside:
                    roots.add(rng.choice(outside))
                for root in roots:
                    want = reference_walk(tree, root, chosen)
                    edge_ids = sorted(chosen)
                    rng.shuffle(edge_ids)
                    for edges in (chosen, frozenset(chosen), tuple(edge_ids), edge_ids, (e for e in edge_ids)):
                        assert tree.walk(root, edges) == want, (trial, shape, root)
                    assert tree.walk(root, ()) == ([root], {root: (-1, -1)})

    def test_hub_walks_match_reference(self):
        # fragments made of hubs: a caterpillar's spine (99 edges, 100 leaves
        # on each spine vertex), a star and a broom, walked at every level of
        # their decompositions from the fragment's lowest and busiest vertex
        spine = [(v, v + 1) for v in range(99)]
        leaves = [(v, 100 + 100 * v + j) for v in range(100) for j in range(100)]
        caterpillar = Tree(10100, tuple(spine + leaves))
        star = Tree(400, tuple((0, v) for v in range(1, 400)))
        broom = Tree(400, tuple([(v, v + 1) for v in range(40)] + [(40, v) for v in range(41, 400)]))
        assert caterpillar.walk(0, range(99)) == reference_walk(caterpillar, 0, range(99))
        for tree in (caterpillar, star, broom):
            for level in build_decomposition(tree).levels:
                for fragment in level:
                    vertices = {v for e in fragment for v in tree.edges[e]}
                    busiest = max(vertices, key=lambda v: (len(tree.adjacency[v]), v))
                    for root in {min(vertices), busiest}:
                        assert tree.walk(root, fragment) == reference_walk(tree, root, fragment)

    def test_edge_set_away_from_root(self):
        tree = Tree(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        assert tree.walk(0, {2, 3}) == ([0], {0: (-1, -1)})
        assert tree.walk(4, ()) == ([4], {4: (-1, -1)})
        with pytest.raises(InvalidInstanceError, match="invalid root"):
            tree.walk(5)


@pytest.mark.parametrize("text", ["1e3", "1E-2", "-2.5e1", "1/1e2"])
def test_to_fraction_refuses_exponents(text):
    with pytest.raises(InvalidInstanceError, match="exponent"):
        to_fraction(text)


def test_to_fraction_reads_plain_forms():
    assert [to_fraction(t) for t in ("7", "-7/3", " 2.5 ", "+1/2")] == [7, Fraction(-7, 3), Fraction(5, 2), Fraction(1, 2)]


def test_to_fraction_matches_fraction_on_documented_forms():
    rng = Random(1403)
    for _ in range(2000):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 12)))
        more = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 12)))
        body = rng.choice([digits, f"{digits}/{more or '7'}", f"{digits}.{more}", f".{digits}"])
        text = rng.choice(["", " ", "\t"]) + rng.choice(["", "+", "-"]) + body + rng.choice(["", " ", "\n"])
        if "/" in body and int(body.partition("/")[2]) == 0:
            with pytest.raises(InvalidInstanceError, match="not a rational"):
                to_fraction(text)
        else:
            assert to_fraction(text) == Fraction(text), text


@pytest.mark.parametrize(
    "text", ["1_000", "1/1_0", "0.5_5", "\u0661\u0662", "1/\u0662", "\uff11", "\u00a01", "1 / 2", ".", "", "+", "1.2.3", "--1"]
)
def test_to_fraction_refuses_other_forms(text):
    with pytest.raises(InvalidInstanceError, match="not a rational"):
        to_fraction(text)


class TestCommodity:
    @pytest.mark.parametrize(
        "args",
        [(0.5, 2, 1, 1), (0, 2.0, 1, 1), (True, 2, 1, 1), (0, 2, True, 1), (0, 2, 1.0, 1)],
    )
    def test_refuses_non_int_fields(self, args):
        with pytest.raises(InvalidInstanceError, match="must be an integer"):
            Commodity(*args)

    def test_int_fields_unchanged(self):
        c = Commodity(0, 2, 0, 3)
        assert (c.source, c.target, c.budget, c.weight) == (0, 2, 0, Fraction(3))


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

    def test_capped_refuses_negative_cap(self):
        with pytest.raises(InvalidInstanceError, match="cap must be non-negative"):
            PricingFunction.capped(5, -1)

    def test_integer_checks_match_fraction_checks(self):
        # the checks run on the scaled integer table; the reference compares
        # the Fraction prices themselves
        rng = Random(1404)
        tables = [[Fraction(-1, 3)], [Fraction(2, 3)], [1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)], [0, 1, 3], [0, 1, 1, 1]]
        for _ in range(600):
            value, step = Fraction(rng.randint(-1, 6), rng.choice((1, 2, 3, 5, 7))), Fraction(rng.randint(0, 9), rng.choice((1, 2, 4, 9)))
            table = []
            for _ in range(rng.randint(1, 9)):
                table.append(value)
                step *= Fraction(rng.randint(0, 5), 4)  # above 1: a concavity break
                value += step if rng.random() < 0.9 else -Fraction(1, rng.randint(1, 6))
            tables.append(table)
        outcomes = Counter()
        for table in tables:
            want = fraction_pricing_error(table)
            texts = [str(v) for v in table]
            if want is None:
                assert PricingFunction(tuple(texts)).values == tuple(table)
            else:
                with pytest.raises(InvalidInstanceError) as err:
                    PricingFunction(tuple(texts))
                assert str(err.value) == want, table
            outcomes[(want or "ok").split(" at ")[0]] += 1
        assert len(outcomes) == 4 and min(outcomes.values()) >= 30, outcomes


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

    def test_refuses_short_pricing_table(self):
        # the constructor checks the table length, so no instance that
        # reaches `normalize` can hold a short table
        t = Tree(3, ((0, 1), (1, 2)))
        with pytest.raises(InvalidInstanceError, match="pricing table has 2 entries, need at least 3"):
            normalize(Instance(t, PricingFunction.linear(2), ()))

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

    def test_matches_reference_normalize(self):
        rng = Random(1405)
        kept = rebuilt = 0
        for trial in range(120):
            n = rng.randint(2, 40)
            tree = shaped_tree(rng, n, SHAPES[trial % 3])
            commodities = []
            for _ in range(rng.randint(0, 3 * n)):
                if commodities and rng.random() < 0.3:
                    # a repeat, with its endpoints swapped half the time
                    c = rng.choice(commodities)
                    s, t, u = (c.target, c.source, c.budget) if rng.random() < 0.5 else (c.source, c.target, c.budget)
                else:
                    s, t = rng.sample(range(n), 2)
                    u = rng.randint(0, n + 2)
                commodities.append(Commodity(s, t, u, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
            raw = Instance.create(tree, PricingFunction.affine(n), commodities)
            got, want = normalize(raw), reference_normalize(raw)
            assert instance_to_dict(got) == instance_to_dict(want) and got.paths == want.paths, trial
            inputs = set(map(id, commodities))
            kept += sum(id(c) in inputs for c in got.commodities)
            rebuilt += got.num_commodities
        # both branches ran: inputs kept as they are, and commodities built anew
        assert 0 < kept < rebuilt

    def test_reading_a_canonical_file_builds_each_commodity_once(self, tmp_path, monkeypatch):
        inst = random_instance(1406, 60, 150, "affine")
        write_instance(inst, tmp_path / "i.json")
        built = Counter()
        post_init = Commodity.__post_init__

        def count(self):
            built[(self.source, self.target, self.budget)] += 1
            post_init(self)

        monkeypatch.setattr(Commodity, "__post_init__", count)
        again = read_instance(tmp_path / "i.json")
        assert again == inst and inst.num_commodities > 100
        assert sum(built.values()) == inst.num_commodities and set(built.values()) == {1}

    # a path 0-1-2-3; (0, 3) has 3 edges, (0, 2) has 2
    CANONICAL = [(0, 2, 0, 1), (0, 2, 2, 1), (0, 3, 3, 2), (1, 3, 1, 3)]

    def test_canonical_instance_is_returned_as_it_is(self):
        # budgets reach their path lengths and stay canonical
        tree = Tree(4, ((0, 1), (1, 2), (2, 3)))
        raw = Instance.create(tree, PricingFunction.affine(4), [Commodity(*c) for c in self.CANONICAL])
        assert normalize(raw) is raw

    def test_no_commodities_builds_no_root_path_table(self):
        # the table of root-path masks is Θ(n²) bits, 26 MiB at this size;
        # with no commodity to read it, `paths` is () and normalize keeps its input
        n = 20_000
        inst = Instance(Tree(n, tuple((v, v + 1) for v in range(n - 1))), PricingFunction.linear(n), ())
        tracemalloc.start()
        try:
            out = normalize(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is inst and inst.paths == ()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([(0, 2, 0, 1), (0, 2, 0, 5), (0, 3, 3, 2), (1, 3, 1, 3)], id="repeat-in-canonical-order"),
            pytest.param([(0, 2, 0, 1), (0, 2, 3, 1), (0, 3, 3, 2), (1, 3, 1, 3)], id="budget-above-path-length"),
            pytest.param([(0, 2, 0, 1), (0, 2, 2, 1), (0, 3, 3, 2), (3, 1, 1, 3)], id="reversed-endpoints"),
            pytest.param([(0, 2, 0, 1), (0, 2, 2, 1), (1, 3, 1, 3), (0, 3, 3, 2)], id="out-of-order"),
        ],
    )
    def test_near_canonical_instance_is_normalized(self, rows):
        tree = Tree(4, ((0, 1), (1, 2), (2, 3)))
        raw = Instance.create(tree, PricingFunction.affine(4), [Commodity(*c) for c in rows])
        got, want = normalize(raw), reference_normalize(raw)
        assert got is not raw
        assert instance_to_dict(got) == instance_to_dict(want) and got.paths == want.paths


class TestRevenue:
    def test_direct_formula(self):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = make(t, PricingFunction.linear(4), [Commodity(0, 3, 2, Fraction(3))])
        assert revenue_of_commodity(inst, 0, [0, 2]) == 6

    def test_make_result_refuses_cut_outside_edge_range(self):
        t = Tree(3, ((0, 1), (1, 2)))
        inst = make(t, PricingFunction.linear(3), [Commodity(0, 2, 1, Fraction(1))])
        with pytest.raises(InvalidInstanceError, match="cut id 2 outside edge range"):
            make_result(inst, [0, 2], algorithm="test")

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

    def test_gains_are_marginal_values(self):
        # fractional weights under capped and affine prices; the raw
        # instance raises each budget by two, so some exceed the path length
        budget_cases = set()
        for seed in range(10):
            base = self.fractional_instance(seed)
            n = base.tree.num_vertices
            raised = [Commodity(c.source, c.target, c.budget + 2, c.weight) for c in base.commodities]
            for pricing in (PricingFunction.capped(n, 3), PricingFunction.affine(n)):
                for inst in (
                    make(base.tree, pricing, base.commodities),
                    Instance.create(base.tree, pricing, raised),
                ):
                    assert inst.scale > inst.pricing.scaled[0] == 1
                    assert len(inst.gains) == inst.num_commodities
                    for i, c in enumerate(inst.commodities):
                        size = inst.paths[i].bit_count()
                        g = inst.gains[i]
                        assert len(g) == size
                        assert list(g) == [inst.value(i, x + 1) - inst.value(i, x) for x in range(size)]
                        if c.budget < size:
                            assert g[c.budget] == -inst.value(i, c.budget)
                            assert g[c.budget + 1 :] == (0,) * (size - c.budget - 1)
                        budget_cases.add((c.budget < size - 1) - (c.budget > size))
        assert budget_cases == {-1, 0, 1}

    def test_gains_built_only_by_bounded_exact_solvers(self):
        # the table holds sum |P_i| ints: the large-instance solvers never build it
        inst = random_instance(3, 96, 96, "affine")
        single_density(inst, 1)
        sublog(inst, 1)
        assert "gains" not in inst.__dict__
        small = random_instance(3, 9, 8, "affine")
        brute_force(small)
        assert "gains" in small.__dict__


    def test_cut_revenue_matches_mask_scoring(self):
        # the per-edge bitset scorer against the mask kernel and the
        # Fraction reference: fractional weights, f(0) = 0 and f(0) > 0,
        # budgets exceeded and met, the empty and the full cut set
        cases = []
        for seed in range(10):
            inst = self.fractional_instance(seed)
            # shifting a concave non-decreasing table up keeps it valid
            shifted = PricingFunction(tuple(v + Fraction(1, 3) for v in inst.pricing.values))
            cases += [inst, make(inst.tree, shifted, inst.commodities)]
            shape = ("tree", "path")[seed % 2]
            cases.append(random_instance(seed, 14, 20, "affine", shape, max_budget=2))
            cases.append(random_instance(seed, 14, 20, "capped", shape))
        cases.append(make(Tree(1, ()), PricingFunction.affine(1), []))
        cases.append(make(Tree(4, ((0, 1), (1, 2), (1, 3))), PricingFunction.affine(4), []))
        assert cases[-2]._cut_table == [] and cases[-1]._cut_table == [0] * 3
        outcomes = set()
        for n, inst in enumerate(cases):
            rng = Random(n)
            m = inst.tree.num_edges
            cut_sets = [(), tuple(range(m))]
            cut_sets += [tuple(e for e in range(m) if rng.random() < p) for p in (0.2, 0.5, 0.8)]
            for cuts in cut_sets:
                got = inst.scaled_cut_revenue(frozenset(cuts))
                mask = edge_mask(cuts)
                assert got == inst.scaled_revenue(mask)
                assert got == total_revenue(inst, cuts) * inst.scale
                for c, path in zip(inst.commodities, inst.paths):
                    outcomes.add(((path & mask).bit_count() > c.budget, inst.pricing.base_revenue))
        assert outcomes == {(False, False), (True, False), (False, True), (True, True)}

    @staticmethod
    def deep_instance(seed: int) -> tuple[Instance, frozenset]:
        """A tree or path of 160-300 vertices with k = n, and one thinned
        density candidate whose cut counts set the budgets: 0, the count, one
        below or above it, or any. Even seeds draw weights of 12 or more
        bits once scaled; the pricing cycles through f(0) = 0, f(0) = 1 and
        a shifted harmonic table."""
        rng = Random(3300 + seed)
        n = (300, 240, 160)[seed % 3]
        base = random_instance(3300 + seed, n, n, "linear", ("tree", "path")[seed % 2])
        anchor = max(seeded_density_candidates(base, seed)[1:5], key=len)
        mask = edge_mask(anchor)
        harmonic = [Fraction(1, 2)]
        for x in range(1, n):
            harmonic.append(harmonic[-1] + Fraction(1, x))
        pricing = (PricingFunction.linear(n), PricingFunction.affine(n), PricingFunction(tuple(harmonic)))[seed % 3]
        commodities = []
        for c, path in zip(base.commodities, base.paths):
            count = (path & mask).bit_count()
            budget = rng.choice((0, count, max(count - 1, 0), count + 1, rng.randrange(n)))
            weight = Fraction(rng.randint(1, 4000), rng.choice((1, 2, 3, 5, 7))) if seed % 2 == 0 else Fraction(rng.randint(1, 5))
            commodities.append(Commodity(c.source, c.target, budget, weight))
        return make(base.tree, pricing, commodities), anchor

    def test_cut_revenue_at_depth(self, monkeypatch):
        # the bitset kernel where commodities are cut 2, 3 and 8 or more
        # times, in every budget case of a count class: residue-class,
        # thinned, random, empty and full cut sets, each scored against the
        # mask kernel and the Fraction reference, and bounded against a
        # recount of sum w_i * f(min(u_i, c_i)). Revenue and bound each sum
        # weights, and the bound sums tops, both item by item and by bit
        # planes; one instance's weights have distinct prime denominators,
        # so its scaled weights are wider than k and every sum goes item by item
        cases = [(*self.deep_instance(seed), seed) for seed in range(6)]
        base = random_instance(3350, 40, 30, "affine")
        primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
        wide = make(base.tree, base.pricing, [
            Commodity(c.source, c.target, c.budget, Fraction(1 + i % 9, primes[i])) for i, c in enumerate(base.commodities)
        ])
        assert len(wide._plane_tables[0]) > wide.num_commodities == 30
        small = [
            wide,
            make(Tree(1, ()), PricingFunction.affine(1), []),
            make(Tree(2, ((0, 1),)), PricingFunction.affine(2), []),
            make(Tree(2, ((0, 1),)), PricingFunction.affine(2), [Commodity(0, 1, 0, Fraction(3)), Commodity(1, 0, 1, Fraction(2, 7))]),
            make(Tree(5, ((0, 1), (1, 2), (1, 3), (3, 4))), PricingFunction.linear(5), []),
        ]
        cases += [(inst, frozenset(), seed) for seed, inst in enumerate(small, 6)]
        seen = set()
        original_sum, kind = fza.model._sum, None

        def record(members, values, planes):
            what = "weights" if values is inst._scaled[1] else "tops"
            seen.add((kind, what, "planes" if members.bit_count() > len(planes) else "each"))
            return original_sum(members, values, planes)

        monkeypatch.setattr(fza.model, "_sum", record)
        for inst, anchor, seed in cases:
            rng = Random(seed)
            m = inst.tree.num_edges
            if seed < 6 and seed % 2 == 0:
                d_w = inst.scale // inst.pricing.scaled[0]
                assert max(c.weight * d_w for c in inst.commodities).numerator.bit_length() >= 12
            cut_sets = [frozenset(), frozenset(range(m)), anchor]
            cut_sets += [cand for j, cands in offset_candidates(inst).items() for cand in cands if j <= 2 or rng.random() < 0.1]
            cut_sets += rng.sample(seeded_density_candidates(inst, seed), min(m, 16))
            cut_sets += [frozenset(e for e in range(m) if rng.random() < p) for p in (0.05, 0.2, 0.5, 0.9)]
            for cuts in dict.fromkeys(cut_sets):
                kind = "revenue"
                got = inst.scaled_cut_revenue(cuts)
                mask = edge_mask(cuts)
                assert got == inst.scaled_revenue(mask), (seed, sorted(cuts))
                assert got == total_revenue(inst, cuts) * inst.scale, (seed, sorted(cuts))
                bound = Fraction(0)
                for c, path in zip(inst.commodities, inst.paths):
                    count = (path & mask).bit_count()
                    bound += c.weight * inst.pricing(min(c.budget, count))
                    if count >= 2:
                        case = "served" if c.budget >= count else "short" if c.budget else "zero"
                        seen |= {min(count, 8), (case, inst.pricing.base_revenue), ("equal", c.budget == count)}
                kind = "bound"
                assert inst.scaled_cut_bound(cuts) == (got, bound * inst.scale), (seed, sorted(cuts))
        assert {2, 3, 8} <= seen
        assert {(case, base) for case in ("served", "short", "zero") for base in (False, True)} <= seen
        assert ("equal", True) in seen
        sums = [("revenue", "weights"), ("bound", "weights"), ("bound", "tops")]
        assert {(kind, what, how) for kind, what in sums for how in ("each", "planes")} <= seen


    def test_cut_bound_matches_recount(self):
        # the bound kernel against a path-mask recount of
        # sum w_i * f(min(u_i, c_i)), and the revenue it returns beside the
        # bound against `scaled_cut_revenue`, on random trees, paths and stars, over
        # edge sets that cut no commodity twice, cut some exactly twice
        # (one count class, no counter) or three times and more (the
        # counter), with zero budgets, budgets past n - 1 (the instances are
        # not normalized) and over-budget sets on both sides of the top
        # planes' width; then its order: no subset earns more, no superset
        # has a lower bound
        rng = Random(3500)
        seen = set()
        for trial in range(90):
            n = rng.randint(2, 60)
            tree = shaped_tree(rng, n, ("tree", "path", "star")[trial % 3])
            pricing = (PricingFunction.linear(n), PricingFunction.affine(n), PricingFunction.capped(n, rng.randint(0, 3)))[trial // 3 % 3]
            commodities = [
                Commodity(
                    *rng.sample(range(n), 2),
                    rng.choice((0, 1, rng.randrange(n), n - 1 + rng.randint(1, 3))),
                    Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 7))),
                )
                for _ in range(rng.randint(0, 2 * n))
            ]
            inst = Instance.create(tree, pricing, commodities)
            m = inst.tree.num_edges
            edge_sets = [frozenset(), frozenset(range(m)), frozenset([rng.randrange(m)])]
            edge_sets += [frozenset(e for e in range(m) if rng.random() < p) for p in (0.1, 0.3, 0.6, 0.9)]
            edge_sets += [b for buckets in offset_candidates(inst).values() for b in buckets if b and rng.random() < 0.3]
            for edges in edge_sets:
                mask = edge_mask(edges)
                counts = [(path & mask).bit_count() for path in inst.paths]
                want = sum((c.weight * inst.pricing(min(c.budget, x)) for c, x in zip(inst.commodities, counts)), Fraction(0))
                revenue, bound = inst.scaled_cut_bound(edges)
                assert bound == want * inst.scale, (trial, sorted(edges))
                assert revenue == inst.scaled_cut_revenue(edges), (trial, sorted(edges))
                over = [c.budget for c, x in zip(inst.commodities, counts) if x > c.budget]
                seen.add(("most cuts", min(max(counts, default=0), 3)))
                seen.add(("over", "planes" if len(over) > len(inst._plane_tables[4]) else "each" if over else "none"))
                seen.add(("zero budget over", 0 in over))
                seen.add(("budget past n - 1", any(c.budget > n - 1 for c in inst.commodities)))
                subsets = [edges] + [frozenset(e for e in edges if rng.random() < 0.5) for _ in range(3)]
                assert all(inst.scaled_cut_revenue(sub) <= bound for sub in subsets), (trial, sorted(edges))
                superset = edges | {e for e in range(m) if rng.random() < 0.3}
                assert bound <= inst.scaled_cut_bound(superset)[1], (trial, sorted(edges))
        assert {("most cuts", c) for c in (0, 1, 2, 3)} <= seen
        assert {("over", how) for how in ("none", "each", "planes")} <= seen
        assert {("zero budget over", True), ("budget past n - 1", True)} <= seen


def test_first_best_keeps_first_maximum_and_scores_each_set_once():
    rng = Random(17)
    for _ in range(300):
        pool = [frozenset(rng.sample(range(6), rng.randint(0, 3))) for _ in range(rng.randint(1, 6))]
        candidates = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        points = {c: rng.randint(0, 3) for c in candidates}
        scored = Counter()

        def score(cuts):
            scored[cuts] += 1
            return points[cuts]

        best = first_best(iter(candidates), score)
        top = max(points.values())
        assert best == next(c for c in candidates if points[c] == top)
        assert scored == Counter(set(candidates))


class TestParameters:
    def test_congestion_matches_mask_recount(self):
        for seed in range(30):
            inst = random_instance(seed, 2 + seed, 2 * seed, "linear", ("tree", "path")[seed % 2])
            on_edge = tuple(
                tuple(i for i, path in enumerate(inst.paths) if path >> e & 1)
                for e in range(inst.tree.num_edges)
            )
            assert inst._cut_table == [sum(1 << i for i in ids) for ids in on_edge]
            assert parameters(inst).congestion == max(map(len, on_edge), default=0)

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

    def test_congestion_builds_no_id_index(self):
        # a random path holds about k * n / 3 commodity ids over its edges;
        # the congestion is read off the per-edge bitsets, n * k bits
        generated = gen_random(GenSpec("random-path", 3000, 3000, "affine", seed=1))
        inst = Instance(generated.tree, generated.pricing, generated.commodities)
        tracemalloc.start()
        try:
            found = parameters(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == (2608, 2914, 1535) and peak < 8 << 20


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
            count = len(set(full) & path_edges(inst, i))
            if count <= u:
                for r in range(len(full)):
                    for sub in combinations(full, r):
                        assert len(set(sub) & path_edges(inst, i)) <= u

    def test_restricted_submodularity(self):
        # g(F') = revenue of commodities served by F, over subsets F' of F
        for seed in range(12):
            inst = random_instance(100 + seed, 8, 6, "affine")
            m = inst.tree.num_edges
            base = [e for e in range(m)][:6]
            served = [
                i
                for i in range(inst.num_commodities)
                if len(set(base) & path_edges(inst, i)) <= inst.commodities[i].budget
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
            count = len(set(res.cuts) & path_edges(inst, i))
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


def test_each_tree_is_rooted_once(monkeypatch):
    # the constructor's walk from vertex 0 (`Tree.rooting`) serves every
    # later reader; nothing roots the same tree again
    calls = Counter()
    rooted = Tree.rooted

    def counting(self, root):
        calls[id(self)] += 1
        return rooted(self, root)

    monkeypatch.setattr(Tree, "rooted", counting)
    tree_inst = random_instance(1, 12, 12, pricing="affine")
    path_inst = random_instance(2, 10, 10, pricing="affine", shape="path")
    for inst in (tree_inst, path_inst):
        inst = normalize(inst)
        parameters(inst)
        single_density(inst, 1)
        single_density_base(inst)
    dp_pmax(path_inst)
    assert calls == {id(tree_inst.tree): 1, id(path_inst.tree): 1}
    assert tree_inst.tree.rooting == tuple(map(tuple, rooted(tree_inst.tree, 0)))


def _package_nodes(matches, skip=()) -> list[str]:
    """`file:line` of every AST node in src/fza that `matches`, outside `skip`."""
    import fza

    offenders = []
    for path in sorted(Path(fza.__file__).parent.glob("*.py")):
        if path.name not in skip:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return offenders


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every invariant check in fza must raise
    assert _package_nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_only_model_roots_trees():
    # every other module reads the tree's one cached rooting, `Tree.rooting`
    def calls_rooted(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "rooted"
        )

    assert _package_nodes(calls_rooted, skip=("model.py",)) == []
