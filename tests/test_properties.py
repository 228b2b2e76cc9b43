"""Properties over drawn trees and paths of at most 12 edges with at most 8
commodities: the exact solvers reach brute force's revenue, no approximation
beats it, and every result's revenue is `total_revenue` of its own cuts.
Revenues only, since the solvers' tie rules differ.

Hypothesis runs derandomized and without its example database, so each run
draws the same examples and writes nothing into the repository.
"""

from __future__ import annotations

import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st

from fza import (
    Commodity,
    Instance,
    PricingFunction,
    Tree,
    brute_force,
    dp_congestion,
    dp_pmax,
    dp_umax,
    normalize,
    rooted_dp,
    simplified_single_density,
    single_density,
    single_density_base,
    single_density_path,
    total_revenue,
)
from fza.sublog import sublog

# Hypothesis caches the constants it reads from local modules under its home
# directory, `.hypothesis/` in the working directory by default, and its
# pytest plugin reads them during collection, before any fixture runs; the
# temporary home is removed when the process exits
HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(HOME.name)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def pricings(draw, n: int) -> PricingFunction:
    """A non-decreasing concave table of n values: a start, then falling steps."""
    step = st.builds(Fraction, st.integers(0, 4), st.sampled_from((1, 2)))
    values = [Fraction(draw(st.integers(0, 2)))]
    for s in sorted(draw(st.lists(step, min_size=n - 1, max_size=n - 1)), reverse=True):
        values.append(values[-1] + s)
    return PricingFunction(tuple(values))


@st.composite
def instances(draw, shape: str = "tree", rooted: bool = False, max_budget: int = 12):
    """(instance, root): a tree or a path on 2-13 vertices, with every
    commodity ending at `root` when `rooted` (root None otherwise)."""
    m = draw(st.integers(1, 12))
    if shape == "path":
        labels = draw(st.permutations(range(m + 1)))
        edges = [(labels[i], labels[i + 1]) for i in range(m)]
    else:
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, m + 1)]
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    root = draw(st.integers(0, m)) if rooted else None
    commodities = []
    for _ in range(draw(st.integers(0, 8))):
        s = root if rooted else draw(st.integers(0, m))
        t = draw(st.integers(0, m - 1))
        t += t >= s
        if draw(st.booleans()):
            s, t = t, s
        budget = draw(st.integers(0, max_budget))
        weight = Fraction(draw(st.integers(1, 9)), draw(st.sampled_from((1, 2, 3))))
        commodities.append(Commodity(s, t, budget, weight))
    tree = Tree(m + 1, tuple(edges))
    return normalize(Instance.create(tree, draw(pricings(m + 1)), commodities)), root


def assert_revenues_are_their_cuts(instance, results) -> None:
    for name, res in results.items():
        assert res.revenue == total_revenue(instance, res.cuts), name


def approximations(instance, seed: int) -> dict:
    results = {
        "single-density": single_density(instance, seed),
        "simplified": simplified_single_density(instance, seed),
        "sublog": sublog(instance, seed),
    }
    if instance.tree.is_path:
        results["single-density-path"] = single_density_path(instance)
    if instance.pricing.base_revenue:
        results["single-density-base"] = single_density_base(instance)
    return results


@PROPERTY
@given(instances(rooted=True))
def test_rooted_dp_equals_brute_force(drawn):
    instance, root = drawn
    best = brute_force(instance)
    res = rooted_dp(instance, root)
    assert res.revenue == best.revenue
    assert_revenues_are_their_cuts(instance, {"brute": best, "rooted": res})


# budgets of at most 3 keep every draw inside the path DPs' guards
@PROPERTY
@given(instances(shape="path", max_budget=3))
def test_path_dps_equal_brute_force(drawn):
    instance, _ = drawn
    best = brute_force(instance)
    results = {"dp-umax": dp_umax(instance), "dp-pmax": dp_pmax(instance), "dp-cong": dp_congestion(instance)}
    assert {name: res.revenue for name, res in results.items()} == dict.fromkeys(results, best.revenue)
    assert_revenues_are_their_cuts(instance, results)


@PROPERTY
@given(instances(shape="tree") | instances(shape="path"), st.integers(0, 1000))
def test_approximations_stay_below_brute_force(drawn, seed):
    instance, _ = drawn
    best = brute_force(instance)
    results = approximations(instance, seed)
    assert [name for name, res in results.items() if res.revenue > best.revenue] == []
    assert_revenues_are_their_cuts(instance, {"brute": best, **results})
