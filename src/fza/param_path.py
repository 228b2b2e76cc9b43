"""Exact parameterized dynamic programs for path instances.

All three sweep the path left to right with sparse hash-indexed tables; only
reachable states are materialized, the stated worst-case sizes act purely as
refusal guards. Infeasible states are absent from the tables rather than
carrying a sentinel value. Tie-breaking is fixed everywhere: keep the no-cut
transition, then the lexicographically smaller predecessor state, so
reconstruction is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .model import (
    CapacityError,
    FzaError,
    Instance,
    InvalidInstanceError,
    SolveResult,
    make_result,
    parameters,
)

# slack marker for commodities that exceeded their budget by two or more cuts;
# such a commodity can never contribute again
DEAD = -2


def _path_layout(instance: Instance):
    """1-based edge positions along the path plus per-commodity position
    intervals [a_i, b_i]."""
    if not instance.tree.is_path:
        raise InvalidInstanceError("parameterized DPs require a path instance")
    _, edge_ids = instance.tree.path_order()
    pos_of = {eid: p + 1 for p, eid in enumerate(edge_ids)}
    intervals = []
    for i in range(instance.num_commodities):
        positions = [pos_of[e] for e in instance.path_edges(i)]
        intervals.append((min(positions), max(positions)))
    return edge_ids, intervals


class _Sweep:
    """Shared bookkeeping: per-position commodity lists and best-state update
    with the fixed tie rule."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.edge_ids, self.intervals = _path_layout(instance)
        self.m = len(self.edge_ids)
        k = instance.num_commodities
        self.starting = [[] for _ in range(self.m + 1)]
        self.covering = [[] for _ in range(self.m + 1)]
        for i in range(k):
            a, b = self.intervals[i]
            self.starting[a].append(i)
            for p in range(a, b + 1):
                self.covering[p].append(i)

    def base(self, p: int) -> int:
        return sum(self.instance.value(i, 0) for i in self.starting[p])


def _update(table, parents, key, value, pred, cut: bool) -> None:
    held = table.get(key)
    if held is None or value > held:
        table[key] = value
        parents[key] = (pred, cut)
    elif value == held:
        old_pred, old_cut = parents[key]
        # same value: prefer no-cut, then the smaller predecessor
        if (cut, pred) < (old_cut, old_pred):
            parents[key] = (pred, cut)


def _finish(instance, sweep, table, parents_by_step, algorithm, diagnostics):
    if not table:
        raise InvalidInstanceError("dynamic program ended with no feasible state")
    best_val = max(table.values())
    best_key = min(k for k, v in table.items() if v == best_val)
    cuts = []
    key = best_key
    for p in range(sweep.m, 0, -1):
        pred, was_cut = parents_by_step[p][key]
        if was_cut:
            cuts.append(sweep.edge_ids[p - 1])
        key = pred
    result = make_result(instance, cuts, algorithm=algorithm, diagnostics=diagnostics)
    if result.revenue != Fraction(best_val, instance.scale):
        raise FzaError("dynamic program value disagrees with the revenue of its cut set")
    return result


def dp_umax(instance: Instance, state_budget: int = 10**7) -> SolveResult:
    """Exact optimum, exponential only in the maximum budget.

    States are the u_max+1 rightmost cut positions (artificial always-cut
    edges at positions -u_max..0 seed the window). When edge p is cut, the
    marginal gain of every commodity through p is computed from the u_max+1
    previous cuts, i.e. including the position about to slide out of the
    window; with fewer slots a commodity at the maximum budget whose path
    holds two more cuts than its budget would be charged its drop-out penalty
    twice.
    """
    sweep = _Sweep(instance)
    ell = parameters(instance).u_max
    n = instance.tree.num_vertices
    if n ** (ell + 2) > state_budget:
        raise CapacityError(f"state budget exceeded: {n}^{ell + 2} > {state_budget}")
    value = instance.value

    window0 = tuple(range(-ell, 1))
    table = {window0: 0}
    parents_by_step = [dict() for _ in range(sweep.m + 1)]
    for p in range(1, sweep.m + 1):
        new_table: dict[tuple, int] = {}
        parents: dict[tuple, tuple] = {}
        bp = sweep.base(p)
        here = sweep.covering[p]
        for window in sorted(table):
            val = table[window] + bp
            _update(new_table, parents, window, val, window, cut=False)
            gain = 0
            for i in here:
                a = sweep.intervals[i][0]
                z = len(window) - bisect_left(window, a)
                gain += value(i, z + 1) - value(i, z)
            shifted = window[1:] + (p,)
            _update(new_table, parents, shifted, val + gain, window, cut=True)
        table = new_table
        parents_by_step[p] = parents
    return _finish(instance, sweep, table, parents_by_step, "dp-umax", {"u_max": ell})


def dp_pmax(instance: Instance, window_budget: int = 1 << 20) -> SolveResult:
    """Exact optimum, exponential only in the maximum path length.

    The state is the cut pattern of the last p_max positions as a bitmask
    (bit t set means position p-t is cut), which covers every commodity path
    entirely, so marginal gains are exact.
    """
    sweep = _Sweep(instance)
    ell = max(1, parameters(instance).p_max)
    if (1 << ell) > window_budget:
        raise CapacityError(f"window budget exceeded: 2^{ell} > {window_budget}")
    value = instance.value
    full = (1 << ell) - 1

    table = {0: 0}
    parents_by_step = [dict() for _ in range(sweep.m + 1)]
    for p in range(1, sweep.m + 1):
        new_table: dict[int, int] = {}
        parents: dict[int, tuple] = {}
        bp = sweep.base(p)
        here = sweep.covering[p]
        for mask in sorted(table):
            val = table[mask] + bp
            _update(new_table, parents, (mask << 1) & full, val, mask, cut=False)
            gain = 0
            for i in here:
                a = sweep.intervals[i][0]
                z = (mask & ((1 << (p - a)) - 1)).bit_count()
                gain += value(i, z + 1) - value(i, z)
            _update(new_table, parents, ((mask << 1) | 1) & full, val + gain, mask, cut=True)
        table = new_table
        parents_by_step[p] = parents
    return _finish(instance, sweep, table, parents_by_step, "dp-pmax", {"p_max": ell})


def dp_congestion(instance: Instance, table_budget: int = 10**6) -> SolveResult:
    """Exact optimum, exponential only in the congestion.

    The state carries one slack value per commodity whose path covers the
    current position: budget minus cuts so far, with -1 meaning just dropped
    out and DEAD meaning over budget by two or more. Commodities whose path
    ended are projected out by maximizing.
    """
    sweep = _Sweep(instance)
    comm = instance.commodities
    value = instance.value
    worst = 1
    for p in range(1, sweep.m + 1):
        size = 1
        for i in sweep.covering[p]:
            size *= comm[i].budget + 3
        worst = max(worst, size)
    if worst > table_budget:
        raise CapacityError(f"slack table would hold up to {worst} states > {table_budget}")

    def dec(x: int) -> int:
        if x == DEAD or x == -1:
            return DEAD
        return x - 1

    table: dict[tuple, int] = {(): 0}
    parents_by_step = [dict() for _ in range(sweep.m + 1)]
    prev_ids: list[int] = []
    for p in range(1, sweep.m + 1):
        ids = sweep.covering[p]
        prev_index = {i: t for t, i in enumerate(prev_ids)}
        new_ids = [i for i in ids if i not in prev_index]
        new_table: dict[tuple, int] = {}
        parents: dict[tuple, tuple] = {}
        keep_gain = sum(value(i, 0) for i in new_ids)
        cut_gain_new = sum(value(i, 1) for i in new_ids)
        for state in sorted(table):
            val = table[state]
            kept = tuple(
                comm[i].budget if i not in prev_index else state[prev_index[i]]
                for i in ids
            )
            _update(new_table, parents, kept, val + keep_gain, state, cut=False)
            gain = cut_gain_new
            slashed = []
            for i in ids:
                if i in prev_index:
                    x = dec(state[prev_index[i]])
                    if x != DEAD:
                        # slack x after the cut means u-x-1 cuts lay on the path before it
                        z = comm[i].budget - x - 1
                        gain += value(i, z + 1) - value(i, z)
                    slashed.append(x)
                else:
                    slashed.append(comm[i].budget - 1 if comm[i].budget >= 1 else -1)
            _update(new_table, parents, tuple(slashed), val + gain, state, cut=True)
        table = new_table
        parents_by_step[p] = parents
        prev_ids = ids
    return _finish(
        instance, sweep, table, parents_by_step, "dp-cong",
        {"congestion": parameters(instance).congestion},
    )
