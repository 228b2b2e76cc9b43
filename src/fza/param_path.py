"""Exact parameterized dynamic programs for path instances.

All three DPs run one left-to-right sweep (`_Sweep.run`) over the path's edge
positions and differ only in how a state encodes the cuts so far: each
supplies a start state and `moves(states, p) -> (kept, cut, cut_gains)`,
three lists aligned with the sorted states at p, where a cut gain sums, over
the commodities through p, the cached marginal gain `Instance.gains[i][z]` of
a cut on a path that already holds z cuts. Tie-breaking is fixed by pass
order: every no-cut move merges before every cut move, each pass in
ascending predecessor order, and a move replaces a held state only on a
strictly higher value, so the no-cut move, then the lexicographically
smaller predecessor, wins a tie and reconstruction is deterministic.

Tables are sparse and hold only reachable states, and `dp_umax` and
`dp_pmax` also drop dominated ones. Let future[p] be the lowest first
position of the commodities through any position after p (m + 1 if none).
No later step reads a cut before future[p], so a state's projection onto
its cuts at or after future[p] fixes every later move and gain. Where
future grows, the sweep groups the new table by that projection and drops
each state strictly below its group's maximum:
- Two states in one group get the same moves and the same gains from then
  on, so a strictly lower state is never the chosen parent of a
  non-dominated state, nor on the chain of a best final state.
- Every non-dominated state therefore keeps its value and its parent, and
  the set of best final states is unchanged, so the minimum over their keys
  and the reconstruction return the same cut set.
- Where future does not grow, two groups meet only on identical keys, which
  the merge already combines.
Every state tied at its group's maximum stays: the unpruned DP breaks such
a tie forward- or reverse-lexicographically depending on the cuts that
follow, so keeping one state per group would change cut sets. The stated
worst-case sizes bound the unpruned tables and act purely as refusal guards.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import prod

from .model import (
    CapacityError,
    FzaError,
    Instance,
    InvalidInstanceError,
    SolveResult,
    make_result,
    parameters,
)

# refusal guards on the unpruned worst case: n^(u_max+2) states for dp_umax,
# 2^p_max windows for dp_pmax, and the largest per-position slack product for
# dp_congestion
STATE_BUDGET = 10**7
WINDOW_BUDGET = 1 << 20
TABLE_BUDGET = 10**6

# slack marker for commodities that exceeded their budget by two or more cuts;
# such a commodity can never contribute again
DEAD = -2


class _Sweep:
    """Path layout plus the one DP loop, which merges each position's moves
    in two ordered passes (see the module docstring for the tie rule).

    `covering[p]` is `Instance.edge_commodities` of the edge at 1-based
    position p: the commodities whose path holds it, ascending. `start[i]`
    is the first position whose `covering` holds commodity i, and
    `entry_value[p]` is the zero-cut revenue of the commodities starting at
    p, which both transitions at p earn. `first[p]` is the lowest start
    among the commodities through p and `future[p]` the lowest among those
    through any position after p, each m + 1 if there is none.
    """

    def __init__(self, instance: Instance):
        if not instance.tree.is_path:
            raise InvalidInstanceError("parameterized DPs require a path instance")
        self.instance = instance
        _, self.edge_ids = instance.tree.path_order()
        self.m = m = len(self.edge_ids)
        on_edge = instance.edge_commodities
        self.covering = covering = [()] + [on_edge[e] for e in self.edge_ids]
        self.start = start = [0] * instance.num_commodities
        self.entry_value = [0] * (m + 1)
        for p in range(1, m + 1):
            for i in covering[p]:
                if not start[i]:
                    start[i] = p
                    self.entry_value[p] += instance.value(i, 0)
        self.first = [min((start[i] for i in ids), default=m + 1) for ids in covering]
        self.future = future = [m + 1] * (m + 1)
        for p in range(m - 1, -1, -1):
            future[p] = min(future[p + 1], self.first[p + 1])

    def run(self, initial, moves, algorithm: str, diagnostics: dict, project=None) -> SolveResult:
        """Sweep the path from `initial`. `project(states, p)` lists, for
        each state, the part that a step after p can read; where `future`
        grows, a state strictly below its group's maximum is dropped (see the
        module docstring). Without it every reachable state is kept."""
        table = {initial: 0}
        parents_by_step = [{}]
        future = self.future
        for p in range(1, self.m + 1):
            bp = self.entry_value[p]
            states = sorted(table)
            kept, cut, gains = moves(states, p)
            values = [table[state] + bp for state in states]
            new_table, parents = {}, {}
            _update(new_table, parents, kept, values, states, False)
            _update(new_table, parents, cut, [v + g for v, g in zip(values, gains)], states, True)
            if project is not None and future[p] > future[p - 1]:
                new_table = _drop_dominated(new_table, project(new_table, p))
            table = new_table
            parents_by_step.append(parents)

        if not table:
            raise InvalidInstanceError("dynamic program ended with no feasible state")
        best_val = max(table.values())
        key = min(k for k, v in table.items() if v == best_val)
        cuts = []
        for p in range(self.m, 0, -1):
            key, was_cut = parents_by_step[p][key]
            if was_cut:
                cuts.append(self.edge_ids[p - 1])
        result = make_result(self.instance, cuts, algorithm=algorithm, diagnostics=diagnostics)
        if result.revenue != Fraction(best_val, self.instance.scale):
            raise FzaError("dynamic program value disagrees with the revenue of its cut set")
        return result


def _update(table, parents, keys, values, preds, cut: bool) -> None:
    """Merge one pass of moves, keeping a move only on a strictly higher value."""
    for key, value, pred in zip(keys, values, preds):
        held = table.get(key)
        if held is None or value > held:
            table[key] = value
            parents[key] = (pred, cut)


def _drop_dominated(table: dict, keys: list) -> dict:
    """`table` without the states strictly below the best value of their
    group, `keys` giving each state's group in the table's order."""
    top = {}
    for value, key in zip(table.values(), keys):
        held = top.get(key)
        if held is None or value > held:
            top[key] = value
    return {state: value for (state, value), key in zip(table.items(), keys) if value == top[key]}


def dp_umax(instance: Instance) -> SolveResult:
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
    if n ** (ell + 2) > STATE_BUDGET:
        raise CapacityError(f"state budget exceeded: {n}^{ell + 2} > {STATE_BUDGET}")
    gains, start, future = instance.gains, sweep.start, sweep.future
    # per position p: (start, gains) of each commodity through p
    through = [tuple((start[i], gains[i]) for i in ids) for ids in sweep.covering]
    size = ell + 1

    def moves(windows, p):
        first, comms = sweep.first[p], through[p]
        # the gain reads only the window's cuts at or after `first`
        memo, cut_gains = {}, []
        for w in windows:
            key = w[bisect_left(w, first):]
            gain = memo.get(key)
            if gain is None:
                # cuts in the window at or after each commodity's first position
                gain = memo[key] = sum(g[size - bisect_left(w, s)] for s, g in comms)
            cut_gains.append(gain)
        return windows, [w[1:] + (p,) for w in windows], cut_gains

    def project(windows, p):
        cutoff = future[p]
        return [w[bisect_left(w, cutoff):] for w in windows]

    return sweep.run(tuple(range(-ell, 1)), moves, "dp-umax", {"u_max": ell}, project)


def dp_pmax(instance: Instance) -> SolveResult:
    """Exact optimum, exponential only in the maximum path length.

    The state is the cut pattern of the last p_max positions as a bitmask
    (bit t set means position p-t is cut), which covers every commodity path
    entirely, so marginal gains are exact.
    """
    sweep = _Sweep(instance)
    ell = max(1, parameters(instance).p_max)
    if (1 << ell) > WINDOW_BUDGET:
        raise CapacityError(f"window budget exceeded: 2^{ell} > {WINDOW_BUDGET}")
    gains, start, future = instance.gains, sweep.start, sweep.future
    # per position p: (bits of the positions start_i .. p-1 in the state, gains of i)
    through = [
        tuple(((1 << (p - start[i])) - 1, gains[i]) for i in ids)
        for p, ids in enumerate(sweep.covering)
    ]
    # the widest `before` mask at p: the only bits of a state its cut gain reads
    seen = [max((before for before, _ in comms), default=0) for comms in through]
    full = (1 << ell) - 1

    def moves(masks, p):
        comms, visible = through[p], seen[p]
        memo, cut_gains = {}, []
        for mask in masks:
            key = mask & visible
            gain = memo.get(key)
            if gain is None:
                gain = memo[key] = sum(g[(mask & before).bit_count()] for before, g in comms)
            cut_gains.append(gain)
        kept = [(mask << 1) & full for mask in masks]
        return kept, [k | 1 for k in kept], cut_gains

    def project(masks, p):
        # bit t is position p - t, so bits 0..p - future[p] are the readable ones
        readable = (1 << max(0, p - future[p] + 1)) - 1
        return [mask & readable for mask in masks]

    return sweep.run(0, moves, "dp-pmax", {"p_max": ell}, project)


def dp_congestion(instance: Instance) -> SolveResult:
    """Exact optimum, exponential only in the congestion.

    The state carries one slack value per commodity whose path covers the
    current position: budget minus cuts so far, with -1 meaning just dropped
    out and DEAD meaning over budget by two or more. Commodities whose path
    ended are projected out by maximizing. A commodity entering at p has
    slack equal to its budget and no cuts yet, so its cut gain is the
    marginal at zero cuts, the same for every state and summed once per p.
    """
    sweep = _Sweep(instance)
    comm = instance.commodities
    gains, covering = instance.gains, sweep.covering
    worst = max(prod(comm[i].budget + 3 for i in ids) for ids in covering)
    if worst > TABLE_BUDGET:
        raise CapacityError(f"slack table would hold up to {worst} states > {TABLE_BUDGET}")

    # per position: (index in the previous state or -1 if entering, budget,
    # gains) for each covering commodity, and the summed zero-cut marginal of
    # those entering
    slots = [()]
    entering_gain = [0]
    prev_index: dict[int, int] = {}
    for p in range(1, sweep.m + 1):
        ids = covering[p]
        slots.append(tuple((prev_index.get(i, -1), comm[i].budget, gains[i]) for i in ids))
        entering_gain.append(sum(gains[i][0] for i in ids if i not in prev_index))
        prev_index = {i: t for t, i in enumerate(ids)}

    def moves(states, p):
        all_kept, all_slashed, cut_gains = [], [], []
        for state in states:
            kept = []
            slashed = []
            gain = entering_gain[p]
            for t, u, g in slots[p]:
                if t < 0:
                    kept.append(u)
                    slashed.append(u - 1)
                    continue
                x = state[t]
                kept.append(x)
                if x == DEAD or x == -1:
                    slashed.append(DEAD)
                else:
                    # slack x before the cut means u-x cuts lay on the path before it
                    gain += g[u - x]
                    slashed.append(x - 1)
            all_kept.append(tuple(kept))
            all_slashed.append(tuple(slashed))
            cut_gains.append(gain)
        return all_kept, all_slashed, cut_gains

    return sweep.run((), moves, "dp-cong", {"congestion": parameters(instance).congestion})
