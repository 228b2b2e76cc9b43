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
smaller predecessor, wins a tie. A table maps each state to (value,
predecessor, was cut), and reconstruction follows the kept tables back.

Each DP reads its own parameter (u_max off the budgets, |P|_max off the
path masks, the congestion off its covering lists) and refuses an instance
over its guard before it builds a table; `dp_umax` and `dp_pmax` refuse
before the sweep is built, and `dp_congestion`, which reads its
parameter off the sweep, before it reads `Instance.gains`. A guard first
tests `Tree.is_path`, so a tree that is not a path is refused as invalid,
not over capacity.

The sweep starts from the zero-cut revenue F_0 * sum W_i: every commodity
earns its zero-cut value on both moves at its first position, the same for
every state there, so no merge, tie or drop depends on when it is added.

Let future[p] be the lowest start among the commodities through any
position after p (m + 1 if none); `_Sweep` reads it off the commodities' end
places. No step after p reads a cut before future[p], so `dp_umax` and
`dp_pmax` each give one `readable(states, p)`, a state's cuts at or after
future[p], and the sweep uses it for one thing: where future grows, it
groups the states leaving p by `readable(states, p)` and drops each entry
strictly below its group's maximum. Two states in one group get the same
moves and gains from then on, so a strictly lower one is never the
predecessor of a non-dominated state, nor on the chain of a best final
state: every kept state keeps its value and predecessor, and the best final
states and the cut set are unchanged. Where future does not grow, two
groups meet only on identical keys, which the merge already combines.
Every state tied at its group's maximum stays: the unpruned DP breaks such
a tie forward- or reverse-lexicographically depending on the cuts that
follow, so keeping one state per group would change cut sets. The stated
worst-case sizes bound the unpruned tables and act purely as refusal guards.
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
)

# refusal guards on the unpruned worst case: n^(u_max+2) states for dp_umax,
# 2^p_max windows for dp_pmax, and the largest per-position slack product for
# dp_congestion
STATE_BUDGET = 10**7
WINDOW_BUDGET = 1 << 20
TABLE_BUDGET = 10**6
# dp_congestion's slack product stops at this bound, far past TABLE_BUDGET, so
# its refusal of a wide position neither multiplies nor prints a huge number
SLACK_CAP = 10**100

# slack marker for commodities that exceeded their budget by two or more cuts;
# such a commodity can never contribute again
DEAD = -2


class _Sweep:
    """Path layout plus the one DP loop, which merges each position's moves
    in two ordered passes (see the module docstring for the tie rule).

    `covering[p]` lists the commodities whose path holds the edge at
    1-based position p, ascending. `start[i]` is the first position whose
    `covering` holds commodity i, and `future[p]` the lowest start among the
    commodities through any position after p, m + 1 if there is none. All
    three are read off each commodity's end places: `covering` in
    O(m + sum of |P_i|), `start` and `future` in O(k + m) with no scan of
    the covering lists, as each commodity lowers `future` at the position
    before its last, and suffix minima carry that to every earlier position.
    """

    def __init__(self, instance: Instance):
        if not instance.tree.is_path:
            raise InvalidInstanceError("parameterized DPs require a path instance")
        self.instance = instance
        order, self.edge_ids = instance.tree.path_order()
        self.m = m = len(self.edge_ids)
        # position p joins the vertices at places p - 1 and p, so a path's
        # first position is one past the place of its nearer end
        place = {v: q for q, v in enumerate(order)}
        ends = [sorted((place[c.source], place[c.target])) for c in instance.commodities]
        self.start = [a + 1 for a, _ in ends]
        self.covering = covering = [[] for _ in range(m + 1)]
        self.future = future = [m + 1] * (m + 1)
        # at places a < b a path runs through positions a + 1 .. b, so it
        # runs through a position after p exactly when p < b
        for i, (a, b) in enumerate(ends):
            for p in range(a + 1, b + 1):
                covering[p].append(i)
            future[b - 1] = min(future[b - 1], a + 1)
        for p in range(m - 1, -1, -1):
            future[p] = min(future[p], future[p + 1])

    def run(self, initial, moves, algorithm: str, diagnostics: dict, readable=None) -> SolveResult:
        """Sweep the path from `initial`. `readable(states, p)` lists the part
        of each state that a step after p can read, which groups the
        dominance drop at p (see the module docstring); without it no state
        drops."""
        table = {initial: (self.instance._empty_revenue, None, False)}
        tables = [table]
        future = self.future
        for p in range(1, self.m + 1):
            states = sorted(table)
            kept, cut, gains = moves(states, p)
            values = [table[state][0] for state in states]
            table = {}
            _update(table, kept, values, states, False)
            _update(table, cut, [v + g for v, g in zip(values, gains)], states, True)
            if readable is not None and future[p] > future[p - 1]:
                table = _drop_dominated(table, readable(table, p))
            tables.append(table)

        if not table:
            raise InvalidInstanceError("dynamic program ended with no feasible state")
        best_val = max(value for value, _, _ in table.values())
        key = min(k for k, (value, _, _) in table.items() if value == best_val)
        cuts = []
        for p in range(self.m, 0, -1):
            _, key, was_cut = tables[p][key]
            if was_cut:
                cuts.append(self.edge_ids[p - 1])
        result = make_result(self.instance, cuts, algorithm=algorithm, diagnostics=diagnostics)
        if result.revenue != Fraction(best_val, self.instance.scale):
            raise FzaError("dynamic program value disagrees with the revenue of its cut set")
        return result


def _update(table, keys, values, preds, cut: bool) -> None:
    """Merge one pass of moves as (value, predecessor, cut) entries, keeping a
    move only on a strictly higher value."""
    for key, value, pred in zip(keys, values, preds):
        held = table.get(key)
        if held is None or value > held[0]:
            table[key] = (value, pred, cut)


def _drop_dominated(table: dict, keys: list) -> dict:
    """`table` without the entries strictly below the best value of their
    group, `keys` giving each state's group in the table's order."""
    top = {}
    for (value, _, _), key in zip(table.values(), keys):
        held = top.get(key)
        if held is None or value > held:
            top[key] = value
    return {state: entry for (state, entry), key in zip(table.items(), keys) if entry[0] == top[key]}


def dp_umax(instance: Instance) -> SolveResult:
    """Exact optimum, exponential only in the maximum budget.

    States are the u_max+1 rightmost cut positions (artificial always-cut
    edges at positions -u_max..0 seed the window). When edge p is cut, the
    marginal gain of every commodity through p is computed from the u_max+1
    previous cuts, i.e. including the position about to slide out of the
    window; with fewer slots a commodity at the maximum budget whose path
    holds two more cuts than its budget would be charged its drop-out penalty
    twice. A commodity starting at s has as many cuts on its path as the
    window holds at or after s. The readable part of a window is its suffix
    from future[p].
    """
    ell = max((c.budget for c in instance.commodities), default=0)
    n = instance.tree.num_vertices
    if instance.tree.is_path and n ** (ell + 2) > STATE_BUDGET:
        raise CapacityError(f"state budget exceeded: {n}^{ell + 2} > {STATE_BUDGET}")
    sweep = _Sweep(instance)
    gains, start, future = instance.gains, sweep.start, sweep.future
    # per position p: (start, gains) of each commodity through p
    through = [tuple((start[i], gains[i]) for i in ids) for ids in sweep.covering]

    def moves(windows, p):
        comms = through[p]
        cut_gains = [sum(g[len(w) - bisect_left(w, s)] for s, g in comms) for w in windows]
        return windows, [w[1:] + (p,) for w in windows], cut_gains

    def readable(windows, p):
        return [w[bisect_left(w, future[p]):] for w in windows]

    return sweep.run(tuple(range(-ell, 1)), moves, "dp-umax", {"u_max": ell}, readable)


def dp_pmax(instance: Instance) -> SolveResult:
    """Exact optimum, exponential only in the maximum path length.

    The state is the cut pattern of the last p_max positions as a bitmask
    (bit t set means position p-t is cut), which covers every commodity path
    entirely, so marginal gains are exact. The readable part of a mask is
    its low p - future[p] + 1 bits.

    The cut gains at p are scored once per distinct `readable(masks, p - 1)`:
    wherever a commodity runs through p, future[p - 1] == first[p], the
    lowest start among the commodities through p (a commodity through some
    q > p starting at or before p runs through p, so it starts at or after
    first[p], as does one starting after p), so that part holds every bit a
    commodity through p reads. Where none runs through p, no commodity
    gains, so the key does not matter.
    """
    ell = max((mask.bit_count() for mask in instance.paths), default=1)
    if instance.tree.is_path and (1 << ell) > WINDOW_BUDGET:
        raise CapacityError(f"window budget exceeded: 2^{ell} > {WINDOW_BUDGET}")
    sweep = _Sweep(instance)
    gains, start, future = instance.gains, sweep.start, sweep.future
    # per position p: (bits of the positions start_i .. p-1 in the state, gains of i)
    through = [
        tuple(((1 << (p - start[i])) - 1, gains[i]) for i in ids)
        for p, ids in enumerate(sweep.covering)
    ]
    full = (1 << ell) - 1

    def moves(masks, p):
        comms, memo, cut_gains = through[p], {}, []
        for key in readable(masks, p - 1):
            gain = memo.get(key)
            if gain is None:
                gain = memo[key] = sum(g[(key & before).bit_count()] for before, g in comms)
            cut_gains.append(gain)
        kept = [(mask << 1) & full for mask in masks]
        return kept, [k | 1 for k in kept], cut_gains

    def readable(masks, p):
        # bit t is position p - t, so bits 0..p - future[p] are the readable ones
        part = (1 << max(0, p - future[p] + 1)) - 1
        return [mask & part for mask in masks]

    return sweep.run(0, moves, "dp-pmax", {"p_max": ell}, readable)


def _slack_states(factors) -> int:
    """prod(factors), or SLACK_CAP once a partial product reaches it."""
    states = 1
    for factor in factors:
        states *= factor
        if states >= SLACK_CAP:
            return SLACK_CAP
    return states


def dp_congestion(instance: Instance) -> SolveResult:
    """Exact optimum, exponential only in the congestion.

    The state carries one slack value per commodity whose path covers the
    current position: budget minus cuts so far, with -1 meaning just dropped
    out and DEAD meaning over budget by two or more. Commodities whose path
    ended are projected out by maximizing. A commodity entering at p is an
    ordinary slot whose slack before p is its budget, so every slot follows
    one rule: its slack x is kept, or on a cut becomes DEAD if x < 0, else
    x - 1 with the marginal gain of a cut after u - x cuts. A slack of -1
    and DEAD earn the same from then on, but they stay distinct states:
    merging them would change which states meet, and so how ties break.
    """
    sweep = _Sweep(instance)
    comm, covering = instance.commodities, sweep.covering
    worst = max(_slack_states(comm[i].budget + 3 for i in ids) for ids in covering)
    if worst > TABLE_BUDGET:
        held = f"up to {worst}" if worst < SLACK_CAP else f"at least {worst}"
        raise CapacityError(f"slack table would hold {held} states > {TABLE_BUDGET}")
    gains = instance.gains

    # per position: (index in the previous state or -1 if entering, budget,
    # gains) for each covering commodity
    slots = [()]
    prev_index: dict[int, int] = {}
    for p in range(1, sweep.m + 1):
        ids = covering[p]
        slots.append(tuple((prev_index.get(i, -1), comm[i].budget, gains[i]) for i in ids))
        prev_index = {i: t for t, i in enumerate(ids)}

    def moves(states, p):
        all_kept, all_slashed, cut_gains = [], [], []
        for state in states:
            kept = []
            slashed = []
            gain = 0
            for t, u, g in slots[p]:
                # an entering commodity's slack before p is its whole budget
                x = state[t] if t >= 0 else u
                kept.append(x)
                if x < 0:
                    slashed.append(DEAD)
                else:
                    # slack x before the cut means u-x cuts lay on the path before it
                    gain += g[u - x]
                    slashed.append(x - 1)
            all_kept.append(tuple(kept))
            all_slashed.append(tuple(slashed))
            cut_gains.append(gain)
        return all_kept, all_slashed, cut_gains

    return sweep.run((), moves, "dp-cong", {"congestion": max(map(len, covering))})
