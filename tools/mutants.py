"""Run a committed list of one-edit mutants of `src/fza` against the tier-1
suite and report which ones it catches.

    python3 tools/mutants.py

`MUTANTS` lists each mutant as (file, source text, replacement, reason), and
marks the equivalent ones: edits that change no output, so no test can see
them. Before anything runs, every source text must occur exactly once in its
file; a refactor that moves or rewrites one must update the list with the
code. The repository is then copied once to a temporary directory, and each
mutant is applied there in turn and undone after its run.

A mutant is caught when a test outside `tools/tier1.py`'s `KNOWN_RED` fails,
or a module fails to collect, in tier-1's pytest command (read through its
junitxml report by `tier1.read_report`). Each mutant first runs the tests of
its own module (`tests/test_<module>.py`, stopping at the first failure);
only a mutant those tests miss runs the whole suite, criterion 10b included.
Bytecode is not written, so no stale `.pyc` can hide an edit. A run that
exceeds `TIMEOUT` seconds counts as caught.

The exit status is 0 when every mutant not marked equivalent is caught and
no equivalent one is, else 1 (also when a source text does not occur exactly
once). Standard library only; not part of tier-1, as a full pass takes
minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import tier1  # a sibling: the script's own directory is on sys.path

ROOT = tier1.ROOT
TIMEOUT = 900


class Mutant(NamedTuple):
    file: str
    source: str
    replacement: str
    reason: str
    equivalent: bool = False


MUTANTS = (
    Mutant(
        "src/fza/exact.py", "if bound <= best_rev:", "if bound < best_rev:",
        "brute force's prune test only loosens: a subtree that can at best tie is searched, and a tie never replaces the best",
        equivalent=True,
    ),
    Mutant(
        "src/fza/exact.py", "if c + r <= u:  # leaving", "if c + r < u:  # leaving",
        "brute force's bound update only loosens: the bound stays an upper bound, so pruning is later and the result the same",
        equivalent=True,
    ),
    Mutant(
        "src/fza/exact.py", "if child_rev > best_rev:", "if child_rev >= best_rev:",
        "brute force's tie rule: a later cut set of equal revenue would win",
    ),
    Mutant(
        "src/fza/exact.py", "        for e in range(start, m):", "        for e in range(start, m - 1):",
        "brute force never cuts the last edge: its cut set loses revenue yet scores as it claims",
    ),
    Mutant(
        "src/fza/exact.py", "if path >> e & 1]", "if path >> e + 1 & 1]",
        "brute force reads each edge's commodities off the next edge's mask bit",
    ),
    Mutant(
        "src/fza/exact.py", "range(min(len(vals), budgets[i] + 1))", "range(min(len(vals), budgets[i]))",
        "rooted_dp's budget off by one: a commodity at exactly its budget earns nothing",
    ),
    Mutant(
        "src/fza/exact.py", "if below[x + 1] > below[x]:\n            cuts.append(eid)",
        "if below[x + 1] >= below[x]:\n            cuts.append(eid)",
        "rooted_dp's reconstruction cuts on a tie",
    ),
    Mutant(
        "src/fza/exact.py", "range(lo, min(hi, slack) + 1)", "range(lo, min(hi, slack))",
        "the generalized path DP's budget off by one",
    ),
    Mutant(
        "src/fza/exact.py", "    below[y] = 0\n", "    below[0] = 0\n",
        "the generalized path DP's sentinel row admits zero cuts placed instead of y",
    ),
    Mutant(
        "src/fza/exact.py", "if below[x + 1] > below[x]:\n            cuts.append(j)",
        "if below[x + 1] >= below[x]:\n            cuts.append(j)",
        "the generalized path DP's reconstruction cuts on a tie",
    ),
    Mutant(
        "src/fza/exact.py", "if shift + count <= budget:", "if shift + count < budget:",
        "the generalized path DP's served test off by one",
    ),
    Mutant(
        "src/fza/exact.py", "        edge_ids = edge_ids[::-1]\n", "        edge_ids = edge_ids\n",
        "gen-rooted-path rooted at the far end of the path order reports each cut position as the edge counted from the other end",
    ),
    Mutant(
        "src/fza/model.py", "root_path[c.source] ^ root_path[c.target]", "root_path[c.source] | root_path[c.target]",
        "Instance.paths joins both ends' root paths, so a path keeps the edges above its meeting point",
    ),
    Mutant(
        "src/fza/model.py", "(0 <= c.source < n and 0 <= c.target < n)", "(0 <= c.source <= n and 0 <= c.target <= n)",
        "the Instance constructor admits an endpoint one past the last vertex",
    ),
    Mutant(
        "src/fza/model.py", "key = (s, t, min(c.budget, mask.bit_count()))", "key = (s, t, c.budget)",
        "normalize keys on the unclamped budget: budgets above a path's length are neither clamped nor merged",
    ),
    Mutant(
        "src/fza/model.py", "prices[x] if x <= budgets[i] else 0\n", "prices[x] if x < budgets[i] else 0\n",
        "Instance.value's budget off by one",
    ),
    Mutant(
        "src/fza/model.py", "below[parent[v]] ^= below[v]", "below[parent[v]] |= below[v]",
        "the per-edge bitsets keep a commodity whose ends meet below a vertex, so the edges above its path count it",
    ),
    Mutant(
        "src/fza/model.py", "total += prices[c] * _sum(members", "total += prices[c - 1] * _sum(members",
        "a count class's served commodities are priced at c - 1 cuts",
    ),
    Mutant(
        "src/fza/model.py", "        stack = [(everyone ^ over, len(counter), 0)]",
        "        over |= tied\n        stack = [(everyone ^ over, len(counter), 0)]",
        "the comparison counts a tie as over: only the commodities whose budget exceeds their cut count are served, "
        "so one cut exactly at its budget earns nothing",
    ),
    Mutant(
        "src/fza/model.py", "for j in reversed(range(len(counter))):", "for j in reversed(range(1, len(counter))):",
        "the comparison skips the counter's lowest plane, so a commodity cut once past an even budget is served",
    ),
    Mutant(
        "src/fza/model.py", "stack = [(everyone ^ over, len(counter), 0)]", "stack = [(everyone, len(counter), 0)]",
        "the class split serves every commodity, those cut past their budget included",
    ),
    Mutant(
        "src/fza/model.py", "            tied &= ~plane\n", "            pass\n",
        "the comparison ignores the budget planes above the counter's top plane, so a budget of 2^j or more "
        "is read by its low bits alone",
    ),
    Mutant(
        "src/fza/model.py", "for j in reversed(range(len(counter))):", "for j in range(len(counter)):",
        "the comparison reads the planes from low to high, so a lower plane decides where a higher one differs",
    ),
    Mutant(
        "src/fza/model.py", "stack.append((members ^ high, j - 1, c))", "stack.append((members ^ high if c else members, j - 1, c))",
        "class 0 keeps every commodity, so the cut commodities keep the empty-set value F[0] * W_i that they lose when cut",
    ),
    Mutant(
        "src/fza/model.py", "stack.append((high, j - 1, c | 1 << (j - 1)))", "stack.append((high, j - 1, c + 1))",
        "a class is priced by the number of bits set in its count, so the commodities cut 2, 4, 8 ... times are paid as cut once",
    ),
    Mutant(
        "src/fza/model.py", "carry &= plane", "carry |= plane",
        "the counter's carry keeps every commodity already on a plane, so a count carries where no bit overflowed",
    ),
    Mutant(
        "src/fza/model.py", "if high != members:", "if high != members and j > 1:",
        "the split drops each class whose lowest counter bit is 0: the uncut commodities and those cut an even number of times earn nothing",
    ),
    Mutant(
        "src/fza/model.py", "            if prices[c]:", "            if prices[c] and c:",
        "the commodities not cut lose their empty-set value F[0] * W_i",
    ),
    Mutant(
        "src/fza/model.py", "over |= tied & counter[j] & ~budget[j]", "over |= counter[j] & ~budget[j]",
        "the comparison counts a commodity over its budget by one plane where its count has a bit the budget lacks, "
        "whatever the higher planes",
    ),
    Mutant(
        "src/fza/model.py", "            if count <= budgets[i]:", "            if count < budgets[i]:",
        "the path-mask scoring kernel's budget off by one",
    ),
    Mutant(
        "src/fza/model.py", "if count <= c.budget:", "if count < c.budget:",
        "total_revenue's budget off by one",
    ),
    Mutant(
        "src/fza/model.py", "if best_score is None or s > best_score:", "if best_score is None or s >= best_score:",
        "first_best keeps the last of the tied candidates",
    ),
    Mutant(
        "src/fza/param_path.py", "if held is None or value > held[0]:", "if held is None or value >= held[0]:",
        "the path DP sweep's tie rule: a later move of equal value replaces the held one",
    ),
    Mutant(
        "src/fza/param_path.py", "x = state[t] if t >= 0 else u\n", "x = state[t] if t > 0 else u\n",
        "dp_congestion treats the first carried commodity as entering",
    ),
    Mutant(
        "src/fza/param_path.py", "x = state[t] if t >= 0 else u\n", "x = state[t] if t >= 0 else u - 1\n",
        "dp_congestion's entering commodity starts one cut into its budget",
    ),
    Mutant(
        "src/fza/param_path.py", "g[len(w) - bisect_left(w, s)]", "g[len(w) - bisect_left(w, s + 1)]",
        "dp_umax's gain by bisect_right: a cut at a commodity's first position goes uncounted",
    ),
    Mutant(
        "src/fza/param_path.py", "self.start = [a + 1 for a, _ in ends]", "self.start = [a for a, _ in ends]",
        "_Sweep.start one position early: each commodity starts at the place of its nearer end",
    ),
    Mutant(
        "src/fza/param_path.py", "range(a + 1, b + 1):", "range(a + 1, b):",
        "_Sweep.covering leaves each commodity off its last position",
    ),
    Mutant(
        "src/fza/param_path.py", "future[b - 1] = min(future[b - 1], a + 1)", "future[b] = min(future[b], a + 1)",
        "_Sweep.future also counts the commodities that end at p: it prunes less and gives the same outputs, so only a check of future itself sees it",
    ),
    Mutant(
        "src/fza/param_path.py", "if instance.tree.is_path and n ** (ell + 2)", "if n ** (ell + 2)",
        "dp_umax's guard refuses a tree that is not a path as over capacity, not as invalid",
    ),
    Mutant(
        "src/fza/param_path.py", "if instance.tree.is_path and (1 << ell)", "if (1 << ell)",
        "dp_pmax's guard refuses a tree that is not a path as over capacity, not as invalid",
    ),
    Mutant(
        "src/fza/param_path.py", "if states >= SLACK_CAP:", "if states > SLACK_CAP:",
        "the slack product stops one step later: every factor is a budget plus 3, so a product that reaches the cap "
        "either ends there, equal to SLACK_CAP, or passes it at the next factor and returns SLACK_CAP",
        equivalent=True,
    ),
    Mutant(
        "src/fza/param_path.py", "if worst > TABLE_BUDGET:", "if worst >= TABLE_BUDGET:",
        "dp_congestion refuses a slack table of exactly TABLE_BUDGET states",
    ),
    Mutant(
        "src/fza/param_path.py", "            return SLACK_CAP\n", "            return states\n",
        "dp_congestion's capped slack product stops at the first partial product past the cap, not at the cap",
    ),
    Mutant(
        "src/fza/density.py", "return (n - 1).bit_length()", "return n.bit_length()",
        "ceil_log2 off by one at powers of two: one class too many",
    ),
    Mutant(
        "src/fza/density.py", "range(1, ceil_log2(len(keys) + 1) + 1):", "range(1, ceil_log2(len(keys) + 1)):",
        "the offset buckets miss the last class",
    ),
    Mutant(
        "src/fza/density.py", "if bound <= high:", "if bound < 0:",
        "the bucket walk's bound never prunes: every filled bucket whose parent was kept is bounded, and in single_density seeds its stream",
    ),
    Mutant(
        "src/fza/density.py", "if bound <= high:", "if bound < high:",
        "the bucket walk's prune test only loosens: a bucket whose bound ties the best can at best tie, so no output changes, "
        "but on a tie it bounds its children, and the pinned pass count sees those passes",
    ),
    Mutant(
        "src/fza/density.py", "parents.get(theta % half)", "parents.get(theta // 2)",
        "the bucket walk reads the kept bucket of the wrong parent offset, (j - 1, theta // 2)",
    ),
    Mutant(
        "src/fza/density.py", "parent[0] == len(bucket)", "parent[0] >= len(bucket)",
        "the bucket walk reuses a parent's revenue and bound for every smaller bucket, not only for one that is its parent",
    ),
    Mutant(
        "src/fza/density.py", "revenue, bound = parent[1:] if same else", "revenue, bound = parent[1:] if False else",
        "the bucket walk never reuses a parent's pass: no output changes, but the pinned pass count sees the extra passes",
    ),
    Mutant(
        "src/fza/model.py", "return total, total + _sum(over, *self._plane_tables[2:])", "return total, total",
        "the cut bound drops the over-budget credit: it is the revenue of the full bucket, no bound on its subsets",
    ),
    Mutant(
        "src/fza/model.py", "return total, total + _sum(over, *self._plane_tables[2:])",
        "return total + _sum(over, *self._plane_tables[2:]), total + _sum(over, *self._plane_tables[2:])",
        "the joint pass returns the bound as the revenue, so an unthinned bucket scores its bound",
    ),
    Mutant(
        "src/fza/model.py", "over |= tied & counter[j] & ~budget[j]", "over = tied & counter[j] & ~budget[j]",
        "the over-budget set keeps only the lowest plane's finds, so a commodity found over at a higher plane is served as if within its budget",
    ),
    Mutant(
        "src/fza/model.py", "w * prices[min(u, n - 1)] for w, u", "w * prices[min(u, n - 1) - 1] for w, u",
        "the top values price one cut below each budget",
    ),
    Mutant(
        "src/fza/generators.py", "if self.num_vertices > MAX_VERTICES:", "if self.num_vertices >= MAX_VERTICES:",
        "GenSpec refuses a random instance of exactly MAX_VERTICES vertices",
    ),
    Mutant(
        "src/fza/generators.py", "commodities.append(Commodity(left + 1, left + 4, 1, big))",
        "commodities.append(Commodity(left + 0, left + 4, 1, big))",
        "the path gadget's budget-1 commodity starts one edge early, in block A",
    ),
    Mutant(
        "src/fza/cli.py", "formula.num_clauses + 1", "formula.num_clauses + 2",
        "fza gen path-sat's default M is the clause count plus two",
    ),
    Mutant(
        "src/fza/sublog.py", "while (1 << (d * d)) < n:", "while (1 << (d * d)) <= n:",
        "branching_parameter steps d up one n early (at n = 16 and 512)",
    ),
    Mutant(
        "src/fza/sublog.py", "if 3 * d * len(remainder) >= m:", "if 3 * d * len(remainder) > m:",
        "the carve's remainder at exactly the lower size bound joins a piece instead of standing alone",
    ),
    Mutant(
        "src/fza/sublog.py",
        "piece_of[run:stop] = [piece_of[i]] * (stop - run)",
        "piece_of[run:stop] = [piece_of[first[run]]] * (stop - run)",
        "an edge whose bucket did not close takes the piece of its child's first edge instead of its parent edge's",
    ),
    Mutant(
        "src/fza/sublog.py", "                run = j + 1\n", "                run = j + 2\n",
        "after a bucket closes, the next run restarts one child late, so that child's edge joins no bucket",
    ),
    Mutant(
        "src/fza/sublog.py", "cut_at.append(i)", "cut_at.append(j)",
        "each piece counts as cut off at its run's last child, not the vertex above, so a small remainder finds no piece to join",
    ),
    Mutant(
        "src/fza/sublog.py", "pairs = sorted(hub_index[v])", "pairs = hub_index[v]",
        "the carve reads a hub's neighbors in the fragment's order, not sorted, so the walk's order changes at hubs",
    ),
    Mutant(
        "src/fza/sublog.py", "    while p <= length:", "    while p < length:",
        "segment_guesses drops the guess equal to a power-of-two segment length",
    ),
    Mutant(
        "src/fza/sublog.py", "if shift <= budget:", "if shift < budget:",
        "an aux row whose committed cuts use its whole budget is dropped",
    ),
    Mutant(
        "src/fza/sublog.py", "if cut > keep:", "if cut >= keep:",
        "the single-edge class cuts an edge on a tie",
    ),
    Mutant(
        "src/fza/sublog.py", "for v in verts[1:]}", "for v in verts}",
        "subtree_of also maps each attachment, a skeleton vertex, to a hanging subtree",
    ),
    Mutant(
        "src/fza/sublog.py",
        "    subtrees.sort(key=lambda sub: min(sub[1]))\n    subtree_of = {v: idx for idx, (verts, _) in enumerate(subtrees) for v in verts[1:]}\n",
        "    subtree_of = {v: idx for idx, (verts, _) in enumerate(subtrees) for v in verts[1:]}\n    subtrees.sort(key=lambda sub: min(sub[1]))\n",
        "subtree_of numbers the hanging subtrees in walk order, before they are sorted",
    ),
    Mutant(
        "src/fza/sublog.py", "(t1 if rng.random() < 0.5 else t2)", "(t2 if rng.random() < 0.5 else t1)",
        "skeleton_solve roots each surviving segment at the other terminal of its coin",
    ),
    Mutant(
        "src/fza/sublog.py", "sum(guesses[s] for s in held if active[s])", "sum(guesses[s] for s in held)",
        "an aux row's shift also counts the guess of a deactivated held segment",
    ),
    Mutant(
        "src/fza/sublog.py",
        "kids = [decomp.levels[level][c] for c in decomp.children[level - 1][idx]]",
        "kids = [decomp.levels[level - 1][c] for c in decomp.children[level - 1][idx]]",
        "the plan builds each skeleton from fragments of the fragment's own level, not its children",
    ),
    Mutant(
        "src/fza/sublog.py",
        "for (level, idx), ids in sorted(by_fragment.items()):",
        "for (level, idx), ids in by_fragment.items():",
        "the plan lists fragments in commodity order, not by (level, index), so sublog splits a level's candidate",
    ),
    Mutant(
        "src/fza/sublog.py",
        "        for root in seg.terminals\n    }",
        "        for root in seg.terminals[:1]\n    }",
        "a fragment's member rows cover only each segment's lower terminal, so a segment rooted at its upper one has none",
    ),
    Mutant(
        "src/fza/model.py",
        "    @cached_property\n    def _sublog_plan(self):",
        "    @property\n    def _sublog_plan(self):",
        "every sublog call on an instance builds its own plan again, so a bench grid's seeds no longer share it",
    ),
)


def source_problems(mutants, read) -> list[str]:
    """One line per mutant whose source text does not occur exactly once in
    its file; `read(file)` gives a file's text."""
    problems = []
    for n, mutant in enumerate(mutants, 1):
        count = read(mutant.file).count(mutant.source)
        if count != 1:
            problems.append(f"mutant {n} ({mutant.file}): source text occurs {count} times: {mutant.source!r}")
    return problems


def caught(failed: set[str], collection_errors: int) -> bool:
    """A run catches its mutant when a test outside the known red set fails
    or a module fails to collect."""
    return bool(failed - tier1.KNOWN_RED) or collection_errors > 0


def verdict(outcomes) -> tuple[int, list[str]]:
    """(exit status, one line per problem) over (mutant, caught) pairs: a
    mutant not marked equivalent must be caught, and one marked equivalent
    must not be."""
    problems = []
    for n, (mutant, was_caught) in enumerate(outcomes, 1):
        if not was_caught and not mutant.equivalent:
            problems.append(f"mutant {n} ({mutant.file}) survived: {mutant.reason}")
        elif was_caught and mutant.equivalent:
            problems.append(f"mutant {n} ({mutant.file}) is marked equivalent but was caught: {mutant.reason}")
    return (1 if problems else 0), problems


def run_tests(copy: Path, targets: list[str], first_failure: bool) -> tuple[bool, str]:
    """Run tier-1's pytest command on `targets` in `copy`: (caught, detail)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    report = copy.parent / "mutant.xml"
    report.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
        f"--junitxml={report}", *(["-x"] if first_failure else []), *targets,
    ]
    try:
        subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT} s"
    if not report.is_file():
        return True, "pytest wrote no junit report"
    _, failed, collection_errors = tier1.read_report(report)
    if not caught(failed, collection_errors):
        return False, ""
    first = sorted(failed - tier1.KNOWN_RED)
    return True, first[0] if first else f"{collection_errors} collection errors"


def main() -> int:
    problems = source_problems(MUTANTS, lambda file: (ROOT / file).read_text(encoding="utf-8"))
    if problems:
        print("\n".join(problems))
        return 1
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "_work"))
        for n, mutant in enumerate(MUTANTS, 1):
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.source, mutant.replacement), encoding="utf-8")
            start = time.monotonic()
            try:
                own = f"tests/test_{Path(mutant.file).stem}.py"
                was_caught, detail = run_tests(copy, [own], True) if (copy / own).is_file() else (False, "")
                if not was_caught:
                    was_caught, detail = run_tests(copy, [], False)
            finally:
                path.write_text(original, encoding="utf-8")
            label = "caught" if was_caught else "survived"
            mark = " (marked equivalent)" if mutant.equivalent else ""
            print(f"{n:3d} {label:8s} {time.monotonic() - start:6.1f} s  {mutant.file}: {mutant.reason}{mark}")
            if detail:
                print(f"{'':22s}by {detail}")
            sys.stdout.flush()
            outcomes.append((mutant, was_caught))
    code, problems = verdict(outcomes)
    for line in problems:
        print(line)
    print(f"{sum(c for _, c in outcomes)} of {len(outcomes)} mutants caught; " + ("as listed" if code == 0 else "not as listed"))
    return code


if __name__ == "__main__":
    sys.exit(main())
