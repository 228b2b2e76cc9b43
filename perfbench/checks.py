"""Output checks that do not trust fza.

`rescore` reads an instance file with plain `json` and `Fraction` and never
imports `fza.model`. `Checker` holds every op's expected digest, compares each
output against it and runs the cross-checks between outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import deque
from fractions import Fraction
from pathlib import Path

from workloads import Op, Workload, ceil_log2

GOLDEN = Path(__file__).with_name("golden.json")


def rescore(instance_path: Path, cuts) -> tuple[Fraction, list[bool]]:
    """Revenue and served flags of a cut set, straight from the instance file."""
    data = json.loads(Path(instance_path).read_text(encoding="utf-8"))
    n = data["num_vertices"]
    prices = [Fraction(p) for p in data["pricing"]]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(data["edges"]):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w, eid in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w], parent_edge[w], depth[w] = v, eid, depth[v] + 1
                queue.append(w)
    cut = set(cuts)
    total = Fraction(0)
    served = []
    for c in data["commodities"]:
        a, b = c["s"], c["t"]
        count = 0
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            count += parent_edge[a] in cut
            a = parent[a]
        ok = count <= c["u"]
        served.append(ok)
        if ok:
            total += Fraction(c["w"]) * prices[count]
    return total, served


def solve_digest(solution: dict) -> str:
    """Digest of everything a solve reports except `diagnostics`, which may
    gain counters without the solution changing."""
    fields = [solution[k] for k in ("cuts", "revenue", "served", "algorithm", "seed")]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def bench_digest(report: bytes, summary: bytes) -> str:
    h = hashlib.sha256(report)
    h.update(b"\0")
    h.update(summary)
    return h.hexdigest()[:16]


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class Checker:
    """Checks each op's output; remembers the first verified output per op.

    An op execution fails on a non-zero exit, an output that differs from
    golden.json (or from the op's first output in this run), or an output the
    independent checks reject. A failed cross-check fails every op in it.
    """

    def __init__(self, workload: Workload, golden: dict[str, str] | None):
        self.workload = workload
        self.golden = golden
        self.digest: dict[str, str] = {}
        self.revenue: dict[str, Fraction] = {}
        self.bad: dict[str, str] = {}  # op key -> first reason it failed

    def fail(self, key: str, reason: str) -> None:
        self.bad.setdefault(key, reason)

    def check(self, op: Op, exit_code: int) -> None:
        """Check the output the op just wrote."""
        if exit_code != 0:
            self.fail(op.key, f"exit code {exit_code}")
            return
        try:
            digest = self._read(op)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(op.key, f"unreadable output: {exc}")
            return
        if op.key in self.digest:
            if digest != self.digest[op.key]:
                self.fail(op.key, "output differs from this op's earlier output")
            return
        self.digest[op.key] = digest
        if self.golden is not None and self.golden.get(op.key) != digest:
            self.fail(op.key, f"golden mismatch: {digest} vs {self.golden.get(op.key)}")
        self._verify_new(op)

    def _read(self, op: Op) -> str:
        if op.is_bench:
            return bench_digest(
                (op.output / "report.csv").read_bytes(), (op.output / "summary.json").read_bytes()
            )
        return solve_digest(json.loads(op.output.read_text(encoding="utf-8")))

    def _verify_new(self, op: Op) -> None:
        if op.is_bench:
            self._verify_bench(op)
            return
        sol = json.loads(op.output.read_text(encoding="utf-8"))
        revenue = Fraction(sol["revenue"])
        self.revenue[op.key] = revenue
        expected, served = rescore(op.instance, sol["cuts"])
        if expected != revenue:
            self.fail(op.key, f"revenue {revenue} re-scores to {expected}")
        elif served != sol["served"]:
            self.fail(op.key, "served flags do not match the cut set")

    def _verify_bench(self, op: Op) -> None:
        rows = list(csv.DictReader(io.StringIO((op.output / "report.csv").read_text(encoding="utf-8"))))
        summary = json.loads((op.output / "summary.json").read_text(encoding="utf-8"))
        n = json.loads(op.instance.read_text(encoding="utf-8"))["num_vertices"]
        levels = ceil_log2(n) + 1
        need = {"single-density-path": 6 * levels, "single-density-base": 12 * levels}
        if summary["rows"] != len(rows) or op.solves != len(rows) + 1:
            self.fail(op.key, f"{len(rows)} report rows, summary says {summary['rows']}")
        for row in rows:
            if row["status"] != "ok":
                self.fail(op.key, f"{row['algorithm']} seed {row['seed']}: status {row['status']}")
                continue
            revenue, opt = Fraction(row["revenue"]), Fraction(row["oracle_revenue"])
            if revenue > opt:
                self.fail(op.key, f"{row['algorithm']} beats the brute oracle")
            k = need.get(row["algorithm"])
            if k is not None and revenue * k < opt:
                self.fail(op.key, f"{row['algorithm']} misses its 1/{k} bound")

    def cross_check(self) -> None:
        """Run once every op has produced an output."""
        w = self.workload
        for keys in w.agree:
            if len({self.revenue.get(k) for k in keys}) != 1:
                for k in keys:
                    self.fail(k, "exact solvers disagree")
        for rooted, gens in w.rooted_max:
            best = max((self.revenue.get(k, Fraction(-1)) for k in gens), default=None)
            if best != self.revenue.get(rooted):
                for k in (rooted, *gens):
                    self.fail(k, "max over y of gen-rooted-path differs from rooted")
        for key, oracle, k in w.bounds:
            if key not in self.revenue or oracle not in self.revenue:
                self.fail(key, "bound check without outputs")
            elif self.revenue[key] * k < self.revenue[oracle]:
                self.fail(key, f"misses its 1/{k} bound")
