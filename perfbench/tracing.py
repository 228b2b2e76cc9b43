"""Outside-in spans around fza's layers.

The benchmark wraps fza's module-level functions (and a few class methods)
from here, without touching the package: for each traced function, every
binding a caller can look it up through is replaced, e.g. both
`fza.exact.generalized_rooted_path_dp` and `fza.sublog.generalized_rooted_path_dp`,
plus the function references held in `fza.bench.SOLVERS`.

A span records (name, start, end, parent span, op id). Spans stay in memory
until the run ends. A span's self time is its duration minus the durations of
its child spans; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


def _count_read(counts, args, kwargs, result):
    counts["files.read_instance.bytes"] += os.path.getsize(args[0])


def _count_write(counts, args, kwargs, result):
    counts["files.write_solution.bytes"] += os.path.getsize(args[1])


def _count_total(counts, args, kwargs, result):
    counts["model.revenue.terms"] += args[0].num_commodities


def _count_revenue_for(counts, args, kwargs, result):
    counts["model.revenue.terms"] += len(args[1])


def _count_argmax(counts, args, kwargs, result):
    instance, candidates = args[0], args[1]
    counts["density.candidates"] += len(candidates)
    counts["density.eval_terms"] += len(candidates) * instance.num_commodities


def _count_aux(counts, args, kwargs, result):
    counts["sublog.build_aux_instance.scanned"] += len(args[6])
    counts["sublog.build_aux_instance.kept"] += len(result[0].commodities)


def _count_guesses(counts, args, kwargs, result):
    segment_guesses = sys.modules["fza.sublog"].segment_guesses
    counts["sublog.skeleton_solve.guesses"] += math.prod(
        len(segment_guesses(len(s))) for s in args[1].segments
    )


def _count_brute(counts, args, kwargs, result):
    counts["exact.brute_force.cut_sets"] += 1 << args[0].tree.num_edges


def _count_rows(counts, args, kwargs, result):
    counts["bench.rows"] += result["rows"]


# (module, attribute path, counter or None). Some functions without a metric
# of their own (the other solver entry points, `parameters`) are traced too,
# so that their time does not land in their callers' self time.
SPANS = (
    ("cli", "main", None),
    ("bench", "run_bench", _count_rows),
    ("files", "read_instance", _count_read),
    ("files", "write_solution", _count_write),
    ("model", "normalize", None),
    ("model", "Instance.create", None),
    ("model", "Tree.rooted", None),
    ("model", "make_result", None),
    ("model", "total_revenue_mask", _count_total),
    ("model", "revenue_for", _count_revenue_for),
    ("model", "parameters", None),
    ("density", "single_density", None),
    ("density", "single_density_base", None),
    ("density", "single_density_path", None),
    ("density", "simplified_single_density", None),
    ("density", "_argmax_candidates", _count_argmax),
    ("sublog", "sublog", None),
    ("sublog", "build_decomposition", None),
    ("sublog", "classify_commodities", None),
    ("sublog", "compute_skeleton", None),
    ("sublog", "non_skeleton_solve", None),
    ("sublog", "skeleton_solve", _count_guesses),
    ("sublog", "build_aux_instance", _count_aux),
    ("exact", "brute_force", _count_brute),
    ("exact", "rooted_dp", None),
    ("exact", "generalized_rooted_path_dp", None),
    ("exact", "generalized_from_instance", None),
    ("exact", "GeneralizedCommodity.__init__", None),
    ("param_path", "dp_umax", None),
    ("param_path", "dp_pmax", None),
    ("param_path", "dp_congestion", None),
)

# called once per DP state transition: counted, not timed
COUNTED = (("param_path", "_update"),)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Patches fza on `install`, undoes it on `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fza" and not mod_name.startswith("fza."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
        solvers = sys.modules["fza.bench"].SOLVERS
        for key, (fn, uses_seed) in list(solvers.items()):
            if fn is original:
                self._undo.append((solvers, key, solvers[key]))
                solvers[key] = (replacement, uses_seed)

    def install(self) -> None:
        for module, attr, count in SPANS:
            mod = importlib.import_module(f"fza.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._span(name, raw.__func__, count)))
                else:
                    self._set(cls, meth, self._span(name, raw, count))
            else:
                original = vars(mod)[attr]
                self._replace_everywhere(original, self._span(name, original, count))
        for module, attr in COUNTED:
            mod = importlib.import_module(f"fza.{module}")
            original = vars(mod)[attr]
            self._replace_everywhere(original, self._counter(span_name(module, attr), original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
