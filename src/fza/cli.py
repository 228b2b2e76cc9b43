"""Command line interface.

Exit codes: 0 success, 2 invalid input, 3 capacity guard tripped.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import re
import sys

from .bench import SOLVERS, BenchConfig, run_bench
from .files import read_instance, solution_to_json, write_instance, write_solution
from .generators import (
    PRICING_PRESETS,
    Formula2CNF,
    GenSpec,
    gen_path_from_2sat,
    gen_random,
    gen_star_from_2sat,
)
from .model import CapacityError, FzaError, InvalidInstanceError, parameters, shown


# a signed ASCII integer: `int` alone would also read "1_0" and non-ASCII digits
_LITERAL = re.compile(r"[+-]?[0-9]+", re.ASCII)


def _integer(text: str) -> int:
    """argparse type of every integer option, and the reader of each
    `--clauses` literal: a `_LITERAL` within Python's int-string limit, else
    exit 2 with one line that `shown` cuts short."""
    if _LITERAL.fullmatch(text):
        with contextlib.suppress(ValueError):  # more digits than the limit
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid integer {shown(text)}")


def parse_clauses(text: str, num_vars: int | None = None) -> Formula2CNF:
    """Parse '1 -2, -1 -2' style clause lists (1-based signed variables)."""
    clauses = []
    top = 0
    for chunk in text.split(","):
        lits = chunk.split()
        if len(lits) != 2:
            raise InvalidInstanceError(f"clause {chunk!r} needs exactly two literals")
        pair = []
        for lit in lits:
            try:
                value = _integer(lit)
            except argparse.ArgumentTypeError:
                raise InvalidInstanceError(f"bad literal {shown(lit)}") from None
            if value == 0:
                raise InvalidInstanceError("literal 0 is not allowed")
            if num_vars is not None and abs(value) > num_vars:
                raise InvalidInstanceError(f"literal {value} out of range: variables are 1..{num_vars}")
            pair.append((abs(value) - 1, value < 0))
            top = max(top, abs(value))
        clauses.append((pair[0], pair[1]))
    return Formula2CNF(num_vars if num_vars is not None else top, tuple(clauses))


def _solve(args) -> int:
    instance = read_instance(args.input)
    solver = SOLVERS[args.algo][0]
    # per-algorithm options reach only a solver whose signature names them
    params = inspect.signature(solver).parameters
    extras = {k: getattr(args, k) for k in ("root", "cuts", "diagnostics") if k in params}
    result = solver(instance, args.seed, **extras)
    if args.output:
        write_solution(result, args.output)
    else:
        sys.stdout.write(solution_to_json(result))
    return 0


def _gen(args) -> int:
    if args.family == "random":
        spec = GenSpec(
            family="random-path" if args.shape == "path" else "random-tree",
            num_vertices=args.vertices,
            num_commodities=args.commodities,
            pricing=args.pricing,
            max_weight=args.max_weight,
            fractional_weights=args.fractional_weights,
            seed=args.seed,
        )
        instance = gen_random(spec)
    else:
        if not args.clauses:
            raise InvalidInstanceError("--clauses is required for SAT families")
        formula = parse_clauses(args.clauses, args.num_vars)
        if args.family == "star-sat":
            instance, target = gen_star_from_2sat(formula)
        else:
            big_m = args.big_m if args.big_m is not None else formula.num_clauses + 1
            instance, target = gen_path_from_2sat(formula, big_m)
        sys.stderr.write(
            f"target revenue: {target.offset} + {target.per_clause} * y\n"
        )
    write_instance(instance, args.output)
    return 0


def _bench(args) -> int:
    config = BenchConfig.from_file(args.config)
    summary = run_bench(config, args.output_dir)
    sys.stdout.write(f"bench complete: {summary['rows']} rows -> {args.output_dir}\n")
    return 0


def _validate(args) -> int:
    instance = read_instance(args.input)
    p = parameters(instance)
    sys.stdout.write(
        f"ok: n={instance.tree.num_vertices} m={instance.tree.num_edges} "
        f"k={instance.num_commodities} u_max={p.u_max} p_max={p.p_max} "
        f"congestion={p.congestion} base_revenue={instance.pricing.base_revenue}\n"
    )
    return 0


# one parser per process: parsing leaves it unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fza", description="Fare zone assignment solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver on an instance file")
    solve.add_argument("--algo", required=True, choices=SOLVERS)
    solve.add_argument("--input", required=True)
    solve.add_argument("--output")
    solve.add_argument("--seed", type=_integer, default=0)
    solve.add_argument("--root", type=_integer, default=0)
    solve.add_argument("--cuts", type=_integer, default=None, help="exact cut count for gen-rooted-path")
    solve.add_argument("--diagnostics", action="store_true")
    solve.set_defaults(func=_solve)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("family", choices=("random", "star-sat", "path-sat"))
    gen.add_argument("--output", required=True)
    gen.add_argument("--seed", type=_integer, default=0)
    gen.add_argument("--vertices", type=_integer, default=10)
    gen.add_argument("--commodities", type=_integer, default=10)
    gen.add_argument("--shape", choices=("tree", "path"), default="tree")
    gen.add_argument("--pricing", choices=PRICING_PRESETS, default="linear")
    gen.add_argument("--max-weight", type=_integer, default=10)
    gen.add_argument("--fractional-weights", action="store_true")
    gen.add_argument("--clauses", help="e.g. '1 -2, -1 -2' (1-based, negative = negated)")
    gen.add_argument("--num-vars", type=_integer, default=None)
    gen.add_argument("--big-m", default=None, help="M for path-sat, default m+1")
    gen.set_defaults(func=_gen)

    bench = sub.add_parser("bench", help="run a benchmark config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--output-dir", required=True)
    bench.set_defaults(func=_bench)

    validate = sub.add_parser("validate", help="check an instance file")
    validate.add_argument("--input", required=True)
    validate.set_defaults(func=_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return 3
    except (InvalidInstanceError, FzaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
