"""Canonical JSON serialization for instances and solutions.

Rationals travel as lowest-terms strings; keys are sorted and the layout is
fixed, so writing the same object twice yields identical bytes and
write(read(f)) == f for canonically written files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .model import (
    Commodity,
    FzaError,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    SolveResult,
    Tree,
    as_int,
    format_fraction,
    normalize,
    shown,
    to_fraction,
)

FORMAT_VERSION = 1
PathLike = Union[str, Path]


def instance_to_dict(instance: Instance) -> dict:
    return {
        "version": FORMAT_VERSION,
        "num_vertices": instance.tree.num_vertices,
        "edges": [[u, v] for u, v in instance.tree.edges],
        "pricing": [format_fraction(v) for v in instance.pricing.values],
        "commodities": [
            {
                "s": c.source,
                "t": c.target,
                "u": c.budget,
                "w": format_fraction(c.weight),
            }
            for c in instance.commodities
        ],
    }


def _list(value, what: str) -> list:
    """A JSON list; an object or a string is refused rather than iterated."""
    if not isinstance(value, list):
        raise InvalidInstanceError(f"{what} must be a list, got {shown(value)}")
    return value


def _edge(value) -> list:
    """A JSON pair; `Tree` refuses endpoints that are not ints."""
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidInstanceError(f"edge must be a pair of vertices, got {shown(value)}")
    return value


def dict_to_instance(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InvalidInstanceError(f"instance must be a JSON object, got {type(data).__name__}")
    # one Fraction per distinct rational string, shared by prices and weights;
    # keyed on strings alone, since a dict keyed on JSON values would hand an
    # earlier 1's Fraction to a later true or 1.0
    parsed: dict[str, Fraction] = {}

    def rational(value) -> Fraction:
        if type(value) is not str:
            return to_fraction(value)
        f = parsed.get(value)
        if f is None:
            f = parsed[value] = to_fraction(value)
        return f

    try:
        if as_int(data.get("version"), "version") != FORMAT_VERSION:
            raise InvalidInstanceError(f"unsupported format version {data['version']}")
        tree = Tree(data["num_vertices"], tuple(_edge(e) for e in _list(data["edges"], "edges")))
        pricing = PricingFunction(tuple(map(rational, _list(data["pricing"], "pricing"))))
        commodities = [
            Commodity(c["s"], c["t"], c["u"], rational(c["w"]))
            for c in _list(data["commodities"], "commodities")
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance file: {exc}") from exc
    return normalize(Instance.create(tree, pricing, commodities))


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_instance(instance: Instance, path: PathLike) -> None:
    Path(path).write_text(dumps_canonical(instance_to_dict(instance)), encoding="utf-8")


def read_json(path: PathLike):
    """The JSON value of a UTF-8 file; a file that does not decode is invalid
    input, and the one-line message names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInstanceError(f"not valid JSON: {path}") from exc
    except ValueError as exc:
        # an integer literal past Python's int-string digit limit
        raise InvalidInstanceError(f"JSON integer too long: {path}") from exc
    except RecursionError as exc:
        raise InvalidInstanceError(f"JSON nested too deeply: {path}") from exc


def read_instance(path: PathLike) -> Instance:
    return dict_to_instance(read_json(path))


def solution_to_dict(result: SolveResult) -> dict:
    try:
        revenue_float = float(result.revenue)
    except OverflowError as exc:
        raise FzaError("revenue is beyond float range, so it has no revenue_float") from exc
    out = {
        "cuts": list(result.cuts),
        "revenue": format_fraction(result.revenue),
        "revenue_float": revenue_float,
        "served": list(result.served),
        "algorithm": result.algorithm,
        "seed": result.seed,
    }
    if result.diagnostics:
        out["diagnostics"] = result.diagnostics
    return out


def solution_to_json(result: SolveResult) -> str:
    return dumps_canonical(solution_to_dict(result))


def write_solution(result: SolveResult, path: PathLike) -> None:
    Path(path).write_text(solution_to_json(result), encoding="utf-8")
