"""Canonical JSON serialization for instances and solutions.

Rationals travel as lowest-terms strings; keys are sorted and the layout is
fixed, so writing the same object twice yields identical bytes and
write(read(f)) == f for canonically written files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .model import (
    Commodity,
    Instance,
    InvalidInstanceError,
    PricingFunction,
    SolveResult,
    Tree,
    format_fraction,
    normalize,
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


def _int(value, what: str) -> int:
    """A JSON integer; booleans and floats are refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInstanceError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    """A JSON list; an object or a string is refused rather than iterated."""
    if not isinstance(value, list):
        raise InvalidInstanceError(f"{what} must be a list, got {value!r}")
    return value


def _edge(value) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidInstanceError(f"edge must be a pair of vertices, got {value!r}")
    return _int(value[0], "edge endpoint"), _int(value[1], "edge endpoint")


def dict_to_instance(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InvalidInstanceError(f"instance must be a JSON object, got {type(data).__name__}")
    try:
        if _int(data.get("version"), "version") != FORMAT_VERSION:
            raise InvalidInstanceError(f"unsupported format version {data['version']}")
        n = _int(data["num_vertices"], "num_vertices")
        tree = Tree(n, tuple(_edge(e) for e in _list(data["edges"], "edges")))
        pricing = PricingFunction(tuple(to_fraction(v) for v in _list(data["pricing"], "pricing")))
        commodities = [
            Commodity(_int(c["s"], "s"), _int(c["t"], "t"), _int(c["u"], "u"), to_fraction(c["w"]))
            for c in _list(data["commodities"], "commodities")
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance file: {exc}") from exc
    return normalize(Instance.create(tree, pricing, commodities))


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_instance(instance: Instance, path: PathLike) -> None:
    Path(path).write_text(dumps_canonical(instance_to_dict(instance)), encoding="utf-8")


def read_instance(path: PathLike) -> Instance:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {path}") from exc
    return dict_to_instance(data)


def solution_to_dict(result: SolveResult) -> dict:
    out = {
        "cuts": list(result.cuts),
        "revenue": format_fraction(result.revenue),
        "revenue_float": float(result.revenue),
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
