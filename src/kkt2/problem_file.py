"""Problem-definition files.

JSON, strict (unknown keys are errors), restricted to quadratic data plus
the named builtins; arbitrary smooth functions are available only through
the programmatic API.  Box bounds use the string sentinels "inf"/"-inf";
all other numbers must be finite.  Quadratic matrices are given in sparse
triplet form [i, j, value]; off-diagonal entries need both mirror triplets
(asymmetry beyond 1e-9 is an error, smaller asymmetry is averaged away).

Parsing is round-trip stable: parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SearchBudget, Tolerances
from .errors import ParseError
from .model import BoxSet, ProblemSpec, quadratic

_TOP_KEYS_BUILTIN = {"builtin", "grid", "trunc", "seed", "tolerances", "budget"}
_TOP_KEYS_EXPLICIT = {
    "dimension", "weights", "box", "objective", "constraints", "m1",
    "seed", "tolerances", "budget",
}
_FUNC_KEYS = {"constant", "linear", "quadratic"}
_BOX_KEYS = {"lower", "upper"}
_TOL_KEYS = {f.name for f in dataclasses.fields(Tolerances)}
_BUDGET_KEYS = {f.name for f in dataclasses.fields(SearchBudget)} - {"seed"}


@dataclass(frozen=True)
class QuadraticData:
    constant: float
    linear: tuple[float, ...]
    matrix: np.ndarray  # dense symmetric

    def to_dict(self) -> dict:
        triplets = []
        n = len(self.linear)
        for i in range(n):
            for j in range(n):
                if self.matrix[i, j] != 0.0:
                    triplets.append([i, j, float(self.matrix[i, j])])
        return {
            "constant": self.constant,
            "linear": list(self.linear),
            "quadratic": triplets,
        }


@dataclass(frozen=True)
class ProblemFile:
    builtin: Optional[str]
    builtin_size: Optional[int]
    dimension: Optional[int]
    weights: Optional[tuple[float, ...]]
    box_lower: Optional[tuple[float, ...]]
    box_upper: Optional[tuple[float, ...]]
    objective: Optional[QuadraticData]
    constraints: tuple[QuadraticData, ...]
    m1: int
    seed: Optional[int]
    tolerances: Optional[dict]
    budget: Optional[dict]

    def to_dict(self) -> dict:
        if self.builtin is not None:
            out: dict = {"builtin": self.builtin}
            out["grid" if self.builtin == "example1" else "trunc"] = self.builtin_size
        else:
            out = {
                "dimension": self.dimension,
                "box": {
                    "lower": [_bound_out(v) for v in self.box_lower or ()],
                    "upper": [_bound_out(v) for v in self.box_upper or ()],
                },
                "objective": self.objective.to_dict() if self.objective else None,
                "constraints": [c.to_dict() for c in self.constraints],
                "m1": self.m1,
            }
            if self.weights is not None:
                out["weights"] = list(self.weights)
        if self.seed is not None:
            out["seed"] = self.seed
        if self.tolerances is not None:
            out["tolerances"] = dict(self.tolerances)
        if self.budget is not None:
            out["budget"] = dict(self.budget)
        return out

    def build(self):
        """Returns (ProblemSpec, default point or None)."""
        from .examples import build_example1, build_example2

        if self.builtin == "example1":
            ex = build_example1(self.builtin_size or 120)
            return ex.problem, ex.xbar
        if self.builtin == "example2":
            ex = build_example2(self.builtin_size or 8)
            return ex.problem, ex.xbar
        n = self.dimension
        assert n is not None and self.objective is not None
        weights = np.array(self.weights) if self.weights is not None else np.ones(n)
        obj = quadratic(
            self.objective.constant,
            np.array(self.objective.linear),
            self.objective.matrix,
            weights,
            name="objective",
        )
        cons = tuple(
            quadratic(c.constant, np.array(c.linear), c.matrix, weights,
                      name=f"constraint_{i}")
            for i, c in enumerate(self.constraints)
        )
        box = BoxSet(np.array(self.box_lower), np.array(self.box_upper))
        spec = ProblemSpec(obj, cons, self.m1, box, weights, name="file problem")
        return spec, None

    def make_tolerances(self) -> Tolerances:
        return dataclasses.replace(Tolerances(), **(self.tolerances or {}))

    def make_budget(self, seed: int) -> SearchBudget:
        return SearchBudget(seed=seed, **(self.budget or {}))


def _bound_out(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _require_keys(d: dict, allowed: set, path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", path)


def _finite_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"expected a number, got {type(v).__name__}", path)
    f = float(v)
    if not math.isfinite(f):
        raise ParseError("number must be finite", path)
    return f


def _bound_number(v, path: str) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return _finite_number(v, path)


def _vector(v, n: Optional[int], path: str, bounds: bool = False) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ParseError("expected a list", path)
    if n is not None and len(v) != n:
        raise ParseError(f"expected length {n}, got {len(v)}", path)
    conv = _bound_number if bounds else _finite_number
    return tuple(conv(x, f"{path}[{i}]") for i, x in enumerate(v))


def _parse_quadratic(d, n: int, path: str) -> QuadraticData:
    if not isinstance(d, dict):
        raise ParseError("expected an object", path)
    _require_keys(d, _FUNC_KEYS, path)
    constant = _finite_number(d.get("constant", 0.0), f"{path}.constant")
    linear = _vector(d.get("linear", [0.0] * n), n, f"{path}.linear")
    H = np.zeros((n, n))
    for idx, trip in enumerate(d.get("quadratic", [])):
        tpath = f"{path}.quadratic[{idx}]"
        if not isinstance(trip, list) or len(trip) != 3:
            raise ParseError("triplet must be [i, j, value]", tpath)
        i, j, val = trip
        if not isinstance(i, int) or not isinstance(j, int) or not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"indices must be integers in [0, {n})", tpath)
        H[i, j] += _finite_number(val, tpath)
    asym = float(np.max(np.abs(H - H.T), initial=0.0))
    if asym > 1e-9:
        raise ParseError(f"quadratic matrix asymmetric by {asym:.3e}", f"{path}.quadratic")
    H = 0.5 * (H + H.T)
    return QuadraticData(constant, linear, H)


def parse_problem(text: str) -> ProblemFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")

    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        raise ParseError("seed must be a nonnegative integer", "seed")
    tolerances = data.get("tolerances")
    if tolerances is not None:
        if not isinstance(tolerances, dict):
            raise ParseError("expected an object", "tolerances")
        _require_keys(tolerances, _TOL_KEYS, "tolerances")
        tolerances = {k: _finite_number(v, f"tolerances.{k}") for k, v in tolerances.items()}
    budget = data.get("budget")
    if budget is not None:
        if not isinstance(budget, dict):
            raise ParseError("expected an object", "budget")
        _require_keys(budget, _BUDGET_KEYS, "budget")
        for k, v in budget.items():
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ParseError("budget entries must be nonnegative integers", f"budget.{k}")

    if "builtin" in data:
        _require_keys(data, _TOP_KEYS_BUILTIN, "")
        name = data["builtin"]
        if name not in ("example1", "example2"):
            raise ParseError(f"unknown builtin {name!r}", "builtin")
        size_key = "grid" if name == "example1" else "trunc"
        other_key = "trunc" if name == "example1" else "grid"
        if other_key in data:
            raise ParseError(f"{other_key!r} does not apply to {name}", other_key)
        size = data.get(size_key, 120 if name == "example1" else 8)
        if isinstance(size, bool) or not isinstance(size, int) or size <= 0:
            raise ParseError("size must be a positive integer", size_key)
        return ProblemFile(
            builtin=name, builtin_size=size, dimension=None, weights=None,
            box_lower=None, box_upper=None, objective=None, constraints=(),
            m1=0, seed=seed, tolerances=tolerances, budget=budget,
        )

    _require_keys(data, _TOP_KEYS_EXPLICIT, "")
    for key in ("dimension", "box", "objective"):
        if key not in data:
            raise ParseError(f"missing required key {key!r}")
    n = data["dimension"]
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise ParseError("dimension must be a positive integer", "dimension")
    weights = None
    if "weights" in data:
        weights = _vector(data["weights"], n, "weights")
        if any(w <= 0 for w in weights):
            raise ParseError("weights must be strictly positive", "weights")
    box = data["box"]
    if not isinstance(box, dict):
        raise ParseError("expected an object", "box")
    _require_keys(box, _BOX_KEYS, "box")
    lower = _vector(box.get("lower", []), n, "box.lower", bounds=True)
    upper = _vector(box.get("upper", []), n, "box.upper", bounds=True)
    if any(lo > up for lo, up in zip(lower, upper)):
        raise ParseError("requires lower <= upper componentwise", "box")
    objective = _parse_quadratic(data["objective"], n, "objective")
    cons_raw = data.get("constraints", [])
    if not isinstance(cons_raw, list):
        raise ParseError("expected a list", "constraints")
    constraints = tuple(
        _parse_quadratic(c, n, f"constraints[{i}]") for i, c in enumerate(cons_raw)
    )
    m1 = data.get("m1", 0)
    if isinstance(m1, bool) or not isinstance(m1, int) or not 0 <= m1 <= len(constraints):
        raise ParseError("m1 must be an integer between 0 and the constraint count", "m1")
    return ProblemFile(
        builtin=None, builtin_size=None, dimension=n, weights=weights,
        box_lower=lower, box_upper=upper, objective=objective,
        constraints=constraints, m1=m1, seed=seed,
        tolerances=tolerances, budget=budget,
    )


def serialize_problem(pf: ProblemFile) -> str:
    return json.dumps(pf.to_dict(), sort_keys=True, separators=(",", ":"))


def parse_point(text: str, n: int) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}")
    if not isinstance(data, dict) or set(data) != {"point"}:
        raise ParseError('point file must be {"point": [...]}')
    return np.array(_vector(data["point"], n, "point"))
