"""Problem-definition files.

JSON, strict (unknown keys are errors), restricted to quadratic data plus
the named builtins; arbitrary smooth functions are available only through
the programmatic API.  Box bounds use the string sentinels "inf"/"-inf";
all other numbers must be finite.  Quadratic matrices are given in sparse
triplet form [i, j, value]; off-diagonal entries need both mirror triplets
(asymmetry beyond 1e-9 is an error, smaller asymmetry is averaged away).

``parse_problem`` validates a file and builds its problem in one pass; the
CLI's ``problem_digest`` hashes the file's bytes as read.
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
from .model import BoxSet, ProblemSpec, SmoothFunction, quadratic

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
class ProblemFile:
    """A parsed problem file: a builtin's name and size, or the explicit
    problem built while it was validated, plus the file's seed, tolerance
    and budget settings."""

    builtin: Optional[str]
    builtin_size: Optional[int]
    problem: Optional[ProblemSpec]
    seed: Optional[int]
    tolerances: Optional[dict]
    budget: Optional[dict]

    def build(self):
        """Returns (ProblemSpec, default point or None); a builtin is built here."""
        if self.builtin is None:
            return self.problem, None
        from .examples import build_example1, build_example2

        ex = (build_example1 if self.builtin == "example1" else build_example2)(self.builtin_size)
        return ex.problem, ex.xbar

    def make_tolerances(self) -> Tolerances:
        return dataclasses.replace(Tolerances(), **(self.tolerances or {}))

    def make_budget(self, seed: int) -> SearchBudget:
        return SearchBudget(seed=seed, **(self.budget or {}))


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


def _triplet(trip, n: int, path: str, k: int) -> tuple[int, int, float]:
    """(i, j, value) of the k-th triplet of ``{path}.quadratic``: integer
    indices in [0, n) and a finite number.  The error path is built only when
    it raises."""
    if isinstance(trip, list) and len(trip) == 3:
        i, j, val = trip
        if type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n:
            if type(val) is float and math.isfinite(val):
                return i, j, val
            return i, j, _finite_number(val, f"{path}.quadratic[{k}]")
        raise ParseError(f"indices must be integers in [0, {n})", f"{path}.quadratic[{k}]")
    raise ParseError("triplet must be [i, j, value]", f"{path}.quadratic[{k}]")


def _parse_quadratic(d, n: int, path: str, weights: np.ndarray, name: str) -> SmoothFunction:
    if not isinstance(d, dict):
        raise ParseError("expected an object", path)
    _require_keys(d, _FUNC_KEYS, path)
    constant = _finite_number(d.get("constant", 0.0), f"{path}.constant")
    linear = _vector(d.get("linear", [0.0] * n), n, f"{path}.linear")
    raw = d.get("quadratic", [])
    if not isinstance(raw, list):
        raise ParseError("expected a list", f"{path}.quadratic")
    triplets = [_triplet(t, n, path, k) for k, t in enumerate(raw)]
    H = np.zeros((n, n))
    if triplets:
        # unbuffered and in list order, so duplicate triplets add up as in a loop
        rows, cols, vals = zip(*triplets)
        with np.errstate(over="ignore"):  # an inf sum is rejected just below
            np.add.at(H, (np.array(rows), np.array(cols)), np.array(vals))
        if not np.all(np.isfinite(H)):
            raise ParseError("summed entries must be finite", f"{path}.quadratic")
    asym = float(np.max(np.abs(H - H.T), initial=0.0))
    if asym > 1e-9:
        raise ParseError(f"quadratic matrix asymmetric by {asym:.3e}", f"{path}.quadratic")
    return quadratic(constant, np.array(linear), H, weights, name=name)  # averages H and H^T


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
        for k, v in tolerances.items():
            if v < 0.0:
                raise ParseError("tolerances must be nonnegative", f"tolerances.{k}")
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
        return ProblemFile(builtin=name, builtin_size=size, problem=None, seed=seed,
                           tolerances=tolerances, budget=budget)

    _require_keys(data, _TOP_KEYS_EXPLICIT, "")
    for key in ("dimension", "box", "objective"):
        if key not in data:
            raise ParseError(f"missing required key {key!r}")
    n = data["dimension"]
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise ParseError("dimension must be a positive integer", "dimension")
    weights = np.ones(n)
    if "weights" in data:
        weights = np.array(_vector(data["weights"], n, "weights"))
        if np.any(weights <= 0):
            raise ParseError("weights must be strictly positive", "weights")
    box = data["box"]
    if not isinstance(box, dict):
        raise ParseError("expected an object", "box")
    _require_keys(box, _BOX_KEYS, "box")
    lower = _vector(box.get("lower", []), n, "box.lower", bounds=True)
    upper = _vector(box.get("upper", []), n, "box.upper", bounds=True)
    if any(lo > up for lo, up in zip(lower, upper)):
        raise ParseError("requires lower <= upper componentwise", "box")
    objective = _parse_quadratic(data["objective"], n, "objective", weights, "objective")
    cons_raw = data.get("constraints", [])
    if not isinstance(cons_raw, list):
        raise ParseError("expected a list", "constraints")
    constraints = tuple(
        _parse_quadratic(c, n, f"constraints[{i}]", weights, f"constraint_{i}")
        for i, c in enumerate(cons_raw)
    )
    m1 = data.get("m1", 0)
    if isinstance(m1, bool) or not isinstance(m1, int) or not 0 <= m1 <= len(constraints):
        raise ParseError("m1 must be an integer between 0 and the constraint count", "m1")
    spec = ProblemSpec(objective, constraints, m1, BoxSet(np.array(lower), np.array(upper)),
                       weights, name="file problem")
    return ProblemFile(builtin=None, builtin_size=None, problem=spec, seed=seed,
                       tolerances=tolerances, budget=budget)


def parse_point(text: str, n: int) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}")
    if not isinstance(data, dict) or set(data) != {"point"}:
        raise ParseError('point file must be {"point": [...]}')
    return np.array(_vector(data["point"], n, "point"))
