"""Problem data: objective, constraint map, abstract set, derivative checks.

A problem is

    minimize f(x)  subject to  x in C,  g_i(x) = 0 (i <= m1),  g_i(x) <= 0,

where C is either a box or a convex set described locally by tangent ray
families at a designated base point.  Functions come with user-supplied
derivatives; finite differences only validate them, they never substitute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatch, NonFiniteValue
from .linalg import BilinearForm, cone_facets, matrix_form, weighted_norm


def as_entries(x, dim: Optional[int] = None) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or (dim is not None and arr.shape[0] != dim):
        raise DimensionMismatch(f"expected vector of dimension {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class BoxSet:
    """Componentwise bounds; +-inf entries mean unbounded components."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be 1-d and of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)) or np.any(lo > up):
            raise DimensionMismatch("box requires lower <= upper componentwise")
        lo = lo.copy()
        up = up.copy()
        lo.flags.writeable = False
        up.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, tol: float = 1e-8) -> bool:
        v = as_entries(x, self.dim)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def project(self, x) -> np.ndarray:
        return np.clip(as_entries(x, self.dim), self.lower, self.upper)

    def classify(self, x, tol: float = 1e-8):
        """Index sets (lower_active, upper_active, interior); fixed components
        (lower == upper) count as both lower- and upper-active."""
        v = as_entries(x, self.dim)
        lo_act = np.abs(v - self.lower) <= tol
        up_act = np.abs(v - self.upper) <= tol
        interior = ~(lo_act | up_act)
        return lo_act, up_act, interior


@dataclass(frozen=True)
class GeneratedConeSet:
    """Convex set described near a base point by tangent generators.

    ``rays`` are the explicit generator directions of a truncated family;
    ``limit_rays`` are adherent directions of the full family (they belong to
    the tangent cone of the untruncated set but not to the truncated conic
    hull).  ``deep_rays`` are far-tail family members used only when building
    normal-cone rows, so the multiplier system matches the full family.
    ``hull_points`` give a V-representation used for feasibility tests.
    """

    base: np.ndarray
    rays: tuple[np.ndarray, ...]
    limit_rays: tuple[np.ndarray, ...] = ()
    deep_rays: tuple[np.ndarray, ...] = ()
    hull_points: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        base.flags.writeable = False
        object.__setattr__(self, "base", base)
        for name in ("rays", "limit_rays", "deep_rays", "hull_points"):
            vecs = tuple(np.asarray(v, dtype=float) for v in getattr(self, name))
            for v in vecs:
                if v.shape != base.shape:
                    raise DimensionMismatch(f"{name} must match the base dimension")
                v.flags.writeable = False
            object.__setattr__(self, name, vecs)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def tangent_rays(self) -> tuple[np.ndarray, ...]:
        return self.rays + self.limit_rays

    def normal_row_rays(self) -> tuple[np.ndarray, ...]:
        return self.rays + self.limit_rays + self.deep_rays

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R) with the set = {x : L z = 0, R z <= 0}, computed on first
        use: z = (x, 1) and the generators (p, 1) over the hull points, or
        z = x - base and the rays when there are none."""
        if self.hull_points:
            return cone_facets(self.dim + 1, [np.append(p, 1.0) for p in self.hull_points])
        return cone_facets(self.dim, self.rays)

    def contains(self, x, tol: float = 1e-8) -> bool:
        """Membership in conv(hull_points), or in base + cone(rays), by the
        facets: |L z| <= tol and R z <= tol."""
        v = as_entries(x, self.dim)
        z = np.append(v, 1.0) if self.hull_points else v - self.base
        L, R = self.facets
        return bool(np.all(np.abs(L @ z) <= tol) and np.all(R @ z <= tol))


AbstractSet = Union[BoxSet, GeneratedConeSet]


@dataclass(frozen=True)
class SmoothFunction:
    """Twice differentiable scalar function with supplied derivatives.

    ``gradient`` returns the Riesz representative with respect to the
    problem's weighted inner product, so that the directional derivative
    along h equals sum_i w_i grad_i h_i.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], BilinearForm]
    name: str = ""


def quadratic(
    constant: float,
    linear: np.ndarray,
    matrix: np.ndarray,
    weights: Optional[np.ndarray] = None,
    name: str = "",
) -> SmoothFunction:
    """f(x) = constant + linear.x + 0.5 x.M.x with plain dot products.

    The gradient is returned as the weighted-inner-product Riesz vector
    W^{-1}(linear + Mx); with unit weights this is the usual gradient.
    """

    linear = np.asarray(linear, dtype=float)
    matrix = 0.5 * (np.asarray(matrix, dtype=float) + np.asarray(matrix, dtype=float).T)
    n = linear.shape[0]
    if weights is None:
        weights = np.ones(n)
    winv = 1.0 / np.asarray(weights, dtype=float)

    def val(x):
        return float(constant + linear @ x + 0.5 * x @ matrix @ x)

    def grad(x):
        return winv * (linear + matrix @ x)

    def hess(_x):
        return matrix_form(matrix, weights)

    return SmoothFunction(value=val, gradient=grad, hessian=hess, name=name)


@dataclass(frozen=True)
class ProblemSpec:
    """A problem instance: objective, constraints with m1 leading equalities,
    abstract set, and the weight vector defining the inner product."""

    objective: SmoothFunction
    constraints: tuple[SmoothFunction, ...]
    m1: int
    abstract_set: AbstractSet
    weights: np.ndarray
    name: str = ""
    feasible_sampler: Optional[Callable[[np.random.Generator, np.ndarray, float, int], list[np.ndarray]]] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise DimensionMismatch("weights must be strictly positive and finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not 0 <= self.m1 <= len(self.constraints):
            raise DimensionMismatch("m1 must lie between 0 and the number of constraints")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def norm(self, h) -> float:
        return weighted_norm(self.weights, as_entries(h, self.dim))

    def inner(self, a, b) -> float:
        return float(np.sum(self.weights * as_entries(a, self.dim) * as_entries(b, self.dim)))

    def constraint_values(self, x) -> np.ndarray:
        v = as_entries(x, self.dim)
        return np.array([c.value(v) for c in self.constraints])

    def constraint_gradients(self, x) -> list[np.ndarray]:
        v = as_entries(x, self.dim)
        return [np.asarray(c.gradient(v), dtype=float) for c in self.constraints]


@dataclass(frozen=True)
class ActiveSetInfo:
    """Active/inactive constraint indices.

    ``active`` contains every index i with |g_i(x)| <= tol; at a feasible
    point that includes all equality indices, so active and inactive
    partition {0..m-1}.
    """

    active: tuple[int, ...]
    inactive: tuple[int, ...]


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    info: Optional[ActiveSetInfo]
    violations: tuple[str, ...] = ()


def check_feasible(
    p: ProblemSpec, x, tol: Tolerances = DEFAULT_TOLERANCES
) -> FeasibilityResult:
    """Feasibility and active sets; reordering inequality constraints does
    not change the verdict or the active set as a set."""

    v = as_entries(x, p.dim)
    violations: list[str] = []
    if isinstance(p.abstract_set, BoxSet):
        box = p.abstract_set
        for i in range(p.dim):
            if v[i] < box.lower[i] - tol.activity:
                violations.append(f"x[{i}] below lower bound by {box.lower[i] - v[i]:.3e}")
            if v[i] > box.upper[i] + tol.activity:
                violations.append(f"x[{i}] above upper bound by {v[i] - box.upper[i]:.3e}")
    else:
        if not p.abstract_set.contains(v, tol.activity):
            violations.append("x outside the abstract constraint set")

    gvals = p.constraint_values(v)
    active: list[int] = []
    inactive: list[int] = []
    for i, gi in enumerate(gvals):
        if i < p.m1:
            if abs(gi) > tol.activity:
                violations.append(f"equality constraint {i} violated: g={gi:.3e}")
            active.append(i)
        else:
            if gi > tol.activity:
                violations.append(f"inequality constraint {i} violated: g={gi:.3e}")
            if abs(gi) <= tol.activity:
                active.append(i)
            else:
                inactive.append(i)

    if violations:
        return FeasibilityResult(False, None, tuple(violations))
    return FeasibilityResult(True, ActiveSetInfo(tuple(active), tuple(inactive)))


@dataclass(frozen=True)
class DerivativeReport:
    passed: bool
    per_function: tuple[dict, ...]


def validate_derivatives(
    p: ProblemSpec,
    x,
    tol: Tolerances = DEFAULT_TOLERANCES,
    directions: int = 16,
    seed: int = 0,
) -> DerivativeReport:
    """Compare supplied gradients/Hessians against central differences.

    Step h = 1e-5 (1 + ||x||).  The gradient is probed along every
    coordinate (capped), the Hessian along coordinate and random directions
    through the quadratic form h -> H[h, h].
    """

    v = as_entries(x, p.dim)
    step = 1e-5 * (1.0 + weighted_norm(p.weights, v))
    rng = np.random.default_rng(seed)
    reports = []
    ok_all = True
    funcs = [("objective", p.objective)] + [
        (f"constraint_{i}", c) for i, c in enumerate(p.constraints)
    ]

    coords = list(range(p.dim)) if p.dim <= 32 else sorted(
        rng.choice(p.dim, size=32, replace=False).tolist()
    )
    probe_dirs = []
    for i in coords[:directions]:
        e = np.zeros(p.dim)
        e[i] = 1.0
        probe_dirs.append(e)
    for _ in range(max(0, directions - len(probe_dirs))):
        d = rng.standard_normal(p.dim)
        probe_dirs.append(d / weighted_norm(p.weights, d))

    for name, fn in funcs:
        grad = np.asarray(fn.gradient(v), dtype=float)
        hess = fn.hessian(v)
        f0 = fn.value(v)
        if not math.isfinite(f0):
            raise NonFiniteValue(f"{name} not finite at the validation point")
        worst_g = 0.0
        worst_h = 0.0
        grad_ok = True
        for i in coords:
            e = np.zeros(p.dim)
            e[i] = step
            fp, fm = fn.value(v + e), fn.value(v - e)
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NonFiniteValue(f"{name} not finite at a probe point")
            fd = (fp - fm) / (2.0 * step)
            analytic = p.weights[i] * grad[i]
            err = abs(analytic - fd)
            worst_g = max(worst_g, err)
            if err > max(tol.derivative_abs, tol.derivative_rel * abs(fd)):
                grad_ok = False
        hess_ok = True
        for d in probe_dirs:
            hd = step * d
            fd2 = (fn.value(v + hd) - 2.0 * f0 + fn.value(v - hd)) / (step * step)
            analytic = hess(d, d)
            err = abs(analytic - fd2)
            worst_h = max(worst_h, err)
            if err > max(tol.derivative_abs, tol.derivative_rel * abs(fd2)):
                hess_ok = False
        ok = grad_ok and hess_ok
        ok_all = ok_all and ok
        reports.append(
            {
                "function": name,
                "gradient_max_error": worst_g,
                "hessian_max_error": worst_h,
                "passed": ok,
            }
        )
    return DerivativeReport(ok_all, tuple(reports))
