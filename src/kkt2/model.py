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
from .linalg import BilinearForm, _as_rows, _frozen, cone_facets, matrix_form, weighted_norm


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
        object.__setattr__(self, "lower", _frozen(lo))
        object.__setattr__(self, "upper", _frozen(up))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, tol: float = 1e-8) -> bool:
        v = as_entries(x, self.dim)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def project(self, x) -> np.ndarray:
        return np.clip(as_entries(x, self.dim), self.lower, self.upper)

    def classify(self, x, tol: float = 1e-8):
        """Masks (lower_active, upper_active); fixed components (lower ==
        upper) count as both lower- and upper-active."""
        v = as_entries(x, self.dim)
        return np.abs(v - self.lower) <= tol, np.abs(v - self.upper) <= tol


@dataclass(frozen=True)
class GeneratedConeSet:
    """Convex set described near a base point by tangent generators.

    ``rays`` are the explicit generator directions of a truncated family;
    ``limit_rays`` are adherent directions of the full family (they belong to
    the tangent cone of the untruncated set but not to the truncated conic
    hull).  ``deep_rays`` are far-tail family members used only when building
    normal-cone rows, so the multiplier system matches the full family.
    ``hull_points`` give a V-representation used for feasibility tests.
    Each family is one read-only (k, n) array, (0, n) when empty; a family
    whose rows do not match the base dimension raises ``DimensionMismatch``.
    """

    base: np.ndarray
    rays: np.ndarray
    limit_rays: np.ndarray = ()
    deep_rays: np.ndarray = ()
    hull_points: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "base", _frozen(as_entries(self.base)))
        for name in ("rays", "limit_rays", "deep_rays", "hull_points"):
            object.__setattr__(self, name, _as_rows(getattr(self, name), self.dim))

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def tangent_rays(self) -> np.ndarray:
        return np.vstack([self.rays, self.limit_rays])

    def normal_row_rays(self) -> np.ndarray:
        return np.vstack([self.rays, self.limit_rays, self.deep_rays])

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R) with the set = {x : L z = 0, R z <= 0}, computed on first
        use: z = (x, 1) and the generators (p, 1) over the hull points, or
        z = x - base and the rays when there are none."""
        P = self.hull_points
        if len(P):
            return cone_facets(self.dim + 1, np.c_[P, np.ones(len(P))])
        return cone_facets(self.dim, self.rays)

    def contains(self, x, tol: float = 1e-8) -> bool:
        """Membership in conv(hull_points), or in base + cone(rays), by the
        facets: |L z| <= tol and R z <= tol."""
        v = as_entries(x, self.dim)
        z = np.append(v, 1.0) if len(self.hull_points) else v - self.base
        L, R = self.facets
        return bool(np.all(np.abs(L @ z) <= tol) and np.all(R @ z <= tol))


AbstractSet = Union[BoxSet, GeneratedConeSet]


@dataclass(frozen=True)
class SmoothFunction:
    """Twice differentiable scalar function with supplied derivatives, given
    by its row evaluators.

    ``values(X)`` returns the values at the rows of the (k, n) array X as a
    length-k array, and ``gradients(X)`` the gradients there as a (k, n)
    array.  A gradient is the Riesz representative with respect to the
    problem's weighted inner product, so that the directional derivative
    along h equals sum_i w_i grad_i h_i.  ``hessian(x)`` returns f''(x) as a
    ``BilinearForm``.  ``value(x)`` and ``gradient(x)`` are the one-row
    cases, so a function is evaluated one way whatever the row count.
    """

    values: Callable[[np.ndarray], np.ndarray]
    gradients: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], BilinearForm]
    name: str = ""

    def value(self, x) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradients(np.asarray(x, dtype=float)[None])[0]


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
    form = matrix_form(matrix, weights)

    def values(X):
        return constant + X @ linear + 0.5 * form.quad_rows(X)

    def gradients(X):
        # one row gives the matrix-vector product matrix @ x (X @ matrix
        # rounds differently)
        return winv * (linear + (matrix @ X.T).T)

    return SmoothFunction(values=values, gradients=gradients, hessian=lambda _x: form, name=name)


@dataclass(frozen=True)
class ProblemSpec:
    """A problem instance: objective, constraints with m1 leading equalities,
    abstract set, and the weight vector defining the inner product.

    ``feasible_sampler(rng, center, eps, count)``, when given, returns a
    (count, n) float array of feasible points in the eps-ball around
    center, one row each: the growth check's samples."""

    objective: SmoothFunction
    constraints: tuple[SmoothFunction, ...]
    m1: int
    abstract_set: AbstractSet
    weights: np.ndarray
    name: str = ""
    feasible_sampler: Optional[Callable[[np.random.Generator, np.ndarray, float, int], np.ndarray]] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise DimensionMismatch("weights must be strictly positive and finite")
        object.__setattr__(self, "weights", _frozen(w))
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
        # one array pass; lower <= upper, so a coordinate misses at most one bound
        box = p.abstract_set
        below, above = v < box.lower - tol.activity, v > box.upper + tol.activity
        for i in np.flatnonzero(below | above):
            violations.append(f"x[{i}] below lower bound by {box.lower[i] - v[i]:.3e}" if below[i]
                              else f"x[{i}] above upper bound by {v[i] - box.upper[i]:.3e}")
    else:
        if not p.abstract_set.contains(v, tol.activity):
            violations.append("x outside the abstract constraint set")

    g = p.constraint_values(v)
    eq = np.arange(len(g)) < p.m1
    for i in np.flatnonzero(np.where(eq, np.abs(g), g) > tol.activity):
        kind = "equality" if eq[i] else "inequality"
        violations.append(f"{kind} constraint {i} violated: g={g[i]:.3e}")
    if violations:
        return FeasibilityResult(False, None, tuple(violations))
    active = eq | (np.abs(g) <= tol.activity)
    return FeasibilityResult(True, ActiveSetInfo(tuple(np.flatnonzero(active).tolist()),
                                                 tuple(np.flatnonzero(~active).tolist())))


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
    through the quadratic form h -> H[h, h].  Each function is evaluated in
    one ``values`` call on the block of all probe points (x, then x + h e_i
    and x + h d, then x - h e_i and x - h d), and its gradient and Hessian
    in one call each.  A result of the wrong shape raises
    ``DimensionMismatch``, and a value, gradient or Hessian value that is
    not finite raises ``NonFiniteValue``.
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
    c, unit = len(coords), coords[:directions]
    # Hessian probe directions: unit coordinates, then weighted-unit random ones
    D = np.zeros((len(unit) + max(0, directions - len(unit)), p.dim))
    D[np.arange(len(unit)), unit] = 1.0
    for row in D[len(unit):]:
        d = rng.standard_normal(p.dim)
        row[:] = d / weighted_norm(p.weights, d)
    offsets = np.zeros((c, p.dim))
    offsets[np.arange(c), coords] = step
    offsets = np.concatenate([offsets, step * D])
    probes = v + np.concatenate([np.zeros((1, p.dim)), offsets, -offsets])

    for name, fn in funcs:
        F = np.asarray(fn.values(probes), dtype=float)
        grad = np.asarray(fn.gradient(v), dtype=float)
        analytic_h = np.asarray(fn.hessian(v).quad_rows(D), dtype=float)
        if (F.shape, grad.shape, analytic_h.shape) != ((len(probes),), (p.dim,), (len(D),)):
            raise DimensionMismatch(
                f"{name}: values, gradient and quad_rows returned shapes {F.shape}, {grad.shape}"
                f" and {analytic_h.shape} for {len(probes)} and {len(D)} rows of dimension {p.dim}")
        if not math.isfinite(F[0]):
            raise NonFiniteValue(f"{name} not finite at the validation point")
        if not np.all(np.isfinite(F)):
            raise NonFiniteValue(f"{name} not finite at a probe point")
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(analytic_h))):
            raise NonFiniteValue(f"{name}: gradient or Hessian not finite at the validation point")
        f0, plus, minus = F[0], F[1:1 + len(offsets)], F[1 + len(offsets):]
        fd = (plus[:c] - minus[:c]) / (2.0 * step)
        err_g = np.abs(p.weights[coords] * grad[coords] - fd)
        fd2 = (plus[c:] - 2.0 * f0 + minus[c:]) / (step * step)
        err_h = np.abs(analytic_h - fd2)
        ok = bool(np.all(err_g <= np.maximum(tol.derivative_abs, tol.derivative_rel * np.abs(fd)))
                  and np.all(err_h <= np.maximum(tol.derivative_abs, tol.derivative_rel * np.abs(fd2))))
        ok_all = ok_all and ok
        reports.append(
            {
                "function": name,
                "gradient_max_error": float(np.max(err_g, initial=0.0)),
                "hessian_max_error": float(np.max(err_h, initial=0.0)),
                "passed": ok,
            }
        )
    return DerivativeReport(ok_all, tuple(reports))
