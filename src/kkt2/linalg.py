"""Weighted vectors, bilinear forms, and a dense LP / polyhedron kernel.

Everything here is sized for desk-scale certification work: multiplier
polytopes in at most a dozen dimensions, LPs with a few hundred rows.  The
simplex is a plain dense two-phase tableau with Bland's rule — verdict
quality over speed.

All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatch,
    IterationLimit,
    PolytopeTooLarge,
    UnboundedPolytope,
)

Row = tuple[np.ndarray, float]


def _as_array(values, dim: Optional[int] = None) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.shape[0]}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WeightedVector:
    """Point or direction in R^n with a diagonal positive weight.

    The weights define the inner product <a, b> = sum_i w_i a_i b_i; with
    all-ones weights this is plain R^n, with quadrature weights it is a
    discretized function space.
    """

    entries: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        entries = _frozen(_as_array(self.entries))
        weights = _frozen(_as_array(self.weights, entries.shape[0]))
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise DimensionMismatch("weights must be strictly positive and finite")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def plain(cls, entries) -> "WeightedVector":
        e = _as_array(entries)
        return cls(e, np.ones_like(e))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def inner(self, other: "WeightedVector") -> float:
        if other.dim != self.dim:
            raise DimensionMismatch("inner product dimension mismatch")
        return float(np.sum(self.weights * self.entries * other.entries))

    def norm2(self) -> float:
        return float(np.sum(self.weights * self.entries**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))


def weighted_norm(weights: np.ndarray, a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * a * a)))


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form on weighted vectors.

    ``evaluator(a, b)`` returns the form value on plain entry arrays.
    ``apply(h)``, when provided, returns the Riesz representative of
    ``v -> form(h, v)`` with respect to the weighted inner product; the
    descent refinement in the curvature searches needs it.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], float]
    symmetric: bool = True
    apply: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(self.evaluator(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))

    def quad(self, h: np.ndarray) -> float:
        return self(h, h)


def matrix_form(H: np.ndarray, weights: Optional[np.ndarray] = None) -> BilinearForm:
    """Bilinear form u, v -> u^T H v with Riesz map W^{-1} H."""

    H = np.asarray(H, dtype=float)
    if weights is None:
        weights = np.ones(H.shape[0])
    winv = 1.0 / np.asarray(weights, dtype=float)

    def ev(a, b):
        return float(a @ H @ b)

    def ap(h):
        return winv * (H @ np.asarray(h, dtype=float))

    return BilinearForm(evaluator=ev, symmetric=bool(np.allclose(H, H.T)), apply=ap)


# --------------------------------------------------------------------------
# Linear programs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProgram:
    """min/max of objective . x (+ constant) subject to linear rows.

    ``eq_rows`` are (a, b) meaning a.x = b; ``ineq_rows`` mean a.x <= b.
    Variables are free; sign constraints go in as rows.
    """

    objective: np.ndarray
    eq_rows: tuple[Row, ...] = ()
    ineq_rows: tuple[Row, ...] = ()
    sense: str = "min"
    constant: float = 0.0

    def __post_init__(self):
        obj = _frozen(_as_array(self.objective))
        if self.sense not in ("min", "max"):
            raise DimensionMismatch(f"sense must be 'min' or 'max', got {self.sense!r}")
        if not np.all(np.isfinite(obj)) or not np.isfinite(self.constant):
            raise DimensionMismatch("objective coefficients must be finite")
        m = obj.shape[0]
        eq = tuple((_frozen(_as_array(a, m)), float(b)) for a, b in self.eq_rows)
        ineq = tuple((_frozen(_as_array(a, m)), float(b)) for a, b in self.ineq_rows)
        for a, b in eq + ineq:
            if not np.all(np.isfinite(a)) or not np.isfinite(b):
                raise DimensionMismatch("row coefficients must be finite")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "eq_rows", eq)
        object.__setattr__(self, "ineq_rows", ineq)

    @property
    def dim(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


_PIVOT_TOL = 1e-11


def _bland_entering(costs: np.ndarray) -> Optional[int]:
    idx = np.nonzero(costs < -_PIVOT_TOL)[0]
    return int(idx[0]) if idx.size else None


def _bland_leaving(T: np.ndarray, basis: list[int], col: int) -> Optional[int]:
    column = T[:-1, col]
    rhs = T[:-1, -1]
    rows = np.nonzero(column > _PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
    # Bland: among ties, leave the smallest basis variable index
    return int(min(ties, key=lambda i: basis[i]))


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row].copy()
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, piv)
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


class _PivotBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
        if self.used > self.limit:
            raise IterationLimit(
                f"simplex exceeded {self.limit} pivots (pathological input?)"
            )


def _run_simplex(T: np.ndarray, basis: list[int], budget: _PivotBudget) -> Optional[int]:
    """Iterate to optimality. Returns None, or the entering column proving
    unboundedness."""
    while True:
        col = _bland_entering(T[-1, :-1])
        if col is None:
            return None
        row = _bland_leaving(T, basis, col)
        if row is None:
            return col
        budget.tick()
        _pivot(T, basis, row, col)


def solve_lp(
    lp: LinearProgram,
    tol: Tolerances = DEFAULT_TOLERANCES,
    max_pivots: Optional[int] = None,
) -> LPResult:
    """Two-phase dense primal simplex with Bland's anti-cycling rule.

    Returns optimal(value, point), unbounded(ray) with a strictly improving
    feasible recession ray, or infeasible.
    """

    m = lp.dim
    n_rows = len(lp.eq_rows) + len(lp.ineq_rows)
    if max_pivots is None:
        max_pivots = max(50, 10 * (m + n_rows))
    budget = _PivotBudget(max_pivots)

    sign = 1.0 if lp.sense == "min" else -1.0
    c_orig = sign * lp.objective

    # standard form: x = u - v, slack per inequality
    n_slack = len(lp.ineq_rows)
    n_std = 2 * m + n_slack
    A = np.zeros((n_rows, n_std))
    b = np.zeros(n_rows)
    for i, (a, rhs) in enumerate(lp.eq_rows):
        A[i, :m] = a
        A[i, m : 2 * m] = -a
        b[i] = rhs
    for j, (a, rhs) in enumerate(lp.ineq_rows):
        i = len(lp.eq_rows) + j
        A[i, :m] = a
        A[i, m : 2 * m] = -a
        A[i, 2 * m + j] = 1.0
        b[i] = rhs
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0

    b_scale = float(np.max(np.abs(b))) if n_rows else 0.0
    feas_tol = tol.feasibility * (1.0 + b_scale)

    # phase 1
    T = np.zeros((n_rows + 1, n_std + n_rows + 1))
    T[:-1, :n_std] = A
    T[:-1, n_std : n_std + n_rows] = np.eye(n_rows)
    T[:-1, -1] = b
    T[-1, :n_std] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = [n_std + i for i in range(n_rows)]

    _run_simplex(T, basis, budget)  # phase-1 objective is bounded below by 0
    phase1_value = -T[-1, -1]
    if phase1_value > feas_tol:
        return LPResult(status="infeasible")

    # drive artificials out of the basis; drop redundant rows
    keep = []
    for i in range(n_rows):
        if basis[i] >= n_std:
            pivot_cols = np.nonzero(np.abs(T[i, :n_std]) > 1e-9)[0]
            if pivot_cols.size:
                budget.tick()
                _pivot(T, basis, i, int(pivot_cols[0]))
                keep.append(i)
            # else: redundant row, dropped below
        else:
            keep.append(i)
    rows_kept = [i for i in keep]
    T2 = np.zeros((len(rows_kept) + 1, n_std + 1))
    T2[:-1, :n_std] = T[rows_kept, :n_std]
    T2[:-1, -1] = T[rows_kept, -1]
    basis2 = [basis[i] for i in rows_kept]

    # phase 2 objective row
    c_std = np.concatenate([c_orig, -c_orig, np.zeros(n_slack)])
    T2[-1, :n_std] = c_std
    for i, bcol in enumerate(basis2):
        T2[-1] -= c_std[bcol] * T2[i]

    col = _run_simplex(T2, basis2, budget)
    if col is not None:
        d = np.zeros(n_std)
        d[col] = 1.0
        for i, bcol in enumerate(basis2):
            d[bcol] = -T2[i, col]
        ray = d[:m] - d[m : 2 * m]
        return LPResult(status="unbounded", ray=_frozen(ray))

    x_std = np.zeros(n_std)
    for i, bcol in enumerate(basis2):
        x_std[bcol] = T2[i, -1]
    x = x_std[:m] - x_std[m : 2 * m]
    value = float(lp.objective @ x) + lp.constant
    return LPResult(status="optimal", value=value, point=_frozen(x))


# --------------------------------------------------------------------------
# H-polytopes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeH:
    """Intersection of hyperplanes (eq_rows) and half-spaces (ineq_rows)."""

    dim: int
    eq_rows: tuple[Row, ...] = ()
    ineq_rows: tuple[Row, ...] = ()

    def __post_init__(self):
        eq = tuple((_frozen(_as_array(a, self.dim)), float(b)) for a, b in self.eq_rows)
        ineq = tuple((_frozen(_as_array(a, self.dim)), float(b)) for a, b in self.ineq_rows)
        object.__setattr__(self, "eq_rows", eq)
        object.__setattr__(self, "ineq_rows", ineq)

    def contains(self, point, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        x = _as_array(point, self.dim)
        for a, b in self.eq_rows:
            if abs(a @ x - b) > tol.feasibility * (1.0 + abs(b)):
                return False
        for a, b in self.ineq_rows:
            if a @ x - b > tol.feasibility * (1.0 + abs(b)):
                return False
        return True

    def cleaned(self, tol: Tolerances = DEFAULT_TOLERANCES) -> "PolytopeH":
        """Drop zero rows and duplicate rows (after norm scaling)."""
        eq: list[Row] = []
        ineq: list[Row] = []
        seen = set()
        for kind, rows, out in (("eq", self.eq_rows, eq), ("ineq", self.ineq_rows, ineq)):
            for a, b in rows:
                scale = float(np.max(np.abs(a)))
                if scale <= 1e-14:
                    # 0 = b or 0 <= b: trivially true or false; an always-false
                    # row is kept so feasibility tests still fail on it
                    satisfied = abs(b) <= tol.feasibility if kind == "eq" else b >= -tol.feasibility
                    if satisfied:
                        continue
                    out.append((a, b))
                    continue
                key = (kind,) + tuple(np.round(np.append(a / scale, b / scale), 12))
                if key in seen:
                    continue
                seen.add(key)
                out.append((a, b))
        return PolytopeH(self.dim, tuple(eq), tuple(ineq))

    def recession_rows(self) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        eq = tuple((a, 0.0) for a, b in self.eq_rows)
        ineq = tuple((a, 0.0) for a, b in self.ineq_rows)
        return eq, ineq


def feasible_point(
    p: PolytopeH, tol: Tolerances = DEFAULT_TOLERANCES
) -> Optional[np.ndarray]:
    res = solve_lp(
        LinearProgram(np.zeros(p.dim), p.eq_rows, p.ineq_rows, sense="min"), tol
    )
    return res.point if res.is_optimal else None


def cone_is_trivial(
    dim: int,
    eq_rows: Sequence[Row],
    ineq_rows: Sequence[Row],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[bool, Optional[np.ndarray]]:
    """True iff the homogeneous system admits only the zero solution.

    Decided by 2*dim LPs maximizing each +-coordinate over the cone
    intersected with the unit box; any positive optimum yields a nonzero
    witness ray.
    """

    box = [(np.eye(dim)[i], 1.0) for i in range(dim)]
    box += [(-np.eye(dim)[i], 1.0) for i in range(dim)]
    rows = tuple(ineq_rows) + tuple(box)
    for i in range(dim):
        for s in (1.0, -1.0):
            obj = np.zeros(dim)
            obj[i] = s
            res = solve_lp(LinearProgram(obj, tuple(eq_rows), rows, sense="max"), tol)
            if res.is_optimal and res.value is not None and res.value > 1e-7:
                witness = res.point / np.max(np.abs(res.point))
                return False, _frozen(witness)
    return True, None


def recession_cone_trivial(
    p: PolytopeH, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """True iff the polytope's recession cone is {0} (the polytope is bounded)."""
    cleaned = p.cleaned(tol)
    eq, ineq = cleaned.recession_rows()
    trivial, _ = cone_is_trivial(p.dim, eq, ineq, tol)
    return trivial


def _implicit_equalities(
    p: PolytopeH, tol: Tolerances
) -> tuple[list[Row], list[Row]]:
    """Split ineq rows into those tight on the whole polytope and the rest."""
    eqs: list[Row] = list(p.eq_rows)
    ineqs: list[Row] = []
    for a, b in p.ineq_rows:
        res = solve_lp(LinearProgram(a, p.eq_rows, p.ineq_rows, sense="min"), tol)
        if res.is_optimal and res.value is not None and b - res.value <= tol.feasibility * (1.0 + abs(b)):
            eqs.append((a, b))
        else:
            ineqs.append((a, b))
    return eqs, ineqs


def enumerate_vertices(
    p: PolytopeH, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[np.ndarray]:
    """All vertices of a bounded polytope of dimension <= 12.

    Works on the affine hull after detecting implicit equalities, so
    degenerate (lower-dimensional) polytopes are handled.  Each returned
    vertex satisfies ``dim`` linearly independent active rows; duplicates
    are merged at the vertex_dedup tolerance.
    """

    if p.dim > 12:
        raise PolytopeTooLarge(f"vertex enumeration limited to dim <= 12, got {p.dim}")
    cleaned = p.cleaned(tol)
    if feasible_point(cleaned, tol) is None:
        return []
    if not recession_cone_trivial(cleaned, tol):
        raise UnboundedPolytope("polytope has a nontrivial recession cone")

    eqs, ineqs = _implicit_equalities(cleaned, tol)
    E = np.array([a for a, _ in eqs]).reshape(len(eqs), p.dim)
    eb = np.array([b for _, b in eqs])
    rank_e = np.linalg.matrix_rank(E, tol=1e-10) if len(eqs) else 0
    free_dim = p.dim - rank_e

    n_comb = 1
    for i in range(free_dim):
        n_comb = n_comb * (len(ineqs) - i) // (i + 1)
    if n_comb > 500_000:
        raise PolytopeTooLarge(
            f"vertex enumeration would visit {n_comb} row subsets"
        )

    vertices: list[np.ndarray] = []
    for combo in itertools.combinations(range(len(ineqs)), free_dim):
        rows = [ineqs[i] for i in combo]
        M = np.vstack([E, np.array([a for a, _ in rows]).reshape(len(rows), p.dim)]) \
            if len(eqs) or rows else np.zeros((0, p.dim))
        rhs = np.concatenate([eb, np.array([b for _, b in rows])])
        if M.shape[0] < p.dim or np.linalg.matrix_rank(M, tol=1e-10) < p.dim:
            continue
        x, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.max(np.abs(M @ x - rhs)) > 1e-7 * (1.0 + np.max(np.abs(rhs), initial=0.0)):
            continue
        if not cleaned.contains(x, tol):
            continue
        if any(np.max(np.abs(x - v)) <= tol.vertex_dedup for v in vertices):
            continue
        vertices.append(_frozen(x + 0.0))  # + 0.0 normalizes negative zeros
    return vertices


# --------------------------------------------------------------------------
# Finitely generated cones
# --------------------------------------------------------------------------


def conic_distance(
    rays: Sequence[np.ndarray], h: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """sup-norm distance from h to the conic hull of the rays (LP)."""

    h = _as_array(h)
    n = h.shape[0]
    K = len(rays)
    if K == 0:
        return float(np.max(np.abs(h), initial=0.0))
    # variables: (c_1..c_K, t); minimize t
    R = np.array([_as_array(r, n) for r in rays]).T  # n x K
    obj = np.zeros(K + 1)
    obj[-1] = 1.0
    ineq: list[Row] = []
    for j in range(n):
        ineq.append((np.concatenate([R[j], [-1.0]]), h[j]))    # (Rc)_j - t <= h_j
        ineq.append((np.concatenate([-R[j], [-1.0]]), -h[j]))  # -(Rc)_j - t <= -h_j
    for k in range(K):
        e = np.zeros(K + 1)
        e[k] = -1.0
        ineq.append((e, 0.0))
    e = np.zeros(K + 1)
    e[-1] = -1.0
    ineq.append((e, 0.0))
    res = solve_lp(LinearProgram(obj, (), tuple(ineq), sense="min"), tol)
    if not res.is_optimal or res.value is None:
        raise UnboundedPolytope("conic distance LP failed")
    return max(res.value, 0.0)


def conic_membership(
    rays: Sequence[np.ndarray], h: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    scale = 1.0 + float(np.max(np.abs(h), initial=0.0))
    return conic_distance(rays, h, tol) <= tol.membership * scale
