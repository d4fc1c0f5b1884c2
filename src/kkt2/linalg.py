"""Weighted norms, bilinear forms, a dense LP kernel, polyhedral cones and
nonnegative least squares.

Everything here is sized for desk-scale certification work: multiplier
polytopes with a few dozen vertices, cones with a few dozen generators.
Every polyhedral question of a certification run is answered without LPs,
by one double-description routine that returns a cone's lineality basis
and extreme rays.  Run on an H-representation it gives generators (is a
polar cone trivial, which axes does a cone reach, what are a polytope's
vertices, which rays span a cone section); run on the polar of a finitely
generated cone it gives that cone's facets (Minkowski-Weyl), which decide
hull and cone membership.  An H-polytope has one membership test, one
array pass over its rows (``PolytopeH.contains_rows``), and
``enumerate_vertices`` checks every vertex it returns with it: a vertex that
misses a row raises ``NumericError``.  Every distance to a finitely
generated cone is one Lawson-Hanson NNLS (``nnls``, ``conic_distance``):
the non-stationary FOC residual and ``cones.radial_density_gap``.  The
dense two-phase simplex with Bland's rule (``solve_lp``) remains as an
independent reference for the tests.

All types are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatch,
    IterationLimit,
    NumericError,
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


def weighted_norm(weights: np.ndarray, a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * a * a)))


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The plain dot product of each row of A with the same row of B, by one
    stacked matmul.  On a single row of 24 entries it takes about 2.5 us
    where ``np.einsum("ij,ij->i", A, B)`` takes 3-5 us, and row evaluators
    run on single rows at every descent step (numpy 1.24 has no vecdot)."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric bilinear form B on weighted vectors, given by its row
    evaluators on plain entry arrays.

    ``quad_rows(H)`` returns B(h, h) for every row h of the (k, n) array H,
    as a length-k array.  ``apply_rows(H)``, when provided, returns for every
    row h the Riesz representative of ``v -> B(h, v)`` with respect to the
    weighted inner product, as a (k, n) array; the descent refinement in the
    curvature searches needs it.  ``quad(h)`` and ``apply(h)`` are their
    one-row cases, so a form is evaluated one way whatever the row count.
    """

    quad_rows: Callable[[np.ndarray], np.ndarray]
    apply_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def quad(self, h: np.ndarray) -> float:
        return float(self.quad_rows(np.asarray(h, dtype=float)[None])[0])

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self.apply_rows(np.asarray(h, dtype=float)[None])[0]


def matrix_form(H: np.ndarray, weights: Optional[np.ndarray] = None) -> BilinearForm:
    """Bilinear form u, v -> u^T H v, H symmetric, with Riesz map W^{-1} H."""

    H = np.asarray(H, dtype=float)
    if weights is None:
        weights = np.ones(H.shape[0])
    winv = 1.0 / np.asarray(weights, dtype=float)

    def quad_rows(X):
        return row_dots(X @ H, X)

    def apply_rows(X):
        return winv * (H @ X.T).T  # on one row, the matrix-vector product H @ h

    return BilinearForm(quad_rows, apply_rows)


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

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(A, b, k): every row as one array, the k equality rows first."""
        rows = (*self.eq_rows, *self.ineq_rows)
        A = np.array([a for a, _ in rows], dtype=float).reshape(len(rows), self.dim)
        return A, np.array([b for _, b in rows], dtype=float), len(self.eq_rows)

    def contains_rows(self, X, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Row mask: each row x of X (k x dim) lies in the polytope, with
        |a.x - b| on every equality row and a.x - b on every inequality row
        at most tol.feasibility (1 + |b|), in one array pass over the rows."""
        A, b, k = self._stacked
        S = np.asarray(X, dtype=float) @ A.T - b
        S[:, :k] = np.abs(S[:, :k])
        return np.all(S <= tol.feasibility * (1.0 + np.abs(b)), axis=1)

    def contains(self, point, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        return bool(self.contains_rows(_as_array(point, self.dim)[None], tol)[0])

    def cleaned(self, tol: Tolerances = DEFAULT_TOLERANCES) -> "PolytopeH":
        """Drop the zero rows that always hold (0 = b or 0 <= b within
        tol.feasibility); an always-false one is kept, so membership still
        fails on it.  Repeated rows stay: the double description skips
        them."""
        def keep(a, b, is_eq):
            holds = abs(b) <= tol.feasibility if is_eq else b >= -tol.feasibility
            return np.abs(a).max(initial=0.0) > 1e-14 or not holds
        return PolytopeH(self.dim, tuple(r for r in self.eq_rows if keep(*r, True)),
                         tuple(r for r in self.ineq_rows if keep(*r, False)))


# --------------------------------------------------------------------------
# Polyhedral cones: the double-description method
# --------------------------------------------------------------------------

_MAX_GENERATORS = 20_000


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Each row scaled to max-abs 1."""
    return X / np.abs(X).max(axis=1, keepdims=True) if len(X) else X


def _double_description(
    dim: int, eq: Sequence[np.ndarray], ineq: Sequence[np.ndarray], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lineality basis and extreme rays of {y : a.y = 0 on eq, a.y <= 0 on
    ineq}, as the rows of two arrays, each row scaled to max-abs 1.

    The double-description method (Motzkin et al. 1953) cuts the whole space
    by one row at a time, equalities first.  A row that is not zero on the
    lineality space removes one lineality vector d (the largest pivot); for
    an inequality, the side of d that the row keeps becomes a ray, and the
    other rays move along d onto the row.  Otherwise the rays on the row's
    wrong side go, and each adjacent pair across the row adds the
    combination on it.  Adjacency is the combinatorial test of Fukuda and
    Prodon (1996): no third ray is tight on every earlier inequality that
    both are tight on.  A row that repeats an earlier row of its kind after
    the max-abs scaling is skipped: it changes neither the cone nor the
    adjacency test.  A row with one nonzero entry sets that coordinate of
    its tight generators to exactly 0.  More than ``_MAX_GENERATORS`` rays
    raise ``PolytopeTooLarge``; on a pointed cone with linearly independent
    rays every pair is adjacent, so a row whose pairs would pass the guard
    raises before they are built.
    """

    L, R, done = np.eye(dim), np.zeros((0, dim)), np.zeros((0, dim))
    seen: set[tuple[bool, bytes]] = set()
    for a, is_eq in [*((a, True) for a in eq), *((a, False) for a in ineq)]:
        if not (len(L) or len(R)):
            break  # the cone is {0}
        a = np.asarray(a, dtype=float)
        if not np.any(a):
            continue
        a = a / np.max(np.abs(a))
        key = (is_eq, a.tobytes())  # a -0.0 entry only hides a repeat
        if key in seen:
            continue
        seen.add(key)
        sl = L @ a
        j = int(np.argmax(np.abs(sl))) if len(sl) else -1
        if j >= 0 and abs(sl[j]) > tol:
            d = -np.sign(sl[j]) * L[j]  # a.d < 0
            L = _unit_rows(np.delete(L - np.outer(sl / sl[j], L[j]), j, axis=0))
            if not is_eq:  # equalities come first, while there are no rays
                R = _unit_rows(np.vstack([R - np.outer(R @ a / (a @ d), d), d]))
        elif not is_eq:
            s = R @ a
            pos, neg, new = np.flatnonzero(s > tol), np.flatnonzero(s < -tol), []
            kept = int(np.sum(s <= tol))
            if (kept + len(pos) * len(neg) > _MAX_GENERATORS and not len(L)
                    and np.linalg.matrix_rank(R) == len(R)):
                # a pointed simplicial cone: every pair of rays is adjacent,
                # so the bound is the count the loop below would reach
                raise PolytopeTooLarge(f"the cone would have over {_MAX_GENERATORS} rays")
            Z = np.abs(R @ done.T) <= tol  # Z[r, k]: ray r is tight on inequality k
            missing = (~Z).T.astype(float)
            for p in pos:
                n = neg[(((Z[p] & Z[neg]) @ missing) == 0).sum(axis=1) == 2]  # only p and n
                new.append(s[p] * R[n] - s[n, None] * R[p])
                if kept + sum(map(len, new)) > _MAX_GENERATORS:
                    raise PolytopeTooLarge(f"the cone would have over {_MAX_GENERATORS} rays")
            R = _unit_rows(np.vstack([R[s <= tol], *new]))
        if not is_eq:
            done = np.vstack([done, a])
        support = np.flatnonzero(a)
        if len(support) == 1:
            L[:, support[0]] = 0.0
            R[np.abs(R @ a) <= tol, support[0]] = 0.0
    return L, R


def cone_is_trivial(
    dim: int,
    eq_rows: Sequence[Row],
    ineq_rows: Sequence[Row],
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[bool, np.ndarray]:
    """Whether the cone {y : a.y = 0 on eq_rows, a.y <= 0 on ineq_rows} is
    {0} (right-hand sides are ignored), with its generators: the rows of a
    read-only array whose conic hull is the cone, each lineality vector l as
    l and -l, then the extreme rays.  The first one is a nonzero witness.
    """

    L, R = _double_description(dim, [a for a, _ in eq_rows], [a for a, _ in ineq_rows],
                               tol.feasibility)
    gens = _frozen(np.vstack([L, -L, R]) + 0.0)  # + 0.0 normalizes negative zeros
    return len(gens) == 0, gens


def cone_facets(dim: int, generators: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) with cone(generators) = {z : L z = 0, R z <= 0}.

    By Minkowski-Weyl these are the lineality basis and the extreme rays of
    the polar {y : g.y <= 0 for every generator g} (Motzkin et al. 1953;
    Fukuda and Prodon 1996), each row scaled to max-abs 1, at the default
    feasibility tolerance.  No generators give L = I: the cone is {0}.
    """

    return _double_description(dim, [], list(generators), DEFAULT_TOLERANCES.feasibility)


def _scaled_vertices(p: PolytopeH, d, tol: Tolerances) -> Optional[list[np.ndarray]]:
    """Vertices of p read off the cone {(u, t) : (a d).u <= b t, (a d).u =
    b t, t >= 0} of p with each coordinate x_j shrunk by d_j (a scalar d
    shrinks them all): [] when no extreme ray has t > 0 (p is empty), None
    when some generator has t = 0 (p is unbounded), else the rays at
    x = d u / t, merged at the vertex_dedup tolerance: a ray is kept unless
    a ray kept before it lies within vertex_dedup in max-norm, one array test
    per ray against the kept ones."""

    L, R = _double_description(p.dim + 1, [np.append(a * d, -b) for a, b in p.eq_rows],
                               [np.append(a * d, -b) for a, b in p.ineq_rows]
                               + [-np.eye(p.dim + 1)[-1]], tol.feasibility)
    finite = R[:, -1] > 0.0  # t >= 0 is a sign row: rays tight on it have t = 0 exactly
    if not finite.any():
        return []
    if len(L) or not finite.all():
        return None
    X = d * R[:, :-1] / R[:, -1:]
    kept = np.empty_like(X)
    count = 0
    for x in X:
        if not np.any(np.abs(kept[:count] - x).max(axis=1, initial=0.0) <= tol.vertex_dedup):
            kept[count] = x
            count += 1
    return sorted(_frozen(kept[:count] + 0.0), key=tuple)


def _coordinate_bounds(p: PolytopeH) -> np.ndarray:
    """Per coordinate j, the smallest nonzero |b| / |a_j| over the rows that
    touch x_j, and at least 1: the size of x_j that the rows allow."""
    d = np.full(p.dim, np.inf)
    for a, b in (*p.eq_rows, *p.ineq_rows):
        if b != 0.0:
            touch = a != 0.0
            d[touch] = np.minimum(d[touch], abs(b) / np.abs(a[touch]))
    return np.where(np.isfinite(d), np.maximum(d, 1.0), 1.0)


def enumerate_vertices(
    p: PolytopeH, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[np.ndarray]:
    """All vertices of a bounded polytope in lexicographic order; [] when it
    is empty, ``UnboundedPolytope`` when it is unbounded.

    The homogenized cone of ``_scaled_vertices`` decides all three; its
    tight sign rows hold exactly at the vertices.  Unscaled, t of a vertex
    with entries beyond about 1/tol.feasibility falls under the tightness
    tolerance of t >= 0, and the vertex reads as a recession ray.  So when
    the unscaled pass finds p empty or unbounded, it is retried with each
    coordinate shrunk by its own bound (``_coordinate_bounds``), which keeps
    coordinates of very different sizes readable, then with all of them
    shrunk by the largest |b| of the rows scaled to max |a| = 1, which
    covers a coordinate whose smallest bound is a lower bound.  The first
    retry whose vertices all lie in p gives the answer.

    The answer is checked against p's own rows (``PolytopeH.contains_rows``)
    before it is returned: a vertex that misses one raises ``NumericError``.
    """

    vertices = _scaled_vertices(p, 1.0, tol)
    if not vertices:
        s = max([1.0, *(abs(b) / np.max(np.abs(a)) for a, b in (*p.eq_rows, *p.ineq_rows)
                        if np.any(a))])
        for shrink in (_coordinate_bounds(p), s):
            if not vertices and np.any(shrink > 1.0):
                wide = _scaled_vertices(p, shrink, tol)
                if wide and p.contains_rows(np.array(wide), tol).all():
                    vertices = wide
    if vertices is None:
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    missed = np.flatnonzero(~p.contains_rows(np.array(vertices), tol)) if vertices else []
    if len(missed):
        raise NumericError(f"vertex {missed[0]} of the double description misses a row "
                           "of the polytope")
    return vertices


# --------------------------------------------------------------------------
# Finitely generated cones
# --------------------------------------------------------------------------


def nnls(A, b) -> tuple[np.ndarray, float]:
    """(c, ||A c - b||) with c >= 0 minimizing ||A c - b||, by the active-set
    method of Lawson and Hanson (1974).

    c is the least-squares solution on its support.  A step adds the column
    at the smallest angle to the residual, among those whose gradient
    exceeds its round-off scale; the residual and the columns are taken off
    the support's span (Q an orthonormal basis of it) first, so a column
    nearly parallel to the span keeps the sign of its gradient.  While the
    least-squares solution on the grown support has a nonpositive
    coefficient, c moves towards it until a coefficient reaches 0, which
    leaves the support.  In exact arithmetic every step lowers the
    residual; a step that does not is round-off, and its column is passed
    over until another step does.  Before returning, the KKT conditions are
    checked at the scale 1e-9 |a_j| (|b| + |A c|): the gradient
    A^T (b - A c) is at most that everywhere and zero on the support.
    Nonfinite data or a failed check raise ``NumericError``, a loop past its
    budget ``IterationLimit``.
    """

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NumericError("NNLS data must be finite")
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=0)

    def solve(support):
        z = np.zeros(n)
        z[support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
        return z

    c = np.zeros(n)
    support = np.zeros(n, dtype=bool)
    passed = np.zeros(n, dtype=bool)
    residual = float(np.linalg.norm(b))
    limit = 10 * n + 10
    for _ in range(limit):
        Q = np.linalg.qr(A[:, support])[0]
        r = b - Q @ (Q.T @ b)  # b - A c
        r -= Q @ (Q.T @ r)
        off = A - Q @ (Q.T @ A)
        noise = norms * np.linalg.norm(r) + np.linalg.norm(off, axis=0) * np.linalg.norm(b)
        angle = (off.T @ r - 10 * np.finfo(float).eps * noise) / np.where(norms > 0.0, norms, 1.0)
        angle[support | passed] = 0.0
        if not np.any(angle > 0.0):
            break
        j = int(np.argmax(angle))
        passed[j] = True
        x, grown = c.copy(), support.copy()
        grown[j] = True
        z = solve(grown)
        if z[j] <= 0.0:
            continue
        while not np.all(z[grown] > 0.0):
            blocked = grown & (z <= 0.0)
            steps = x[blocked] / (x[blocked] - z[blocked])
            x += steps.min() * (z - x)
            x[np.flatnonzero(blocked)[np.argmin(steps)]] = 0.0
            grown &= x > 0.0
            z = solve(grown)
        if np.linalg.norm(A @ z - b) < residual:
            c, support, residual = z, grown, float(np.linalg.norm(A @ z - b))
            passed[:] = False
    else:
        raise IterationLimit(f"NNLS did not terminate within {limit} steps")
    grad = A.T @ (b - A @ c)
    tol = 1e-9 * norms * (np.linalg.norm(b) + np.linalg.norm(A @ c))
    if np.any(np.abs(grad[support]) > tol[support]) or np.any(grad > tol):
        raise NumericError("NNLS solution fails its optimality conditions")
    return c, residual


def conic_distance(rays: Sequence[np.ndarray], h: np.ndarray) -> float:
    """Euclidean distance from h to the conic hull of the rays (``nnls``)."""

    h = _as_array(h)
    if not len(rays):
        return float(np.linalg.norm(h))
    return nnls(np.array([_as_array(r, h.shape[0]) for r in rays]).T, h)[1]
