"""Weighted norms, bilinear forms, a dense LP kernel, polyhedral cones and
nonnegative least squares, sized for desk-scale certification work:
multiplier polytopes with a few dozen vertices, cones with a few dozen
generators.

Every polyhedral question of a certification run is answered without LPs,
by one double-description routine.  Run on an H-representation it gives
generators (is a polar cone trivial, which axes does a cone reach, what are
a polytope's vertices, which rays span a cone section); run on the polar of
a finitely generated cone it gives that cone's facets (Minkowski-Weyl),
which decide hull and cone membership.  An H-polytope has one membership
test, one array pass over its rows (``PolytopeH.contains_rows``), and
``enumerate_vertices`` checks every vertex with it: a vertex that misses a
row raises ``NumericError``.  Every distance to a finitely generated cone is
one Lawson-Hanson NNLS (``nnls``, ``conic_distance``).  The dense two-phase
simplex with Bland's rule (``solve_lp``) remains as an independent
reference for the tests.

Polyhedral data.  Each kind has one array form, kept as a read-only copy
(``_as_rows``: rows of the wrong width raise ``DimensionMismatch``):

* a linear system is ``PolytopeH(A, b, n_eq)``: a (k, n) matrix A and a
  length-k vector b, the n_eq equality rows a.x = b first, then the rows
  a.x <= b (``eq_rows`` and ``ineq_rows`` are the two blocks of A); a
  ``LinearProgram`` takes its rows as one;
* a cone {y : E y = 0, I y <= 0} is its two row matrices E and I, with no
  right-hand side (``cone_is_trivial``);
* a ray family, a vertex list and a direction list are each one (k, n)
  array, (0, n) when empty (``model.GeneratedConeSet``,
  ``enumerate_vertices``, ``cones.structured_directions``).

The double description cuts by the rows in the order given, equality rows
first, and returns a lineality basis L and the extreme rays R, each row
scaled to max-abs 1: ``cone_is_trivial`` stacks them as L, -L, R, and
``enumerate_vertices`` returns the vertices in lexicographic order.  It
prepares all rows in one array pass (scaled, zero rows and repeats dropped,
single-entry rows marked with their coordinate), keeps the applied
inequality rows in one preallocated array, and tests a row's crossing ray
pairs in blocks of at most ``_PAIR_BLOCK_ENTRIES`` entries.  Its contract:
L and R are those of the one-row, one-ray-at-a-time loop kept in the tests
as a reference, bit for bit up to the sign of zero, and it raises
``PolytopeTooLarge`` on the same inputs.  All types are immutable after
construction; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatch,
    IterationLimit,
    NumericError,
    PolytopeTooLarge,
    UnboundedPolytope,
)


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


def _as_rows(rows, dim: int) -> np.ndarray:
    """``rows`` as a read-only (k, dim) float copy; an empty sequence is a
    (0, dim) array, and any other shape raises ``DimensionMismatch``."""
    try:
        R = np.array(rows, dtype=float)
    except ValueError:  # rows of different lengths
        raise DimensionMismatch(f"expected rows of dimension {dim}") from None
    if R.ndim == 1 and R.size == 0:
        R = R.reshape(0, dim)
    if R.ndim != 2 or R.shape[1] != dim:
        raise DimensionMismatch(f"expected rows of dimension {dim}, got shape {R.shape}")
    R.flags.writeable = False
    return R


def weighted_norm(weights: np.ndarray, a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weights * a * a)))


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The plain dot product of each row of A with the same row of B, by one
    stacked matmul.  On a single row of 24 entries it takes about 2.5 us
    where ``np.einsum("ij,ij->i", A, B)`` takes 3-5 us, and row evaluators
    run on single rows for every descent rung tried alone (numpy 1.24 has
    no vecdot)."""
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
# H-polytopes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeH:
    """The polyhedron {x : a.x = b on the first n_eq rows, a.x <= b on the
    rest}: read-only rows A (k x dim) and right-hand sides b (length k)."""

    A: np.ndarray
    b: np.ndarray
    n_eq: int = 0

    def __post_init__(self):
        A, b = _frozen(self.A), _frozen(self.b)
        if A.ndim != 2 or b.shape != (len(A),) or not 0 <= self.n_eq <= len(A):
            raise DimensionMismatch(f"rows {A.shape}, right-hand sides {b.shape} and "
                                    f"{self.n_eq} equality rows do not fit")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def eq_rows(self) -> np.ndarray:
        return self.A[: self.n_eq]

    @property
    def ineq_rows(self) -> np.ndarray:
        return self.A[self.n_eq :]

    def contains_rows(self, X, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Row mask: each row x of X (k x dim) lies in the polytope, with
        |a.x - b| on every equality row and a.x - b on every inequality row
        at most tol.feasibility (1 + |b|), in one array pass over the rows."""
        S = np.asarray(X, dtype=float) @ self.A.T - self.b
        S[:, : self.n_eq] = np.abs(S[:, : self.n_eq])
        return np.all(S <= tol.feasibility * (1.0 + np.abs(self.b)), axis=1)

    def contains(self, point, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        return bool(self.contains_rows(_as_array(point, self.dim)[None], tol)[0])

    def cleaned(self, tol: Tolerances = DEFAULT_TOLERANCES) -> "PolytopeH":
        """Drop the zero rows that always hold (0 = b or 0 <= b within
        tol.feasibility); an always-false one is kept, so membership still
        fails on it.  Repeated rows stay: the double description skips
        them."""
        b = self.b
        eq = np.arange(len(b)) < self.n_eq
        holds = np.where(eq, np.abs(b) <= tol.feasibility, b >= -tol.feasibility)
        keep = (np.abs(self.A).max(axis=1, initial=0.0) > 1e-14) | ~holds
        return PolytopeH(self.A[keep], b[keep], int(np.count_nonzero(keep & eq)))


# --------------------------------------------------------------------------
# Linear programs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProgram:
    """min/max of objective . x (+ constant) over the linear system
    ``polytope`` (no rows when None).  Variables are free; sign constraints
    go in as rows."""

    objective: np.ndarray
    polytope: Optional[PolytopeH] = None
    sense: str = "min"
    constant: float = 0.0

    def __post_init__(self):
        obj = _frozen(_as_array(self.objective))
        if self.sense not in ("min", "max"):
            raise DimensionMismatch(f"sense must be 'min' or 'max', got {self.sense!r}")
        if not np.all(np.isfinite(obj)) or not np.isfinite(self.constant):
            raise DimensionMismatch("objective coefficients must be finite")
        poly = self.polytope or PolytopeH(np.zeros((0, len(obj))), np.zeros(0))
        if poly.dim != obj.shape[0]:
            raise DimensionMismatch(f"expected rows of dimension {obj.shape[0]}, got {poly.dim}")
        if not (np.all(np.isfinite(poly.A)) and np.all(np.isfinite(poly.b))):
            raise DimensionMismatch("row coefficients must be finite")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "polytope", poly)

    @property
    def dim(self) -> int:
        return self.objective.shape[0]

    # the two row blocks, which certbench's tracer counts
    @property
    def eq_rows(self) -> np.ndarray:
        return self.polytope.eq_rows

    @property
    def ineq_rows(self) -> np.ndarray:
        return self.polytope.ineq_rows


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

    m, rows = lp.dim, lp.polytope
    n_rows = len(rows.b)
    if max_pivots is None:
        max_pivots = max(50, 10 * (m + n_rows))
    budget = _PivotBudget(max_pivots)

    sign = 1.0 if lp.sense == "min" else -1.0
    c_orig = sign * lp.objective

    # standard form: x = u - v, slack per inequality
    n_slack = n_rows - rows.n_eq
    n_std = 2 * m + n_slack
    A = np.zeros((n_rows, n_std))
    A[:, :m] = rows.A
    A[:, m : 2 * m] = -rows.A
    A[rows.n_eq :, 2 * m :] = np.eye(n_slack)
    b = np.array(rows.b)
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
# Polyhedral cones: the double-description method
# --------------------------------------------------------------------------

_MAX_GENERATORS = 20_000
# The crossing ray pairs of one row are tested in blocks of at most this many
# entries: a block of c pairs builds a c x k tightness matrix (k earlier
# inequalities) and a c x r count matrix (r rays), and c is cut so the larger
# stays under the cap (one pair when k or r alone passes it): a block's float
# count matrix takes at most 512 KiB.
_PAIR_BLOCK_ENTRIES = 1 << 16


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Each row scaled to max-abs 1."""
    return X / np.abs(X).max(axis=1, keepdims=True) if len(X) else X


def _prepared_rows(dim: int, eq, ineq) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows E = ``eq`` then I = ``ineq``, each scaled to max-abs 1 in one
    array pass, with zero rows dropped and, by one dict over each row's kind
    and bytes, repeats of an earlier row of the same kind (bit for bit, so a
    -0.0 entry only hides a repeat).  Returns the rows, their equality mask,
    and for each row its one nonzero coordinate, or -1 when it has more."""

    E, I = (np.asarray(rows, dtype=float).reshape(len(rows), dim) for rows in (eq, ineq))
    A = np.concatenate([E, I])
    scale = np.abs(A).max(axis=1, initial=0.0)
    kept = np.flatnonzero(scale)
    A, is_eq = A[kept] / scale[kept, None], kept < len(E)
    keys = np.hstack([is_eq[:, None], A])  # each row's kind and bits, as one bytes key
    keys = keys.view(np.dtype((np.void, keys.itemsize * (dim + 1))))[:, 0].tolist()
    first_row: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        first_row.setdefault(key, i)
    first = list(first_row.values())
    A, is_eq = A[first], is_eq[first]
    nonzero = A != 0.0
    single = nonzero.argmax(axis=1) if dim else 0  # argmax needs a column
    coord = np.where(nonzero.sum(axis=1) == 1, single, -1)
    return A, is_eq, coord


def _double_description(dim: int, eq, ineq, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lineality basis and extreme rays of {y : E y = 0, I y <= 0} for the
    rows E = ``eq`` and I = ``ineq`` (each (k, dim)), as the rows of two
    arrays, each row scaled to max-abs 1.

    The double-description method (Motzkin et al. 1953) cuts the whole space
    by one row at a time, equalities first.  The rows are prepared in one
    array pass (``_prepared_rows``): each is scaled to max-abs 1, and zero
    rows and repeats of an earlier row of the same kind go, since they change
    neither the cone nor the adjacency test.  A row that is not zero on the
    lineality space removes one lineality vector d (the largest pivot); for
    an inequality, the side of d that the row keeps becomes a ray, and the
    other rays move along d onto the row.  Otherwise the rays on the row's
    wrong side go, and each adjacent pair across the row adds the
    combination on it.  Adjacency is the combinatorial test of Fukuda and
    Prodon (1996): no third ray is tight on every earlier inequality that
    both are tight on.  It runs on the crossing pairs in positive-major
    order, in blocks of at most ``_PAIR_BLOCK_ENTRIES`` entries, against the
    applied inequality rows, which sit in one preallocated array.  A row with
    one nonzero entry sets that coordinate of its tight generators to exactly
    0.  More than ``_MAX_GENERATORS`` rays raise ``PolytopeTooLarge``, checked
    after each block; on a pointed cone with linearly independent rays every
    pair is adjacent, so a row whose pairs would pass the guard raises before
    they are built.  The blocks change no output: L and R are those of the
    one-row-at-a-time loop, bit for bit up to the sign of zero.
    """

    rows, is_eqs, coords = _prepared_rows(dim, eq, ineq)
    L, R = np.eye(dim), np.zeros((0, dim))
    done, n_done = np.empty((len(rows), dim)), 0  # the applied inequality rows
    for a, is_eq, coord in zip(rows, is_eqs.tolist(), coords.tolist()):
        if not (len(L) or len(R)):
            break  # the cone is {0}
        sl = L @ a
        j = int(np.argmax(np.abs(sl))) if len(sl) else -1
        if j >= 0 and abs(sl[j]) > tol:
            d = -np.sign(sl[j]) * L[j]  # a.d < 0
            L = _unit_rows(np.delete(L - np.outer(sl / sl[j], L[j]), j, axis=0))
            if not is_eq:  # equalities come first, while there are no rays
                R = _unit_rows(np.vstack([R - np.outer(R @ a / (a @ d), d), d]))
        elif not is_eq:
            s = R @ a
            pos, neg, new = np.flatnonzero(s > tol), np.flatnonzero(s < -tol), [R[s <= tol]]
            pairs = len(pos) * len(neg)
            if (len(new[0]) + pairs > _MAX_GENERATORS and not len(L)
                    and np.linalg.matrix_rank(R) == len(R)):
                # a pointed simplicial cone: every pair of rays is adjacent,
                # so the bound is the count the blocks below would reach
                raise PolytopeTooLarge(f"the cone would have over {_MAX_GENERATORS} rays")
            if pairs:
                Z = np.abs(R @ done[:n_done].T) <= tol  # Z[r, k]: ray r is tight on inequality k
                block = max(1, _PAIR_BLOCK_ENTRIES // max(n_done, len(R)))
                for start in range(0, pairs, block):
                    t = np.arange(start, min(start + block, pairs))  # positive-major
                    p, n = pos[t // len(neg)], neg[t % len(neg)]
                    adjacent = _adjacent_pairs(Z[p] & Z[n], Z)
                    p, n = p[adjacent], n[adjacent]
                    new.append(s[p, None] * R[n] - s[n, None] * R[p])
                    if sum(map(len, new)) > _MAX_GENERATORS:
                        raise PolytopeTooLarge(f"the cone would have over {_MAX_GENERATORS} rays")
            R = _unit_rows(np.vstack(new))
        if not is_eq:
            done[n_done] = a
            n_done += 1
        if coord >= 0:
            L[:, coord] = 0.0
            R[np.abs(R @ a) <= tol, coord] = 0.0
    return L, R


def _adjacent_pairs(common: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Mask over a block of ray pairs, ``common[i]`` the inequalities both
    rays of pair i are tight on and ``Z[r, k]`` whether ray r is tight on
    inequality k: exactly two rays, the pair itself, are tight on all of
    them.  Only the inequalities in some ``common[i]`` are counted."""
    cols = common.any(axis=0)
    missed = common[:, cols].astype(float) @ (~Z[:, cols]).T.astype(float)
    return (missed == 0).sum(axis=1) == 2


def cone_is_trivial(
    dim: int, eq, ineq, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, np.ndarray]:
    """Whether the cone {y : E y = 0, I y <= 0} of the row matrices E =
    ``eq`` and I = ``ineq`` (each (k, dim)) is {0}, with its generators: the
    rows of a read-only array whose conic hull is the cone, each lineality
    vector l as l and -l, then the extreme rays.  The first one is a nonzero
    witness.
    """

    L, R = _double_description(dim, eq, ineq, tol.feasibility)
    gens = _frozen(np.vstack([L, -L, R]) + 0.0)  # + 0.0 normalizes negative zeros
    return len(gens) == 0, gens


def cone_facets(dim: int, generators) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) with cone(G) = {z : L z = 0, R z <= 0} for the generators G =
    ``generators``, the rows of a (k, dim) array.

    By Minkowski-Weyl these are the lineality basis and the extreme rays of
    the polar {y : g.y <= 0 for every generator g} (Motzkin et al. 1953;
    Fukuda and Prodon 1996), each row scaled to max-abs 1, at the default
    feasibility tolerance.  No generators give L = I: the cone is {0}.
    """

    return _double_description(dim, (), generators, DEFAULT_TOLERANCES.feasibility)


def _scaled_vertices(p: PolytopeH, d, tol: Tolerances) -> Optional[np.ndarray]:
    """Vertices of p read off the cone {(u, t) : (a d).u <= b t, (a d).u =
    b t, t >= 0} of p with each coordinate x_j shrunk by d_j (a scalar d
    shrinks them all): no rows when no extreme ray has t > 0 (p is empty),
    None when some generator has t = 0 (p is unbounded), else the rays at
    x = d u / t, merged at the vertex_dedup tolerance (a ray is kept unless
    a ray kept before it lies within vertex_dedup in max-norm, one array
    test per ray against the kept ones), as one read-only array in
    lexicographic row order."""

    Z = np.hstack([p.A * d, -p.b[:, None]])
    L, R = _double_description(p.dim + 1, Z[: p.n_eq],
                               np.vstack([Z[p.n_eq :], -np.eye(p.dim + 1)[-1:]]), tol.feasibility)
    finite = R[:, -1] > 0.0  # t >= 0 is a sign row: rays tight on it have t = 0 exactly
    if not finite.any():
        return np.empty((0, p.dim))
    if len(L) or not finite.all():
        return None
    X = d * R[:, :-1] / R[:, -1:]
    kept = np.empty_like(X)
    count = 0
    for x in X:
        if not np.any(np.abs(kept[:count] - x).max(axis=1, initial=0.0) <= tol.vertex_dedup):
            kept[count] = x
            count += 1
    V = kept[:count] + 0.0
    return _frozen(V[np.lexsort(V.T[::-1])] if p.dim else V)  # column 0 is the first key


def _coordinate_bounds(p: PolytopeH) -> np.ndarray:
    """Per coordinate j, the smallest nonzero |b| / |a_j| over the rows that
    touch x_j, and at least 1: the size of x_j that the rows allow."""
    touch = (p.A != 0.0) & (p.b != 0.0)[:, None]
    ratios = np.divide(np.abs(p.b)[:, None], np.abs(p.A), out=np.full(p.A.shape, np.inf),
                       where=touch)
    d = ratios.min(axis=0, initial=np.inf)
    return np.where(np.isfinite(d), np.maximum(d, 1.0), 1.0)


def enumerate_vertices(p: PolytopeH, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """All vertices of a bounded polytope, the rows of one read-only array in
    lexicographic order; no rows when it is empty, ``UnboundedPolytope`` when
    it is unbounded.

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
    if vertices is None or not len(vertices):
        touched = np.any(p.A, axis=1)
        rows = np.abs(p.A[touched]).max(axis=1, initial=0.0)
        s = float(np.max(np.abs(p.b[touched]) / rows, initial=1.0))
        for shrink in (_coordinate_bounds(p), s):
            wide = _scaled_vertices(p, shrink, tol) if np.any(shrink > 1.0) else None
            if wide is not None and len(wide) and p.contains_rows(wide, tol).all():
                vertices = wide
                break
    if vertices is None:
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    missed = np.flatnonzero(~p.contains_rows(vertices, tol))
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


def conic_distance(rays, h: np.ndarray) -> float:
    """Euclidean distance from h to the conic hull of the rays, the rows of a
    (k, n) array (``nnls``)."""

    h = _as_array(h)
    R = _as_rows(rays, h.shape[0])
    if not len(R):
        return float(np.linalg.norm(h))
    return nnls(R.T, h)[1]
