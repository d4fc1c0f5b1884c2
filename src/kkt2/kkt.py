"""First-order certification: multiplier polytope and constraint qualifications.

``multiplier_set`` is a run's one point object: the problem, the point, the
tolerances, the tangent patterns of C (boxes) and K at the point, f'(x) and
g'(x), and the multiplier polytope.  Every check from here to the
second-order conditions takes it alone, in place of the problem, x and the
tolerances.

The multiplier set is parameterized by mu alone (lambda is eliminated
through stationarity, lambda(mu) = -f'(x) - sum_i mu_i g_i'(x)), which makes
it an H-polytope in R^m, whose emptiness, boundedness and vertices come from
one double-description run (``linalg.enumerate_vertices``).

Surjectivity-type constraint qualifications are decided by polarity: a
polyhedral cone difference equals the whole space iff only nu = 0 satisfies
the polar system.  ``linalg.cone_is_trivial`` returns the generators of the
polar cone; there are none iff the CQ holds, and when the strict CQ fails
their signs give the achieved cone.

When the multiplier set is empty, the distance to stationarity is one
nonnegative least-squares problem (``linalg.nnls``) over the multipliers
and the normal cone's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InfeasiblePoint, UnboundedPolytope, UsageError
from .cones import (
    FREE,
    NONNEG,
    NONPOS,
    ZERO,
    SignPatternCone,
    absorb_rows,
    tangent_cone_box,
)
from .linalg import PolytopeH, cone_is_trivial, enumerate_vertices, nnls, weighted_norm
from .model import BoxSet, ProblemSpec, as_entries, check_feasible

Row = tuple[np.ndarray, float]


@dataclass(frozen=True)
class Multipliers:
    """A single multiplier pair (lambda, mu) at a base point."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        lam.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class MultiplierSet:
    """The point x of ``problem`` with what every check reads at it: the
    tangent sign pattern of a box C at x (``c_pattern``; None on a hull,
    whose ray families differ per question), K's tangent pattern at g(x)
    over the m constraints (``k_pattern``: =0 on equalities, <=0 on active
    inequalities, free on inactive ones), f'(x), the m x n Jacobian g'(x),
    the multiplier polytope Lambda(x) over mu, with lambda eliminated, and
    the tolerances every check reads.

    ``empty``, ``bounded`` and ``vertices`` come from one double description
    of the polytope, run on first read, so a run that reads only the point
    data never starts it."""

    problem: ProblemSpec
    x: np.ndarray
    c_pattern: Optional[SignPatternCone]
    k_pattern: SignPatternCone
    f_grad: np.ndarray
    g_grads: np.ndarray  # m x n
    polytope: PolytopeH
    tol: Tolerances = DEFAULT_TOLERANCES

    @property
    def m(self) -> int:
        return self.g_grads.shape[0]

    @cached_property
    def _enumeration(self) -> tuple[bool, bool, tuple[np.ndarray, ...]]:
        """(empty, bounded, vertices).  An empty polytope reads as unbounded,
        except without constraints, where mu has no entries and the set is
        {()} or empty."""
        try:
            vertices = tuple(enumerate_vertices(self.polytope, self.tol))
        except UnboundedPolytope:
            return False, False, ()
        return not vertices, bool(vertices) or self.m == 0, vertices

    @cached_property
    def empty(self) -> bool:
        return self._enumeration[0]

    @cached_property
    def bounded(self) -> bool:
        return self._enumeration[1]

    @cached_property
    def vertices(self) -> tuple[np.ndarray, ...]:
        return self._enumeration[2]

    def lam_of(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return -self.f_grad - self.g_grads.T @ mu

    def multipliers(self, mu) -> Multipliers:
        return Multipliers(self.lam_of(mu), np.asarray(mu, dtype=float))

    def contains_mu(self, mu) -> bool:
        if self.m == 0:
            return not self.empty
        return self.polytope.contains(np.asarray(mu, dtype=float), self.tol)


def _abstract_cone(
    mset: MultiplierSet, D: np.ndarray, hull_rays
) -> tuple[SignPatternCone, np.ndarray]:
    """The abstract set's cone at the point of ``mset`` as a sign pattern
    over k generator coefficients, with the matrix whose column j is the
    derivative rows D along generator j.

    For a box the generators are the n coordinates under ``c_pattern``, and
    the matrix is D itself: the weighted product would scale column j by
    w_j > 0, which changes no sign condition.  For a hull they are the rays
    ``hull_rays(set)``, every coefficient >= 0, and entry (i, j) is
    <D[i], ray j>_w.
    """
    if mset.c_pattern is not None:
        return mset.c_pattern, D
    p = mset.problem
    rays = hull_rays(p.abstract_set)
    w = p.weights
    M = np.array([[float(np.sum(w * row * d)) for d in rays] for row in D])
    return SignPatternCone(np.full(len(rays), NONNEG)), M.reshape(len(D), len(rays))


def _polar_rows(
    pattern: SignPatternCone, M: np.ndarray, rhs: Optional[np.ndarray] = None
) -> tuple[list[Row], list[Row]]:
    """Rows in y of "y . M[:, j] - rhs_j has the sign of the polar of code j",
    for every column j (rhs defaults to 0)."""
    eq: list[Row] = []
    ineq: list[Row] = []
    for j, code in enumerate(pattern.polar().codes):
        b = 0.0 if rhs is None else rhs[j]
        if code == NONPOS:
            ineq.append((M[:, j], b))
        elif code == NONNEG:
            ineq.append((-M[:, j], -b))
        elif code == ZERO:
            eq.append((M[:, j], b))
    return eq, ineq


def multiplier_set(
    p: ProblemSpec, x, tol: Tolerances = DEFAULT_TOLERANCES
) -> MultiplierSet:
    """The point data at x and Lambda(x) as an H-polytope over mu; raises at
    an infeasible point.  No other check function tests feasibility, takes
    first derivatives at x or builds a tangent pattern: each reads them off
    this object."""

    v = as_entries(x, p.dim)
    feas = check_feasible(p, v, tol)
    if not feas.feasible:
        raise InfeasiblePoint("multiplier set requested at an infeasible point")

    f_grad = np.asarray(p.objective.gradient(v), dtype=float)
    m = p.n_constraints
    G = np.array(p.constraint_gradients(v), dtype=float).reshape(m, p.dim)
    k_codes = np.full(m, FREE, dtype=np.int8)
    k_codes[list(feas.info.active)] = NONPOS
    k_codes[: p.m1] = ZERO
    c_pattern = tangent_cone_box(p.abstract_set, v, tol) \
        if isinstance(p.abstract_set, BoxSet) else None
    mset = MultiplierSet(p, v, c_pattern, SignPatternCone(k_codes), f_grad, G, PolytopeH(m), tol)

    if m == 0:
        # Lambda(x) is {()} when lambda = -f'(x) lies in the normal cone,
        # else empty: the row 0 <= -1
        ok = _lambda_in_normal_cone(mset, -f_grad)
        return replace(mset, polytope=PolytopeH(0, (), () if ok else ((np.zeros(0), -1.0),)))

    # lambda(mu) = -f'(x) - G^T mu lies in the normal cone, the polar of the
    # tangent cone: one row per generator, in the generator coordinates; mu
    # lies in the normal cone of K, the polar of k_pattern
    pattern, GF = _abstract_cone(mset, np.vstack([G, f_grad]), lambda s: s.normal_row_rays())
    pat_eq, pat_ineq = _polar_rows(pattern, -GF[:m], GF[m])
    sign_eq, sign_ineq = _polar_rows(mset.k_pattern, np.eye(m))
    poly = PolytopeH(m, tuple(sign_eq + pat_eq), tuple(sign_ineq + pat_ineq)).cleaned(tol)
    return replace(mset, polytope=poly)


def _lambda_in_normal_cone(mset: MultiplierSet, lam: np.ndarray) -> bool:
    tol = mset.tol
    if mset.c_pattern is not None:
        return mset.c_pattern.polar().contains(lam, tol.residual)
    p = mset.problem
    w = p.weights
    scale = tol.residual * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
    return all(
        float(np.sum(w * lam * d)) <= scale * (1.0 + float(np.max(np.abs(d))))
        for d in p.abstract_set.normal_row_rays()
    )


def validate_multipliers(mset: MultiplierSet, mult: Multipliers) -> float:
    """Stationarity residual of (lambda, mu) at the point of ``mset``, read
    with its patterns, f'(x) and Jacobian; raises on sign violations."""

    w, tol, codes = mset.problem.weights, mset.tol, mset.k_pattern.codes
    resid_vec = mset.f_grad + mult.lam + (mset.g_grads.T @ mult.mu if mset.m else 0.0)
    residual = weighted_norm(w, resid_vec)
    if residual > tol.residual * (1.0 + weighted_norm(w, mset.f_grad)):
        raise UsageError(f"stationarity residual {residual:.3e} too large")
    for i in np.flatnonzero((codes == FREE) & (np.abs(mult.mu) > tol.residual)):
        raise UsageError(f"mu[{i}] must vanish on an inactive constraint")
    for i in np.flatnonzero((codes == NONPOS) & (mult.mu < -tol.residual)):
        raise UsageError(f"mu[{i}] must be nonnegative on an active inequality")
    if not _lambda_in_normal_cone(mset, mult.lam):
        raise UsageError("lambda violates the normal-cone pattern")
    return residual


# --------------------------------------------------------------------------
# Constraint qualifications
# --------------------------------------------------------------------------
#
# Every CQ asks whether one cone difference g'(x)[C-cone] - [K-cone] is all
# of R^m.  With the C-cone as a sign pattern over generator coefficients and
# M the constraint derivatives along the generators (``_abstract_cone``), the
# difference is [M, -I] applied to the sign pattern of C x K.


@dataclass(frozen=True)
class CQVerdict:
    name: str
    holds: bool
    witness: Optional[np.ndarray] = None
    achieved_cone: Optional[str] = None


def _difference_map(
    c_pattern: SignPatternCone, M: np.ndarray, k_pattern: SignPatternCone
) -> tuple[SignPatternCone, np.ndarray]:
    """The sign pattern of C x K and the matrix [M, -I] mapping it onto the
    cone difference M[C] - K."""
    pattern = SignPatternCone(np.concatenate([c_pattern.codes, k_pattern.codes]))
    return pattern, np.hstack([M, -np.eye(M.shape[0])])


def _polar_generators(
    pattern: SignPatternCone, MI: np.ndarray, tol: Tolerances
) -> np.ndarray:
    """Generators (rows) of the polar of MI[pattern]: the nu with nu . MI[:, j]
    in the polar of every code j.  MI[pattern] = R^m iff there are none, and
    the first one is the witness when there are."""
    eq, ineq = _polar_rows(pattern, MI)
    return cone_is_trivial(MI.shape[0], eq, ineq, tol)[1]


def _surjectivity_cq(mset: MultiplierSet, hull_rays, name: str) -> CQVerdict:
    """g'(x)[C-cone] - T_K(g(x)) = R^m at the point of ``mset``, with the
    C-cone generated by the tangent pattern of a box or by
    ``hull_rays(set)`` of a hull."""
    c_pattern, M = _abstract_cone(mset, mset.g_grads, hull_rays)
    gens = _polar_generators(*_difference_map(c_pattern, M, mset.k_pattern), mset.tol)
    return CQVerdict(name, not len(gens), witness=gens[0] if len(gens) else None)


def check_rzkcq(mset: MultiplierSet) -> CQVerdict:
    """g'(x) R_C(x) - R_K(g(x)) = R^m, via the polar probe."""
    return _surjectivity_cq(mset, lambda s: s.rays + s.deep_rays, "rzkcq")


def check_weaker_cq(mset: MultiplierSet) -> CQVerdict:
    """Tangent-cone variant g'(x) T_C(x) - T_K(g(x)) = R^m; for boxes the
    radial and tangent cones share the sign pattern, so the verdict always
    matches check_rzkcq there."""
    return _surjectivity_cq(mset, lambda s: s.normal_row_rays(), "weaker")


def check_strict_cq(mset: MultiplierSet, mult: Multipliers) -> CQVerdict:
    """Strict qualification: g'(x)[T_C(x) ∩ lambda-annihilator] minus
    [T_K(g(x)) ∩ mu-annihilator] must be all of R^m.

    The annihilator sections are pattern cones again (each annihilating row
    has single-signed terms, so it absorbs), once the entries of lambda and
    mu that validation accepts as zero are exactly zero; the verdict is the
    same polar probe.  On failure the achieved cone is described by per-axis
    reachability; for m = 1 that is one of {0}, (-inf,0], [0,inf), R.  The
    achieved cone is the polar of the polar cone, so +e_i is reached iff
    every polar generator has a nonpositive entry i.
    """

    p, tol, m = mset.problem, mset.tol, mset.m
    validate_multipliers(mset, mult)
    lam_zero = tol.residual * (1.0 + float(np.max(np.abs(mult.lam), initial=0.0)))
    mult = Multipliers(np.where(np.abs(mult.lam) <= lam_zero, 0.0, mult.lam),
                       np.where(np.abs(mult.mu) <= tol.residual, 0.0, mult.mu))
    k_section, eq_left, _ = absorb_rows(mset.k_pattern, [mult.mu], [], np.ones(m))
    if eq_left:
        raise UsageError("mu-annihilator section did not absorb; invalid multipliers")

    if mset.c_pattern is not None:
        c_section, eq_left, _ = absorb_rows(mset.c_pattern, [mult.lam], [], p.weights)
        if eq_left:
            raise UsageError("lambda-annihilator section did not absorb; invalid multipliers")
        M = mset.g_grads
    else:
        kept_rays = [
            d for d in p.abstract_set.tangent_rays()
            if abs(float(np.sum(p.weights * mult.lam * d)))
            <= tol.residual * (1.0 + float(np.max(np.abs(d))))
        ]
        c_section, M = _abstract_cone(mset, mset.g_grads, lambda s: kept_rays)

    gens = _polar_generators(*_difference_map(c_section, M, k_section), tol)
    if not len(gens):
        return CQVerdict("strict", True)

    axes = [(bool(np.all(gens[:, i] <= tol.feasibility)),
             bool(np.all(gens[:, i] >= -tol.feasibility))) for i in range(m)]
    if m == 1:
        desc = {(True, True): "R", (False, True): "(-inf, 0]",
                (True, False): "[0, inf)", (False, False): "{0}"}[axes[0]]
    else:
        desc = "; ".join(
            f"axis {i}: +{'yes' if pl else 'no'}/-{'yes' if mi else 'no'}"
            for i, (pl, mi) in enumerate(axes)
        )
    return CQVerdict("strict", False, witness=gens[0], achieved_cone=desc)


# --------------------------------------------------------------------------
# Stationarity
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FOCResult:
    stationary: bool
    residual: float
    best_mu: Optional[np.ndarray] = None


def _normal_cone_generators(mset: MultiplierSet) -> np.ndarray:
    """Generators (rows) of the abstract set's normal cone at the point:
    signed unit vectors read off the polar of a box's tangent pattern, or
    for a hull the generators of {lambda : <lambda, d>_w <= 0 for every ray
    d}."""
    p = mset.problem
    if mset.c_pattern is not None:
        codes = mset.c_pattern.polar().codes
        eye = np.eye(p.dim)
        return np.vstack([eye[(codes == NONNEG) | (codes == FREE)],
                          -eye[(codes == NONPOS) | (codes == FREE)]])
    rows = [(p.weights * d, 0.0) for d in p.abstract_set.normal_row_rays()]
    return cone_is_trivial(p.dim, [], rows, mset.tol)[1]


def foc_residual(mset: MultiplierSet) -> FOCResult:
    """Stationary iff the multiplier set is nonempty; otherwise reports the
    distance to stationarity, min over admissible mu of
    dist_w(-f'(x) - g'(x)^T mu, N_C(x)), with its argmin mu.

    That is one NNLS (``linalg.nnls``) in the weighted coordinates
    sqrt(w) y: its columns are g_i'(x) for the active inequalities,
    +-g_i'(x) for the equalities and the normal cone's generators, and its
    right-hand side is -f'(x)."""

    if not mset.empty:
        return FOCResult(True, 0.0)

    p, m, G = mset.problem, mset.m, mset.g_grads
    eq = np.arange(p.m1)
    ineq = np.flatnonzero(mset.k_pattern.codes == NONPOS)
    s = np.sqrt(p.weights)
    A = s[:, None] * np.vstack([G[eq], -G[eq], G[ineq], _normal_cone_generators(mset)]).T
    c, residual = nnls(A, -s * mset.f_grad)
    mu = np.zeros(m)
    mu[eq] = c[: p.m1] - c[p.m1 : 2 * p.m1]
    mu[ineq] = c[2 * p.m1 : 2 * p.m1 + len(ineq)]
    return FOCResult(False, residual, best_mu=mu if m else None)
