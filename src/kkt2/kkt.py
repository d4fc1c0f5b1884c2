"""First-order certification: multiplier polytope and constraint qualifications.

``multiplier_set`` is a run's one point object: the problem, the point, the
tolerances, the tangent patterns of C (boxes) and K at the point, f'(x) and
g'(x), and the multiplier polytope; f''(x) and g''(x) are built on first
read.  Every check from here to the second-order conditions takes it alone,
in place of the problem, x and the tolerances.  A multiplier is its mu:
``MultiplierSet.annihilator(mu)`` gives lambda(mu) and the annihilator
sections of both tangent patterns, which the strict CQ and a box's
critical cone read.

The multiplier set is parameterized by mu alone (lambda is eliminated
through stationarity, lambda(mu) = -f'(x) - sum_i mu_i g_i'(x)), which makes
it an H-polytope in R^m, whose emptiness, boundedness and vertices come from
one double-description run (``linalg.enumerate_vertices``), which checks
each vertex against the polytope's rows.  Those rows (K's signs on mu,
lambda(mu) in the normal cone) are the one multiplier test, ``contains_mu``.

Surjectivity-type constraint qualifications are decided by polarity: a
polyhedral cone difference equals the whole space iff only nu = 0 satisfies
the polar system, whose two row matrices are masks on the pattern codes
(``_polar_rows``).  ``linalg.cone_is_trivial`` returns the generators of the
polar cone; there are none iff the CQ holds.  When the strict CQ fails, the
signs of the polar generators give the achieved cone.  A box reads them off
the multiplier vertices: on polyhedral data the polar cone at a vertex mu
is cone(mu - Lambda(x)), generated by the differences to the other
vertices, so the strict CQ holds iff the multiplier is unique (Kyparisis
1985; Shapiro 1997).  A hull takes them from the double description.

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
    _polar_rows,
    tangent_cone_box,
)
from .linalg import BilinearForm, PolytopeH, cone_is_trivial, enumerate_vertices, nnls
from .model import BoxSet, GeneratedConeSet, ProblemSpec, as_entries, check_feasible


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
    data never starts it; ``vertices`` is one read-only (k, m) array.  The
    Hessians f''(x) and g_i''(x) (``f_form``, ``g_forms``) are built on
    first read too, once per point."""

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
    def _enumeration(self) -> tuple[bool, bool, np.ndarray]:
        """(empty, bounded, vertices).  An empty polytope reads as unbounded,
        except without constraints, where mu has no entries and the set is
        {()} or empty."""
        try:
            vertices = enumerate_vertices(self.polytope, self.tol)
        except UnboundedPolytope:
            return False, False, np.empty((0, self.m))
        return not len(vertices), len(vertices) > 0 or self.m == 0, vertices

    @cached_property
    def empty(self) -> bool:
        return self._enumeration[0]

    @cached_property
    def bounded(self) -> bool:
        return self._enumeration[1]

    @cached_property
    def vertices(self) -> np.ndarray:
        return self._enumeration[2]

    @cached_property
    def _box_surjectivity_polar(self) -> np.ndarray:
        """Generators of the polar of g'(x)[T_C(x)] - T_K(g(x)) on a box: the
        RZK CQ and its tangent variant share the sign pattern there, so both
        verdicts read this one probe."""
        return _polar_generators(
            *_difference_map(self.c_pattern, self.g_grads, self.k_pattern), self.tol)

    @cached_property
    def f_form(self) -> BilinearForm:
        """f''(x)."""
        return self.problem.objective.hessian(self.x)

    @cached_property
    def g_forms(self) -> tuple[BilinearForm, ...]:
        """g_i''(x), one form per constraint."""
        return tuple(c.hessian(self.x) for c in self.problem.constraints)

    def lam_of(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return -self.f_grad - self.g_grads.T @ mu

    def annihilator(self, mu) -> tuple[Optional[SignPatternCone], SignPatternCone, np.ndarray]:
        """(T_C(x) ∩ lambda-annihilator, T_K(g(x)) ∩ mu-annihilator, lambda)
        for the multiplier mu, with lambda = lambda(mu); the C section is
        None on a hull.

        An entry of lambda within tol.residual (1 + max|lambda|) of zero is
        zero (returned as exactly 0), and so is an entry of mu within
        tol.residual; every other entry sets its coordinate to =0.  For a
        valid multiplier each annihilating row is single-signed on its
        tangent pattern, so this is the whole section."""
        tol = self.tol
        mu = np.asarray(mu, dtype=float)
        lam = self.lam_of(mu)
        lam_zero = tol.residual * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
        lam = np.where(np.abs(lam) <= lam_zero, 0.0, lam)
        k_codes = np.array(self.k_pattern.codes)
        k_codes[np.abs(mu) > tol.residual] = ZERO
        c_section = None
        if self.c_pattern is not None:
            c_codes = np.array(self.c_pattern.codes)
            c_codes[lam != 0.0] = ZERO
            c_section = SignPatternCone(c_codes)
        return c_section, SignPatternCone(k_codes), lam

    def contains_mu(self, mu) -> bool:
        """Whether mu is a multiplier: the polytope's own rows decide it
        (``PolytopeH.contains``), K's signs and lambda(mu) in the normal
        cone alike."""
        return self.polytope.contains(mu, self.tol)


def _abstract_cone(
    mset: MultiplierSet, D: np.ndarray, hull_rays
) -> tuple[SignPatternCone, np.ndarray]:
    """The abstract set's cone at the point of ``mset`` as a sign pattern
    over k generator coefficients, with the matrix whose column j is the
    derivative rows D along generator j.

    For a box the generators are the n coordinates under ``c_pattern``, and
    the matrix is D itself: the weighted product would scale column j by
    w_j > 0, which changes no sign condition.  For a hull they are the rays
    ``hull_rays(set)``, the rows of a (k, n) array, every coefficient >= 0,
    and entry (i, j) is <D[i], ray j>_w, summed entry by entry as
    ``np.sum`` sums one row.
    """
    if mset.c_pattern is not None:
        return mset.c_pattern, D
    rays = hull_rays(mset.problem.abstract_set)
    M = np.sum((mset.problem.weights * D)[:, None, :] * rays, axis=2)
    return SignPatternCone(np.full(len(rays), NONNEG)), M


def multiplier_set(
    p: ProblemSpec, x, tol: Tolerances = DEFAULT_TOLERANCES
) -> MultiplierSet:
    """The point data at x and Lambda(x) as an H-polytope over mu; raises at
    an infeasible point, and on a hull at any point but its base, whose rays
    are the only ones the set lists.  No other check function tests
    feasibility, takes first derivatives at x or builds a tangent pattern:
    each reads them off this object."""

    v = as_entries(x, p.dim)
    feas = check_feasible(p, v, tol)
    if not feas.feasible:
        raise InfeasiblePoint("multiplier set requested at an infeasible point")
    if isinstance(p.abstract_set, GeneratedConeSet) \
            and np.max(np.abs(v - p.abstract_set.base)) > tol.activity:
        raise UsageError("generated-cone problems support queries at the base point only")

    f_grad = np.asarray(p.objective.gradient(v), dtype=float)
    m = p.n_constraints
    G = np.array(p.constraint_gradients(v), dtype=float).reshape(m, p.dim)
    k_codes = np.full(m, FREE, dtype=np.int8)
    k_codes[list(feas.info.active)] = NONPOS
    k_codes[: p.m1] = ZERO
    c_pattern = tangent_cone_box(p.abstract_set, v, tol) \
        if isinstance(p.abstract_set, BoxSet) else None
    mset = MultiplierSet(p, v, c_pattern, SignPatternCone(k_codes), f_grad, G,
                         PolytopeH(np.zeros((0, m)), np.zeros(0)), tol)

    # mu lies in the normal cone of K (the polar of k_pattern) and lambda(mu)
    # = -f'(x) - G^T mu in the abstract set's normal cone: one row per
    # generator, in the generator coordinates.  One system over the columns
    # [I, -G'] puts K's rows first in each block.  With m = 0 the rows are
    # 0 = b or 0 <= b, so Lambda(x) is {()} or empty by the same test
    pattern, GF = _abstract_cone(mset, np.vstack([G, f_grad]), lambda s: s.normal_row_rays())
    both = SignPatternCone(np.concatenate([mset.k_pattern.codes, pattern.codes]))
    poly = _polar_rows(both, np.hstack([np.eye(m), -GF[:m]]),
                       np.concatenate([np.zeros(m), GF[m]])).cleaned(tol)
    return replace(mset, polytope=poly)


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
    polar = _polar_rows(pattern, MI)
    return cone_is_trivial(MI.shape[0], polar.eq_rows, polar.ineq_rows, tol)[1]


def _surjectivity_cq(mset: MultiplierSet, hull_rays, name: str) -> CQVerdict:
    """g'(x)[C-cone] - T_K(g(x)) = R^m at the point of ``mset``, with the
    C-cone generated by the tangent pattern of a box or by
    ``hull_rays(set)`` of a hull."""
    if mset.c_pattern is not None:
        gens = mset._box_surjectivity_polar
    else:
        c_pattern, M = _abstract_cone(mset, mset.g_grads, hull_rays)
        gens = _polar_generators(*_difference_map(c_pattern, M, mset.k_pattern), mset.tol)
    return CQVerdict(name, not len(gens), witness=gens[0] if len(gens) else None)


def check_rzkcq(mset: MultiplierSet) -> CQVerdict:
    """g'(x) R_C(x) - R_K(g(x)) = R^m, via the polar probe (on a box the
    point object's one probe, shared with ``check_weaker_cq``)."""
    return _surjectivity_cq(mset, lambda s: np.vstack([s.rays, s.deep_rays]), "rzkcq")


def check_weaker_cq(mset: MultiplierSet) -> CQVerdict:
    """Tangent-cone variant g'(x) T_C(x) - T_K(g(x)) = R^m; for boxes the
    radial and tangent cones share the sign pattern, so both read the same
    probe there."""
    return _surjectivity_cq(mset, lambda s: s.normal_row_rays(), "weaker")


def check_strict_cq(mset: MultiplierSet, mu) -> CQVerdict:
    """Strict qualification at the multiplier mu: g'(x)[T_C(x) ∩
    lambda-annihilator] minus [T_K(g(x)) ∩ mu-annihilator] must be all of
    R^m.

    The annihilator sections are pattern cones again
    (``MultiplierSet.annihilator``); on a hull the C-cone keeps the tangent
    rays d that lambda annihilates, |<lambda, d>_w| <= tol.residual max|d|,
    a test that no rescaling of the rays changes.  The verdict is the same
    polar probe, and on failure the achieved cone is read off the polar
    generators (``_achieved_cone``).

    This is the reference route, one double description per multiplier;
    ``stages.strict_cq`` runs it on hulls, and answers boxes by
    ``strict_cq_by_vertices``.
    """

    p, tol = mset.problem, mset.tol
    if not mset.contains_mu(mu):
        raise UsageError("mu is not in the multiplier set")
    c_section, k_section, lam = mset.annihilator(mu)
    if c_section is not None:
        M = mset.g_grads
    else:
        T = p.abstract_set.tangent_rays()
        scale = np.abs(T).max(axis=1, initial=0.0)
        kept = np.abs(np.sum(p.weights * lam * T, axis=1)) <= tol.residual * scale
        c_section, M = _abstract_cone(mset, mset.g_grads, lambda s: T[kept])

    gens = _polar_generators(*_difference_map(c_section, M, k_section), tol)
    if not len(gens):
        return CQVerdict("strict", True)
    return CQVerdict("strict", False, witness=gens[0], achieved_cone=_achieved_cone(gens, tol))


def _achieved_cone(gens: np.ndarray, tol: Tolerances) -> str:
    """The cone that the strict CQ's difference reaches, by per-axis
    reachability, from generators (rows, each scaled to max-abs 1) of its
    polar; for m = 1 one of {0}, (-inf, 0], [0, inf), R.  The achieved cone
    is the polar of the polar cone, so +e_i is reached iff every generator
    has a nonpositive entry i."""
    plus = np.all(gens <= tol.feasibility, axis=0)
    minus = np.all(gens >= -tol.feasibility, axis=0)
    if len(plus) == 1:
        return {(True, True): "R", (False, True): "(-inf, 0]",
                (True, False): "[0, inf)", (False, False): "{0}"}[(bool(plus[0]), bool(minus[0]))]
    return "; ".join(f"axis {i}: +{'yes' if pl else 'no'}/-{'yes' if mi else 'no'}"
                     for i, (pl, mi) in enumerate(zip(plus, minus)))


def strict_cq_by_vertices(mset: MultiplierSet) -> list[CQVerdict]:
    """The strict CQ at every vertex of a box's bounded multiplier polytope,
    read off the vertex list with no double description.

    On polyhedral data the polar cone at a vertex v_j is cone(v_j -
    Lambda(x)), generated by the differences v_j - v_k to the other
    vertices.  So one vertex gives "holds", and with two or more every
    vertex fails, with witness v_j - v_k for the first k != j and the
    achieved cone of ``check_strict_cq``, each difference scaled to max-abs
    1 like the double description's rows.  ``linalg.enumerate_vertices``
    has checked every vertex against the polytope's rows."""

    if mset.c_pattern is None or not len(mset.vertices):
        raise UsageError("the vertex route needs a box with multiplier vertices")
    V = mset.vertices
    if len(V) == 1:
        return [CQVerdict("strict", True)]
    verdicts = []
    for j in range(len(V)):
        D = np.delete(V[j] - V, j, axis=0)
        D = D / np.abs(D).max(axis=1, keepdims=True) + 0.0  # + 0.0 drops negative zeros
        verdicts.append(CQVerdict("strict", False, witness=D[0],
                                  achieved_cone=_achieved_cone(D, mset.tol)))
    return verdicts


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
    return cone_is_trivial(p.dim, (), p.weights * p.abstract_set.normal_row_rays(), mset.tol)[1]


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
