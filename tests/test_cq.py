"""Constraint qualifications: witness validity, per-axis achieved cones and
weight invariance, for box and hull problems.

Each violated verdict's witness nu is checked against the polar system
written out by hand from the problem data: constraint gradients, the box's
active bounds or the hull's rays, and the active set.
"""

from dataclasses import replace

import numpy as np
import pytest

from kkt2.config import DEFAULT_TOLERANCES
from kkt2.examples import build_example2
from kkt2.kkt import check_rzkcq, check_strict_cq, check_weaker_cq, multiplier_set
from kkt2.model import BoxSet, GeneratedConeSet, ProblemSpec, quadratic

from helpers import random_hull, random_stationary_problem

ACTIVE = 1e-9


def linear(grad, constant=0.0, weights=None):
    """constant + grad.x in plain coordinates."""
    n = len(grad)
    return quadratic(constant, np.asarray(grad, dtype=float), np.zeros((n, n)), weights)


def two_constraint_box(weights=(1.0, 1.0, 1.0)):
    """x0 interior, x1 at its lower bound, x2 at its upper bound; two active
    inequalities x0 + x1 <= 0 and x0 - x2 <= 0; f'(0) = (-1, 0, 0).  The
    multipliers are the segment mu1 + mu2 = 1, mu >= 0."""
    w = np.asarray(weights, dtype=float)
    return ProblemSpec(
        linear([-1.0, 0.0, 0.0], weights=w),
        (linear([1.0, 1.0, 0.0], weights=w), linear([1.0, 0.0, -1.0], weights=w)),
        0, BoxSet(np.array([-1.0, 0.0, -1.0]), np.array([1.0, 1.0, 0.0])), w)


def degenerate_box():
    """x1 at its lower bound, the equality x1 = 0 and the inequality
    -x1 <= 0: the cone difference is a half-plane, so RZK fails."""
    return ProblemSpec(
        linear([0.0, 1.0]), (linear([0.0, 1.0]), linear([0.0, -1.0])), 1,
        BoxSet(np.array([-1.0, 0.0]), np.array([1.0, 1.0])), np.ones(2))


def orthant_hull():
    """The tangent cone of ``two_constraint_box`` written as the cone of the
    rays e0, -e0, e1, -e2, with the same constraints and objective."""
    e = np.eye(3)
    return ProblemSpec(
        linear([-1.0, 0.0, 0.0]),
        (linear([1.0, 1.0, 0.0]), linear([1.0, 0.0, -1.0])),
        0, GeneratedConeSet(np.zeros(3), np.array([e[0], -e[0], e[1], -e[2]])), np.ones(3))


def slanted_hull():
    """``orthant_hull`` in the coordinates y = T x, T unit upper triangular:
    the rays T e0, -T e0, T e1, -T e2 and the gradients T^-T a.  The
    constraint derivatives along the rays are unchanged, so the achieved
    cones must be too."""
    T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    T_inv_t = np.linalg.inv(T).T
    return ProblemSpec(
        linear(T_inv_t @ [-1.0, 0.0, 0.0]),
        (linear(T_inv_t @ [1.0, 1.0, 0.0]), linear(T_inv_t @ [1.0, 0.0, -1.0])),
        0, GeneratedConeSet(np.zeros(3), np.array([T[:, 0], -T[:, 0], T[:, 1], -T[:, 2]])),
        np.ones(3))


def degenerate_hull():
    """Rays e0, e1; the equality x0 - x1 = 0 and the same function as an
    active inequality: the cone difference is a half-plane."""
    e = np.eye(2)
    return ProblemSpec(
        linear([0.0, 0.0]), (linear([1.0, -1.0]), linear([1.0, -1.0])), 1,
        GeneratedConeSet(np.zeros(2), e), np.ones(2))


def random_box(seed):
    p, xbar, _, _ = random_stationary_problem(
        np.random.default_rng(seed), max_dim=5, max_constraints=4, weights_one=bool(seed % 2))
    return p, xbar


# --------------------------------------------------------------------------
# The polar system, written out by hand
# --------------------------------------------------------------------------


def polar_violation(p, x, nu, hull_rays=None, mult=None):
    """Largest violation of "nu is in the polar of g'(x)[C] - K", where C is
    the box's tangent cone or cone(hull_rays), and K is T_K(g(x)); with
    ``mult``, a pair (lambda, mu), both cones are cut by the multiplier
    annihilators first."""
    m, n = p.n_constraints, p.dim
    G = [np.asarray(g, dtype=float) for g in p.constraint_gradients(x)]
    values = p.constraint_values(x)
    worst = 0.0
    # K side: -nu lies in the polar of T_K (cut by mu_i z_i = 0)
    for i in range(m):
        if i < p.m1:
            continue
        if abs(values[i]) > ACTIVE:  # inactive: z_i is free, so nu_i = 0
            worst = max(worst, abs(nu[i]))
        elif mult is None or mult[1][i] <= ACTIVE:  # z_i <= 0, so nu_i <= 0
            worst = max(worst, nu[i])
        # an active inequality with mu_i > 0 forces z_i = 0: no condition
    # C side: sum_i nu_i g_i'(x) lies in the polar of C
    if hull_rays is None:
        box = p.abstract_set
        for j in range(n):
            s = sum(nu[i] * G[i][j] for i in range(m))
            lower = x[j] - box.lower[j] <= ACTIVE
            upper = box.upper[j] - x[j] <= ACTIVE
            if mult is not None and abs(mult[0][j]) > 1e-12:
                continue  # lambda_j h_j = 0 forces h_j = 0
            if lower and upper:
                continue
            if lower:
                worst = max(worst, s)
            elif upper:
                worst = max(worst, -s)
            else:
                worst = max(worst, abs(s))
    else:
        w = p.weights
        for d in hull_rays:
            s = sum(nu[i] * sum(w[j] * G[i][j] * d[j] for j in range(n)) for i in range(m))
            worst = max(worst, s)
    return worst


def kept_tangent_rays(p, lam):
    """The tangent rays d with |<lambda, d>_w| <= 1e-9 max|d|, one at a time."""
    return [d for d in p.abstract_set.tangent_rays()
            if abs(float(np.sum(p.weights * lam * d))) <= 1e-9 * np.max(np.abs(d))]


def assert_valid_witness(p, x, verdict, hull_rays=None, mult=None):
    nu = verdict.witness
    assert nu is not None and np.max(np.abs(nu)) > 1e-7
    assert polar_violation(p, x, nu, hull_rays, mult) <= 1e-7


def check_every_violation(p, x):
    """Check the witness of every violated CQ verdict at x; returns how many
    were checked."""
    hull = isinstance(p.abstract_set, GeneratedConeSet)
    checked = 0
    mset = multiplier_set(p, x)
    for check, rays in ((check_rzkcq, lambda s: np.vstack([s.rays, s.deep_rays])),
                        (check_weaker_cq, lambda s: s.normal_row_rays())):
        v = check(mset)
        if not v.holds:
            assert_valid_witness(p, x, v, rays(p.abstract_set) if hull else None)
            checked += 1
    for vert in mset.vertices:
        lam = mset.lam_of(vert)
        v = check_strict_cq(mset, vert)
        if not v.holds:
            assert_valid_witness(p, x, v, kept_tangent_rays(p, lam) if hull else None,
                                 (lam, vert))
            checked += 1
    return checked


class TestWitnessValidity:
    @pytest.mark.parametrize("build, expected", [
        (two_constraint_box, 2), (degenerate_box, 2),
        (orthant_hull, 2), (slanted_hull, 2), (degenerate_hull, 2)])
    def test_fixture_witnesses_solve_the_polar_system(self, build, expected):
        p = build()
        x = np.zeros(p.dim)
        checked = check_every_violation(p, x)
        if expected is not None:
            assert checked == expected

    def test_example2_strict_witness(self):
        ex = build_example2(4)
        assert check_every_violation(ex.problem, ex.xbar) == 1

    def test_random_box_witnesses(self):
        total = sum(check_every_violation(*random_box(seed)) for seed in range(60))
        assert total >= 60

    def test_random_hull_witnesses(self):
        total = 0
        for seed in range(40):
            p = random_hull(seed)
            total += check_every_violation(p, np.zeros(p.dim))
        assert total >= 30


# --------------------------------------------------------------------------
# Achieved cones with two constraints
# --------------------------------------------------------------------------


def achieved_cones(p, x):
    """{vertex mu: (holds, achieved_cone)} over the multiplier vertices."""
    mset = multiplier_set(p, x)
    out = {}
    for vert in mset.vertices:
        v = check_strict_cq(mset, vert)
        out[tuple(np.round(vert, 9) + 0.0)] = (v.holds, v.achieved_cone)
    return out


# At mu = (1, 0): lambda = (0, -1, 0), so the C section pins h1 = 0 and the K
# section pins z1 = 0; the difference is {(u, v) : v >= u}.  At mu = (0, 1)
# it is {(u, v) : u >= v}.
TWO_CONSTRAINT_CONES = {
    (1.0, 0.0): (False, "axis 0: +no/-yes; axis 1: +yes/-no"),
    (0.0, 1.0): (False, "axis 0: +yes/-no; axis 1: +no/-yes"),
}


class TestAchievedConeTwoConstraints:
    def test_box(self):
        assert achieved_cones(two_constraint_box(), np.zeros(3)) == TWO_CONSTRAINT_CONES

    def test_hull_with_the_box_tangent_cone(self):
        assert achieved_cones(orthant_hull(), np.zeros(3)) == TWO_CONSTRAINT_CONES

    def test_slanted_hull(self):
        assert achieved_cones(slanted_hull(), np.zeros(3)) == TWO_CONSTRAINT_CONES


# --------------------------------------------------------------------------
# Weight invariance
# --------------------------------------------------------------------------


class TestWeightInvariance:
    """The CQs are statements about cones, so the inner product's weights
    must not change a verdict or an achieved cone."""

    @staticmethod
    def verdicts(p, x):
        mset = multiplier_set(p, x)
        return check_rzkcq(mset).holds, check_weaker_cq(mset).holds, achieved_cones(p, x)

    @pytest.mark.parametrize("weights", [(0.5, 2.0, 1.5), (3.0, 0.25, 1.0), (1e-3, 1.0, 1e3)])
    def test_two_constraint_box(self, weights):
        x = np.zeros(3)
        plain = self.verdicts(two_constraint_box(), x)
        assert plain == (True, True, TWO_CONSTRAINT_CONES)
        assert self.verdicts(two_constraint_box(weights), x) == plain

    def test_random_box_problems(self):
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            p, xbar, _, _ = random_stationary_problem(rng, max_dim=4, max_constraints=3)
            weights = np.random.default_rng(900 + seed).uniform(0.2, 5.0, p.dim)
            reweighted = ProblemSpec(
                _reweighted(p.objective, xbar, p.weights, weights),
                tuple(_reweighted(g, xbar, p.weights, weights) for g in p.constraints),
                p.m1, p.abstract_set, weights)
            assert self.verdicts(reweighted, xbar) == self.verdicts(p, xbar)


def _reweighted(f, x, old_weights, weights):
    """The same plain-coordinate quadratic as f (unit weights), stored with
    other weights: quadratic() keeps the plain linear term and matrix, which
    is the Riesz map of f''(x) scaled back by the weights f was built with."""
    g = np.asarray(f.gradient(x), dtype=float)
    H = f.hessian(x).apply_rows(np.eye(len(x))) * old_weights
    linear_term = g - H @ x
    constant = f.value(x) - linear_term @ x - 0.5 * x @ H @ x
    return quadratic(constant, linear_term, H, weights)


# --------------------------------------------------------------------------
# The residual tolerance on hulls
# --------------------------------------------------------------------------


def thin_wedge_hull(eps):
    """Rays (1, 0, eps), (-1, 0, eps) and (0, 1, 1), the equality x0 = 0 and
    f'(0) = (0, 0, 1).  At mu = 0, lambda = (0, 0, -1) is -eps on both wedge
    rays: they lie in the lambda-annihilator up to eps."""
    rays = np.array([[1.0, 0.0, eps], [-1.0, 0.0, eps], [0.0, 1.0, 1.0]])
    return ProblemSpec(linear([0.0, 0.0, 1.0]), (linear([1.0, 0.0, 0.0]),), 1,
                       GeneratedConeSet(np.zeros(3), rays), np.ones(3))


class TestStrictCQTolerance:
    def test_hull_annihilator_uses_the_residual_tolerance(self):
        """A residual tolerance above eps keeps both wedge rays, whose
        constraint derivatives +-1 reach all of R; the default drops them."""
        p = thin_wedge_hull(1e-7)
        mset = multiplier_set(p, np.zeros(3))
        assert np.array_equal(mset.lam_of(np.zeros(1)), [0.0, 0.0, -1.0])
        tight = check_strict_cq(mset, np.zeros(1))
        assert not tight.holds and tight.achieved_cone == "{0}"
        loose = multiplier_set(p, np.zeros(3), replace(DEFAULT_TOLERANCES, residual=1e-5))
        assert check_strict_cq(loose, np.zeros(1)).holds

    @pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** -20, 1.0, 2.0 ** 20])
    def test_example2_rays_rescaled(self, scale):
        """Rescaling example2's ray families (trunc 8) moves none of its
        cones, so the strict CQ at its one multiplier stays violated with
        the achieved cone (-inf, 0].  A bound of tol (1 + max|d|) reads the
        rays scaled by 2^-20 or 2^-40 as annihilated by lambda, and then
        the strict CQ holds."""
        p = build_example2(8).problem
        s = p.abstract_set
        scaled = GeneratedConeSet(s.base, *(scale * np.asarray(f) for f in
                                            (s.rays, s.limit_rays, s.deep_rays)), s.hull_points)
        mset = multiplier_set(replace(p, abstract_set=scaled), np.zeros(3))
        assert len(mset.vertices) == 1
        verdict = check_strict_cq(mset, mset.vertices[0])
        assert not verdict.holds and verdict.achieved_cone == "(-inf, 0]"
