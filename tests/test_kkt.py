"""First-order certification: multiplier polytope, CQs and the distance to
stationarity."""

import time
from dataclasses import replace

import numpy as np
import pytest

from kkt2.examples import build_example1, build_example2
from kkt2.kkt import (
    check_rzkcq,
    check_strict_cq,
    check_weaker_cq,
    foc_residual,
    multiplier_set,
)
from kkt2.errors import NumericError
from kkt2.linalg import cone_facets
from kkt2.model import BoxSet, GeneratedConeSet, ProblemSpec, quadratic

from helpers import brute_force_nnls, random_stationary_problem


def cq_verdicts(p, x) -> tuple[bool, bool]:
    """Whether the RZKCQ and the weaker CQ hold at x."""
    mset = multiplier_set(p, x)
    return check_rzkcq(mset).holds, check_weaker_cq(mset).holds


def foc_at(p, x):
    return foc_residual(multiplier_set(p, x))


def unconstrained_interior(n=2):
    """Stationary interior point of a convex quadratic, no constraints."""
    return ProblemSpec(
        quadratic(0.0, np.zeros(n), np.eye(n)), (), 0,
        BoxSet(np.full(n, -1.0), np.full(n, 1.0)), np.ones(n))


class TestMultiplierSet:
    def test_example1_interval(self):
        ex = build_example1(120)
        mset = multiplier_set(ex.problem, ex.xbar)
        assert not mset.empty and mset.bounded
        verts = sorted(float(v[0]) for v in mset.vertices)
        assert verts == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_example2_unique(self):
        ex = build_example2(8)
        mset = multiplier_set(ex.problem, ex.xbar)
        assert not mset.empty and mset.bounded
        assert len(mset.vertices) == 1
        assert abs(float(mset.vertices[0][0])) <= 1e-10
        lam = mset.lam_of(mset.vertices[0])
        assert np.max(np.abs(lam - np.array([0.0, 0.0, 1.0]))) <= 1e-10

    def test_unconstrained_interior_stationary(self):
        p = unconstrained_interior()
        mset = multiplier_set(p, np.zeros(2))
        assert not mset.empty
        assert mset.vertices == (pytest.approx(np.zeros(0)),) or len(mset.vertices) == 1

    def test_inactive_constraint_forces_zero_multiplier(self):
        """Interior stationary point with one inactive inequality: the
        multiplier set is the single point (lambda, mu) = (0, 0)."""
        g = quadratic(-0.5, np.array([1.0, 0.0]), np.zeros((2, 2)))
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.eye(2)), (g,), 0,
            BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        mset = multiplier_set(p, np.zeros(2))
        assert not mset.empty and mset.bounded
        assert len(mset.vertices) == 1
        assert float(mset.vertices[0][0]) == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(mset.lam_of(mset.vertices[0]))) <= 1e-12

    def test_infeasible_point_rejected(self):
        from kkt2.errors import InfeasiblePoint

        ex = build_example1(12)
        with pytest.raises(InfeasiblePoint):
            multiplier_set(ex.problem, np.full(12, 2.0))

    def test_vertices_reconstruct_valid_multipliers(self):
        """Every vertex is a multiplier, by tests written here from the
        problem alone: mu vanishes on inactive constraints and is >= 0 on
        active inequalities, and lambda(mu) = -f'(x) - g'(x)^T mu is 0 off
        the bounds, <= 0 at lower-active and >= 0 at upper-active
        coordinates."""
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(25):
            p, xbar, _, _ = random_stationary_problem(rng)
            mset = multiplier_set(p, xbar)
            assert not mset.empty
            g = p.constraint_values(xbar) if p.n_constraints else np.zeros(0)
            inactive = np.arange(p.n_constraints) >= p.m1
            inactive &= g < -1e-8
            lo = xbar <= p.abstract_set.lower + 1e-8
            up = xbar >= p.abstract_set.upper - 1e-8
            G = np.array(p.constraint_gradients(xbar), dtype=float).reshape(-1, p.dim)
            for mu in mset.vertices:
                lam = -np.asarray(p.objective.gradient(xbar)) - G.T @ mu
                tol = 1e-9 * (1.0 + np.abs(lam).max())
                assert np.all(np.abs(mu[inactive]) <= 1e-9)
                assert np.all(mu[p.m1:] >= -1e-9)
                assert np.all(np.abs(lam[~lo & ~up]) <= tol)
                assert np.all(lam[lo & ~up] <= tol) and np.all(lam[up & ~lo] >= -tol)
                checked += 1
        assert checked > 10

    def test_constraint_scaling(self):
        """Scaling g by c > 0 scales the mu vertices by 1/c and leaves all
        CQ verdicts unchanged."""
        ex = build_example1(12)
        p, x = ex.problem, ex.xbar
        c = 2.0
        g = p.constraints[0]
        scaled = ProblemSpec(
            p.objective,
            (type(g)(values=lambda X: c * g.values(X),
                     gradients=lambda X: c * g.gradients(X),
                     hessian=lambda v: _scaled_form(g.hessian(v), c)),),
            p.m1, p.abstract_set, p.weights)
        base = multiplier_set(p, x)
        new = multiplier_set(scaled, x)
        vb = sorted(float(v[0]) for v in base.vertices)
        vn = sorted(float(v[0]) for v in new.vertices)
        assert vn == pytest.approx([v / c for v in vb], abs=1e-9)
        assert cq_verdicts(scaled, x) == cq_verdicts(p, x)


def _scaled_form(form, c):
    from kkt2.linalg import BilinearForm

    return BilinearForm(
        lambda H: c * form.quad_rows(H),
        (lambda H: c * form.apply_rows(H)) if form.apply_rows else None,
    )


class TestCQs:
    def test_example1_rzkcq_holds(self):
        ex = build_example1(12)
        assert cq_verdicts(ex.problem, ex.xbar) == (True, True)

    def test_example2_rzkcq_holds(self):
        ex = build_example2(8)
        assert cq_verdicts(ex.problem, ex.xbar) == (True, True)

    def test_zero_jacobian_fails_with_witness(self):
        p = ProblemSpec(
            quadratic(0.0, np.zeros(1), np.zeros((1, 1))),
            (quadratic(0.0, np.zeros(1), np.zeros((1, 1))),),
            0, BoxSet(np.array([-1.0]), np.array([1.0])), np.ones(1))
        mset = multiplier_set(p, np.zeros(1))
        v = check_rzkcq(mset)
        assert not v.holds
        assert v.witness is not None and abs(v.witness[0]) > 1e-7
        assert not check_weaker_cq(mset).holds

    def test_weaker_matches_rzkcq_on_boxes(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            p, xbar, _, _ = random_stationary_problem(rng)
            rzkcq, weaker = cq_verdicts(p, xbar)
            assert rzkcq == weaker

    def test_strict_cq_example2_halfline(self):
        ex = build_example2(8)
        mset = multiplier_set(ex.problem, ex.xbar)
        verdict = check_strict_cq(mset, mset.vertices[0])
        assert not verdict.holds
        assert verdict.achieved_cone == "(-inf, 0]"

    def test_strict_cq_example1_interior_multiplier_fails(self):
        """Non-unique multipliers: the strict qualification cannot hold."""
        ex = build_example1(12)
        mset = multiplier_set(ex.problem, ex.xbar)
        verdict = check_strict_cq(mset, np.array([0.5]))
        assert not verdict.holds

    def test_strict_cq_full_rank_free_box(self):
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.zeros((2, 2))),
            (quadratic(0.0, np.array([1.0, 0.0]), np.zeros((2, 2))),),
            1, BoxSet(np.full(2, -np.inf), np.full(2, np.inf)), np.ones(2))
        mset = multiplier_set(p, np.zeros(2))
        assert check_strict_cq(mset, mset.vertices[0]).holds

    def test_rzkcq_implies_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p, xbar, _, _ = random_stationary_problem(rng)
            mset = multiplier_set(p, xbar)
            if check_rzkcq(mset).holds:
                assert mset.bounded


class TestFOC:
    def test_example1_stationary(self):
        ex = build_example1(12)
        res = foc_at(ex.problem, ex.xbar)
        assert res.stationary and res.residual == 0.0

    def test_example2_stationary(self):
        ex = build_example2(5)
        assert foc_at(ex.problem, ex.xbar).stationary

    def test_interior_nonstationary_residual(self):
        """No constraints, interior point: residual is the gradient norm."""
        p = ProblemSpec(
            quadratic(0.0, np.array([2.0, -1.0]), np.zeros((2, 2))), (), 0,
            BoxSet(np.full(2, -5.0), np.full(2, 5.0)), np.ones(2))
        res = foc_at(p, np.zeros(2))
        assert not res.stationary
        assert res.residual == pytest.approx(np.sqrt(5.0), abs=1e-9)

    def test_inactive_constraint_keeps_the_verdict(self):
        """With no constraints the polytope's own rows decide stationarity
        too: on the box [0, 1] x [-1, 1] at x = 0 with f'(x) = (1000, 5e-9),
        the 5e-9 on the free coordinate fails its row at tol.feasibility with
        and without the inactive constraint x0 + x1 - 1 <= 0."""
        objective = quadratic(0.0, np.array([1000.0, 5e-9]), np.zeros((2, 2)))
        box = BoxSet(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        inactive = quadratic(-1.0, np.array([1.0, 1.0]), np.zeros((2, 2)))
        results = [foc_at(ProblemSpec(objective, cons, 0, box, np.ones(2)), np.zeros(2))
                   for cons in ((), (inactive,))]
        for res in results:
            assert not res.stationary
            assert res.residual == pytest.approx(5e-9, rel=1e-6)
        assert results[0].residual == results[1].residual

    def test_large_multiplier(self):
        """The nearest stationary gradient needs mu = -2000.5, far outside
        any fixed search interval."""
        res = foc_at(large_multiplier_problem(), np.zeros(2))
        assert not res.stationary
        assert res.residual == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        assert res.best_mu == pytest.approx([-2000.5], rel=1e-12)

    @pytest.mark.parametrize("trunc", [4, 8])
    def test_example2_hull_gradient(self, trunc):
        """Example 2's hull with f'(0) = (0, -1, 0.3): the same residual at
        both truncations, well inside a second."""
        ex = build_example2(trunc)
        p = replace(ex.problem, objective=quadratic(0.0, np.array([0.0, -1.0, 0.3]),
                                                    np.zeros((3, 3))))
        start = time.perf_counter()
        res = foc_at(p, ex.xbar)
        assert time.perf_counter() - start < 1.0
        assert not res.stationary
        assert res.residual == pytest.approx(1.044030650891055, rel=1e-12)
        assert distance_to_stationarity(p, ex.xbar, res.best_mu) == pytest.approx(res.residual,
                                                                                  rel=1e-9)

    def test_box_problems_match_brute_force(self):
        """The residual is the brute-force NNLS minimum over the system
        written out by hand, and best_mu attains it."""
        problems = list(nonstationary_box_problems(200))
        for p, x in problems:
            res = foc_at(p, x)
            expected = brute_force_nnls(*stationarity_system(p, x))
            assert res.residual == pytest.approx(expected, rel=1e-9, abs=1e-12)
            assert distance_to_stationarity(p, x, res.best_mu) == pytest.approx(
                res.residual, rel=1e-9, abs=1e-12)

    def test_hull_problems_match_brute_force(self):
        for p in nonstationary_hull_problems(60):
            x = np.zeros(p.dim)
            res = foc_at(p, x)
            assert res.residual == pytest.approx(brute_force_nnls(*stationarity_system(p, x)),
                                                 rel=1e-9, abs=1e-12)
            assert distance_to_stationarity(p, x, res.best_mu) == pytest.approx(
                res.residual, rel=1e-9, abs=1e-12)

    def test_problems_match_scipy(self):
        reference = pytest.importorskip("scipy.optimize").nnls
        hulls = ((p, np.zeros(p.dim)) for p in nonstationary_hull_problems(60))
        for p, x in (*nonstationary_box_problems(200), *hulls):
            A, b = stationarity_system(p, x)
            expected = reference(A, b)[1] if A.shape[1] else float(np.linalg.norm(b))
            assert foc_at(p, x).residual == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_failed_nnls_check_is_a_numeric_error(self, monkeypatch):
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, b, rcond=None: (1.5 * lstsq(a, b, rcond=rcond)[0],))
        with pytest.raises(NumericError):
            foc_at(large_multiplier_problem(), np.zeros(2))


def large_multiplier_problem():
    """f' = (2000, 2001) and one equality with g' = (1, 1) at the interior
    point 0 of [-5, 5]^2."""
    return ProblemSpec(
        quadratic(0.0, np.array([2000.0, 2001.0]), np.zeros((2, 2))),
        (quadratic(0.0, np.array([1.0, 1.0]), np.zeros((2, 2))),), 1,
        BoxSet(np.full(2, -5.0), np.full(2, 5.0)), np.ones(2))


def nonstationary_box_problems(count):
    """(problem, point) pairs with an empty multiplier set: seeded stationary
    box problems (n <= 5, m <= 3) whose objective gradient is redrawn."""
    rng = np.random.default_rng(77)
    found = 0
    while found < count:
        p, xbar, _, _ = random_stationary_problem(rng, max_dim=5, max_constraints=3,
                                                  weights_one=bool(found % 2))
        target = rng.standard_normal(p.dim) * 10.0 ** rng.uniform(-1.0, 2.0)
        q = replace(p, objective=quadratic(0.0, p.weights * target, np.zeros((p.dim, p.dim)),
                                           p.weights))
        if multiplier_set(q, xbar).empty:
            found += 1
            yield q, xbar


def nonstationary_hull_problems(count):
    """Seeded hull problems at their base point 0 with up to three linear
    constraints (all active) and an empty multiplier set."""
    rng = np.random.default_rng(78)
    found = 0
    while found < count:
        n, m = int(rng.integers(2, 5)), int(rng.integers(0, 4))
        w = np.ones(n) if found % 2 else rng.uniform(0.5, 2.0, n)
        rays = tuple(rng.standard_normal((int(rng.integers(1, 6)), n)))
        deep = tuple(rng.standard_normal((int(rng.integers(0, 2)), n)))
        cons = tuple(quadratic(0.0, rng.standard_normal(n), np.zeros((n, n)), w)
                     for _ in range(m))
        p = ProblemSpec(quadratic(0.0, w * rng.standard_normal(n), np.zeros((n, n)), w), cons,
                        int(rng.integers(0, m + 1)),
                        GeneratedConeSet(np.zeros(n), rays, (), deep), w)
        if multiplier_set(p, np.zeros(n)).empty:
            found += 1
            yield p


def normal_generators(p, x):
    """Generators of the normal cone of the abstract set at x, written out
    by hand: -e_j at an active lower bound, +e_j at an active upper bound;
    for a hull, with cone(rays) = {z : L z = 0, R z <= 0} (``cone_facets``),
    W^-1 times the rows of R and +-L, the polar in the weighted product."""
    if isinstance(p.abstract_set, BoxSet):
        gens = []
        for j in range(p.dim):
            if abs(x[j] - p.abstract_set.lower[j]) <= 1e-12:
                gens.append(-np.eye(p.dim)[j])
            if abs(x[j] - p.abstract_set.upper[j]) <= 1e-12:
                gens.append(np.eye(p.dim)[j])
        return gens
    L, R = cone_facets(p.dim, p.abstract_set.normal_row_rays())
    return [row / p.weights for row in (*R, *L, *(-L))]


def stationarity_system(p, x):
    """(A, b) of min over mu and normal vectors n of
    ||-f'(x) - sum mu_i g_i'(x) - n||_w, with mu_i >= 0 on active
    inequalities and 0 on inactive ones, in the coordinates sqrt(w) y."""
    s = np.sqrt(p.weights)
    values = p.constraint_values(x)
    cols = []
    for i, g in enumerate(p.constraint_gradients(x)):
        g = np.asarray(g, dtype=float)
        if i < p.m1:
            cols += [g, -g]
        elif abs(values[i]) <= 1e-9:
            cols.append(g)
    cols += normal_generators(p, x)
    A = np.array([s * c for c in cols]).T if cols else np.zeros((p.dim, 0))
    return A, -s * np.asarray(p.objective.gradient(x), dtype=float)


def distance_to_stationarity(p, x, mu):
    """||-f'(x) - g'(x)^T mu - N_C(x)||_w at a fixed mu (None without
    constraints), by brute force."""
    s = np.sqrt(p.weights)
    lam = -np.asarray(p.objective.gradient(x), dtype=float)
    for mu_i, g in zip(() if mu is None else mu, p.constraint_gradients(x)):
        lam = lam - mu_i * np.asarray(g, dtype=float)
    gens = normal_generators(p, x)
    A = np.array([s * g for g in gens]).T if gens else np.zeros((p.dim, 0))
    return brute_force_nnls(A, s * lam)
