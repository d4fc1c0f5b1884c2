"""Construction checks for the builtin example2 problem."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kkt2.curvature import q_of_h
from kkt2.errors import UsageError
from kkt2.examples import (
    DELTA,
    GAMMA,
    build_example2,
    point_p,
    point_q,
    point_r,
    verify_diagonal_inequality,
    verify_halfspace_representation,
    verify_matrix_property,
    verify_section_membership,
)
from kkt2.examples.example2 import _section_coordinates
from kkt2.kkt import multiplier_set

from helpers import (
    halfspace_checks_per_point,
    point_r_scalar,
    section_membership_per_point,
    section_sampler_per_sample,
)


class TestConstants:
    def test_gamma_and_delta_relation(self):
        assert GAMMA == pytest.approx((1 + math.sqrt(3)) / 2, abs=0.0)
        assert DELTA == pytest.approx((GAMMA**3 + 1) / (GAMMA * (GAMMA + 1) ** 2), abs=0.0)
        assert DELTA == pytest.approx(0.46410, abs=1e-5)

    def test_diagonal_mixture_weight(self):
        lam = 1.0 / (1.0 + (1.0 / GAMMA) ** 3)
        r = point_r(3, 3)
        assert r[2] == pytest.approx(-lam * 3.0**-4, abs=1e-16)


class TestGeometry:
    def test_scaled_generator_limit(self):
        """n^2 P_n = (1/n, 1, -1/n^2): at n=10 this is (0.1, 1, -0.01)."""
        val = 100.0 * point_p(10)
        assert np.allclose(val, [0.1, 1.0, -0.01], atol=1e-15)

    def test_first_facet_equality_at_p1(self):
        """x.(2k+1, -1, k(k+1)) at k=1 vanishes on P1 = (1, 1, -1)."""
        coef = np.array([3.0, -1.0, 2.0])
        assert coef @ point_p(1) == pytest.approx(0.0, abs=0.0)

    def test_top_facet_annotations(self):
        """x3 <= 0 is tight on O and every Q_n and strictly slack on P_n."""
        for n in range(1, 10):
            assert point_q(n)[2] == 0.0
            assert point_p(n)[2] < -1e-10 * 0 - 1e-16

    def test_halfspace_representation(self):
        ok, checks = verify_halfspace_representation(build_example2(12).geometry)
        assert ok
        assert len(checks) == 2 + 3 * 10  # k = 1..10 at trunc 12

    def test_halfspace_representation_at_trunc_320(self):
        """P_n sits n^-4 off its boundaries, under 1e-10 from n = 317 on;
        relative to the termwise size of each dot product the slacks of
        unannotated points stay above 3e-9, so none reads as on a boundary."""
        ok, checks = verify_halfspace_representation(build_example2(320).geometry)
        assert ok
        assert len(checks) == 2 + 3 * 318

    def test_halfspace_verdict_stable_in_truncation(self):
        """Rows with k <= N - 2 keep passing as N grows."""
        for N in (6, 9, 12):
            ok, _ = verify_halfspace_representation(build_example2(N).geometry)
            assert ok

    def test_section_membership(self):
        ok, worst_member, worst_diag = verify_section_membership(
            build_example2(4).geometry, 30, 30)
        assert ok
        assert worst_member <= 1e-10
        assert worst_diag <= 1e-10

    def test_offdiagonal_point_strictly_inside(self):
        x = point_r(1, 2)
        assert x[2] + DELTA * x[1] ** 2 < -1e-3

    def test_diagonal_inequality(self):
        assert verify_diagonal_inequality(30, 30)

    def test_section_hull_containment_both_ways(self):
        """The plane section of the truncated hull equals the hull of the
        origin and the crossing points, verified structurally one way and by
        sampled membership the other."""
        from kkt2.examples import verify_section_hull

        assert verify_section_hull(build_example2(5).geometry, samples=100, seed=3)


class TestFormulaChecksMatchPerPoint:
    """The one-pass formula checks against the per-point loops."""

    @staticmethod
    def _assert_same_rows(got, want):
        assert got[0] == want[0]
        assert [(c.label, c.satisfied, c.equality_exact) for c in got[1]] == \
            [(c.label, c.satisfied, c.equality_exact) for c in want[1]]
        for a, b in zip(got[1], want[1]):
            assert abs(a.worst_slack - b.worst_slack) <= 1e-12
            assert abs(a.worst_equality_residual - b.worst_equality_residual) <= 1e-12

    @pytest.mark.parametrize("trunc", range(2, 41))
    def test_halfspace_representation(self, trunc):
        geometry = build_example2(trunc).geometry
        self._assert_same_rows(verify_halfspace_representation(geometry),
                               halfspace_checks_per_point(geometry))

    @pytest.mark.parametrize("trunc", range(2, 41))
    def test_section_membership(self, trunc):
        """Square and lopsided grids up to trunc; the worst values are the
        scalar formula's bit for bit."""
        geometry = build_example2(trunc).geometry
        for k_max, n_max in ((trunc, trunc), (2, trunc), (trunc, 2)):
            got = verify_section_membership(geometry, k_max, n_max)
            assert got == section_membership_per_point(geometry, k_max, n_max)

    def test_section_coordinates_are_the_scalar_formula(self):
        x2, x3 = _section_coordinates(np.arange(1, 41)[:, None], np.arange(1, 41))
        want = np.array([[point_r_scalar(k, n) for n in range(1, 41)] for k in range(1, 41)])
        assert np.array_equal(x2, want[:, :, 1]) and np.array_equal(x3, want[:, :, 2])
        assert np.array_equal(point_r(7, 3), point_r_scalar(7, 3))

    def test_tampered_row_coefficient_fails(self):
        geometry = build_example2(8).geometry
        rows = geometry.halfspace_rows()
        rows[5] = replace(rows[5], coef=rows[5].coef + np.array([0.0, 1e-6, 0.0]))
        tampered = SimpleNamespace(points=geometry.points, halfspace_rows=lambda: rows)
        got, want = verify_halfspace_representation(tampered), halfspace_checks_per_point(tampered)
        assert not got[0]
        assert not (got[1][5].satisfied and got[1][5].equality_exact)
        self._assert_same_rows(got, want)

    def test_unannotated_boundary_point_fails(self):
        """The midpoint of O and Q1 lies on the rows tight at O and Q1."""
        geometry = build_example2(8).geometry
        points = dict(geometry.points, M=0.5 * point_q(1))
        tampered = SimpleNamespace(points=points, halfspace_rows=geometry.halfspace_rows)
        got, want = verify_halfspace_representation(tampered), halfspace_checks_per_point(tampered)
        assert not got[0]
        assert [c.equality_exact for c in got[1][:2]] == [False, False]
        assert all(c.satisfied for c in got[1])
        self._assert_same_rows(got, want)

    def test_wrong_delta_fails(self):
        """A parabola 1% steeper puts the diagonal points above it."""
        geometry = SimpleNamespace(delta=1.01 * DELTA)
        got = verify_section_membership(geometry, 30, 30)
        assert not got[0]
        assert got == section_membership_per_point(geometry, 30, 30)


class TestSectionSampler:
    """example2's growth sampler, drawn in row blocks, against the per-sample
    reference: feasibility sample by sample, and the same distribution."""

    COUNT, EPS = 20_000, 0.05

    @pytest.mark.parametrize("trunc", [8, 40])
    def test_samples_feasible_and_distributed_as_per_sample(self, trunc):
        ex = build_example2(trunc)
        S = ex.problem.feasible_sampler(np.random.default_rng(5), ex.xbar, self.EPS, self.COUNT)
        assert isinstance(S, np.ndarray) and S.shape == (self.COUNT, 3) and S.dtype == float
        assert np.all(S[:, 0] == 0.0)
        norms = np.linalg.norm(S - ex.xbar, axis=1)
        assert np.all(norms <= self.EPS * (1.0 + 1e-12))
        cone = ex.geometry.cone_set()
        assert all(cone.contains(x) for x in S)

        ref = np.array(section_sampler_per_sample(trunc)(
            np.random.default_rng(6), ex.xbar, self.EPS, self.COUNT))
        for got, want in [*zip(S.T, ref.T), (norms, np.linalg.norm(ref - ex.xbar, axis=1))]:
            se = math.sqrt((got.var() + want.var()) / self.COUNT)
            assert abs(got.mean() - want.mean()) <= 5.0 * se

    def test_stream_order_of_a_block(self):
        """A block draws its weights, then one radius per row: the first
        sample is the first weight row, normalized, times the vertices."""
        ex = build_example2(3)
        S = ex.problem.feasible_sampler(np.random.default_rng(9), ex.xbar, 10.0, 4)
        rng = np.random.default_rng(9)
        W = rng.standard_exponential((4, 10))
        V = np.array([np.zeros(3)] + [point_r(k, n) for k in range(1, 4) for n in range(1, 4)])
        np.testing.assert_allclose(S, (W / W.sum(axis=1, keepdims=True)) @ V, rtol=0, atol=1e-15)


class TestMatrixProperty:
    def test_unit_vectors_and_hand_values(self):
        from kkt2.examples.example1 import MATRIX_A1, MATRIX_A2

        e1 = np.array([1.0, 0.0])
        assert max(e1 @ MATRIX_A1 @ e1, e1 @ MATRIX_A2 @ e1) == pytest.approx(1.0)
        x = np.array([1.0, 1.0])
        assert x @ MATRIX_A1 @ x == pytest.approx(2.0)
        assert x @ MATRIX_A2 @ x == pytest.approx(1.0)
        assert max(2.0, 1.0) >= 0.5 * 2.0

    def test_property_and_noncoercive_mixtures(self):
        ok, worst, combos = verify_matrix_property(n_samples=2000, seed=0)
        assert ok
        assert worst >= -1e-9
        lam_half = [d for lam, d in combos if abs(lam - 0.5) < 1e-12]
        assert lam_half and lam_half[0] == pytest.approx(-0.5)
        assert all(d < 0 for _, d in combos)


class TestProblem:
    def test_truncation_minimum(self):
        with pytest.raises(UsageError):
            build_example2(1)

    @pytest.mark.parametrize("trunc", [2, 5, 10])
    def test_negative_curvature_independent_of_truncation(self, trunc):
        ex = build_example2(trunc)
        mset = multiplier_set(ex.problem, ex.xbar)
        val, _ = q_of_h(mset, np.array([0.0, 1.0, 0.0]))
        assert val == pytest.approx(-2.0 * DELTA, abs=1e-12)

    def test_objective_closed_form(self):
        ex = build_example2(3)
        x = np.array([0.0, 0.4, -0.2])
        assert ex.problem.objective.value(x) == pytest.approx(-DELTA * 0.16 + 0.2, abs=1e-15)

    def test_feasibility_of_generators(self):
        ex = build_example2(5)
        for n in range(1, 6):
            assert ex.problem.abstract_set.contains(point_p(n), 1e-9)
            assert ex.problem.abstract_set.contains(point_q(n), 1e-9)
        assert not ex.problem.abstract_set.contains(np.array([0.0, 1.0, 0.0]), 1e-9)
