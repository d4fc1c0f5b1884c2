"""Construction checks for the builtin example2 problem."""

import math

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
from kkt2.kkt import multiplier_set


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
