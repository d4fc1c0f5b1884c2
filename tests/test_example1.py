"""Construction checks for the builtin example1 problem."""

import numpy as np
import pytest

from kkt2.curvature import q_of_h
from kkt2.errors import UsageError
from kkt2.examples import build_example1
from kkt2.examples.example1 import MATRIX_A1, MATRIX_A2
from kkt2.kkt import multiplier_set


class TestConstruction:
    def test_grid_must_be_multiple_of_12(self):
        for bad in (10, 18, 0, 6):
            with pytest.raises(UsageError):
                build_example1(bad)

    def test_constraint_gradient_grid_values(self):
        """Indicator of (0,1/4) plus indicator of (2/3,3/4) on the cells."""
        ex = build_example1(12)
        expected = np.zeros(12)
        expected[:3] = 1.0   # (0, 1/4)
        expected[8] = 1.0    # (2/3, 3/4)
        assert np.array_equal(ex.g_grad, expected)
        assert np.array_equal(ex.problem.constraint_gradients(ex.xbar)[0], expected)

    def test_values_vanish_at_base_point(self):
        ex = build_example1(60)
        assert ex.problem.objective.value(ex.xbar) == 0.0
        assert ex.problem.constraints[0].value(ex.xbar) == 0.0

    def test_base_point_profile(self):
        ex = build_example1(12)
        assert np.all(ex.xbar[:4] == -1.0)
        assert np.all(ex.xbar[8:] == 1.0)
        mid = ex.xbar[4:8]
        assert np.all((-1.0 < mid) & (mid < 1.0))
        assert np.allclose(np.diff(mid), 6.0 / 12.0)

    def test_second_derivative_on_canonical_directions(self):
        """The quadratic coupling gives f''[h1,h1] = e1.A1.e1 = 1 and the
        matching A2 - A1 values; the Hessian-of-the-Lagrangian closed forms
        1 - 3 mu and -1 + 2 mu follow.  (The displayed factor-2 variant
        would double these and break the closed forms.)"""
        ex = build_example1(12)
        f2 = ex.problem.objective.hessian(ex.xbar)
        g2 = ex.problem.constraints[0].hessian(ex.xbar)
        h1 = ex.direction_lower_indicator()
        h2 = ex.direction_upper_indicator()
        assert f2.quad(h1) == pytest.approx(float(MATRIX_A1[0, 0]), abs=1e-14)
        assert f2.quad(h2) == pytest.approx(float(MATRIX_A1[1, 1]), abs=1e-14)
        assert g2.quad(h1) == pytest.approx(float((MATRIX_A2 - MATRIX_A1)[0, 0]), abs=1e-14)
        assert g2.quad(h2) == pytest.approx(float((MATRIX_A2 - MATRIX_A1)[1, 1]), abs=1e-14)

    @pytest.mark.parametrize("grid", [12, 60, 120])
    def test_closed_forms_exact_at_any_aligned_grid(self, grid):
        """1 - 3 mu and -1 + 2 mu are exact cell sums, grid-independent."""
        ex = build_example1(grid)
        f2 = ex.problem.objective.hessian(ex.xbar)
        g2 = ex.problem.constraints[0].hessian(ex.xbar)
        h1 = ex.direction_lower_indicator()
        h2 = ex.direction_upper_indicator()
        for mu in (0.0, 0.25, 0.7, 1.0):
            assert f2.quad(h1) + mu * g2.quad(h1) == pytest.approx(1 - 3 * mu, abs=1e-12)
            assert f2.quad(h2) + mu * g2.quad(h2) == pytest.approx(-1 + 2 * mu, abs=1e-12)


def _dense_example1(n):
    """Example1's objective and constraint on an n-cell grid as dense data,
    assembled from their definitions: the average pair
    p(h) = (avg over (0,1/3) h, -avg over (3/4,1) h), the coupling
    p^T A p, the mean-centered energies on (0,1/3) and (3/4,1) and the plain
    energy on (1/3,3/4), each a cell sum with weight 1/n.  Returns the plain
    matrices of f''(x) and g''(x) and the two gradients at xbar."""
    t = (np.arange(n) + 0.5) / n
    lower, tail = t < 1.0 / 3.0, t > 0.75
    center = (t > 1.0 / 3.0) & (t < 0.75)
    T = np.zeros((2, n))
    T[0, lower] = 1.0 / lower.sum()
    T[1, tail] = -1.0 / tail.sum()

    def centered(mask):
        return np.diag(mask * 1.0) - np.outer(mask, mask) / mask.sum()

    F = T.T @ MATRIX_A1 @ T + (centered(lower) + np.diag(center * 1.0) + centered(tail)) / n
    G = T.T @ (MATRIX_A2 - MATRIX_A1) @ T
    upper_left = (t > 2.0 / 3.0) & (t < 0.75)
    f_grad = np.where(upper_left, -1.0, 0.0)
    g_grad = np.where((t < 0.25) | upper_left, 1.0, 0.0)
    return (F, f_grad), (G, g_grad)


class TestRowEvaluatorsMatchDenseMatrices:
    """Each function's ``values`` and ``gradients`` and its Hessian's
    ``quad_rows`` and ``apply_rows`` against the dense matrices of
    ``_dense_example1``, which share no code with the grid forms."""

    @pytest.mark.parametrize("grid", [12, 120, 480])
    def test_rows(self, grid):
        ex = build_example1(grid)
        rng = np.random.default_rng(grid)
        H = rng.standard_normal((12, grid))
        H[0] = 0.0
        H[1] = ex.direction_lower_indicator()
        H[2] = ex.direction_upper_indicator()
        # rows around xbar clipped to the box, with xbar itself and the bounds
        X = np.clip(ex.xbar + 0.8 * rng.standard_normal((12, grid)), -1.0, 1.0)
        X[0], X[1], X[2] = ex.xbar, -1.0, 1.0
        fns = (ex.problem.objective, ex.problem.constraints[0])
        for fn, (M, grad0) in zip(fns, _dense_example1(grid)):
            form = fn.hessian(ex.xbar)
            np.testing.assert_allclose(form.quad_rows(H), np.einsum("ij,ij->i", H @ M, H),
                                       rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(form.apply_rows(H), grid * (H @ M), rtol=1e-12, atol=1e-12)
            D = X - ex.xbar
            np.testing.assert_allclose(fn.values(X),
                                       D @ grad0 / grid + 0.5 * np.einsum("ij,ij->i", D @ M, D),
                                       rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(fn.gradients(X), grad0 + grid * (D @ M),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("grid", [12, 120])
    def test_zero_rows(self, grid):
        ex = build_example1(grid)
        empty = np.empty((0, grid))
        for fn in (ex.problem.objective, ex.problem.constraints[0]):
            form = fn.hessian(ex.xbar)
            assert form.quad_rows(empty).shape == fn.values(empty).shape == (0,)
            assert form.apply_rows(empty).shape == fn.gradients(empty).shape == (0, grid)


class TestCoercivityChain:
    def test_q_dominates_norm_on_tangent_cone(self):
        """500 seeded random tangent directions: q(h) >= ||h||^2 - 1e-9."""
        ex = build_example1(12)
        mset = multiplier_set(ex.problem, ex.xbar)
        rng = np.random.default_rng(61)
        for _ in range(500):
            h = rng.standard_normal(12)
            h[:4] = np.abs(h[:4])
            h[8:] = -np.abs(h[8:])
            qv, _ = q_of_h(mset, h)
            assert qv >= ex.problem.norm(h) ** 2 - 1e-9
