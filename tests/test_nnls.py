"""The Lawson-Hanson NNLS kernel (``linalg.nnls``) against a brute-force
enumeration of supports and, where scipy is installed, against
``scipy.optimize.nnls``; its optimality check and its edge cases."""

import numpy as np
import pytest

from kkt2.errors import NumericError
from kkt2.examples import build_example2
from kkt2.linalg import conic_distance, nnls

from helpers import brute_force_nnls


def random_nnls(seed):
    """A seeded NNLS problem with up to 10 rows and 9 columns; by seed, one
    column is negated, a sum of two others, a near copy, zero, or every
    column is rescaled by up to 1e3 either way."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 11)), int(rng.integers(0, 10))
    A = rng.standard_normal((m, n))
    kind = seed % 6
    if kind == 1 and n >= 2:
        A[:, 1] = -A[:, 0]
    elif kind == 2 and n >= 3:
        A[:, 2] = A[:, 0] + A[:, 1]
    elif kind == 3 and n >= 2:
        A[:, 1] = A[:, 0] * (1.0 + 1e-9)
    elif kind == 4 and n >= 1:
        A[:, -1] = 0.0
    elif kind == 5:
        A *= 10.0 ** rng.uniform(-3.0, 3.0, n)
    return A, rng.standard_normal(m) * 10.0 ** rng.uniform(-3.0, 3.0)


def assert_solves(A, b, c, residual):
    """c is feasible and its residual is the one reported."""
    assert c.shape == (A.shape[1],) and np.all(c >= 0.0)
    assert residual == pytest.approx(float(np.linalg.norm(A @ c - b)), rel=1e-12, abs=1e-300)


class TestAgainstReferences:
    @pytest.mark.parametrize("block", range(10))
    def test_brute_force(self, block):
        for seed in range(30 * block, 30 * block + 30):
            A, b = random_nnls(seed)
            c, residual = nnls(A, b)
            assert_solves(A, b, c, residual)
            expected = brute_force_nnls(A, b)
            assert abs(residual - expected) <= 1e-9 * (1.0 + expected + np.linalg.norm(b))

    def test_scipy(self):
        reference = pytest.importorskip("scipy.optimize").nnls
        for seed in range(1000):
            A, b = random_nnls(seed)
            if not A.shape[1]:
                continue
            residual = nnls(A, b)[1]
            expected = reference(A, b)[1]
            assert abs(residual - expected) <= 1e-9 * (1.0 + expected + np.linalg.norm(b))

    def test_wide_scipy(self):
        """Few rows, many columns: the shape of a cone distance."""
        reference = pytest.importorskip("scipy.optimize").nnls
        rng = np.random.default_rng(3)
        for _ in range(300):
            m, n = int(rng.integers(2, 6)), int(rng.integers(20, 90))
            A = rng.standard_normal((m, n)) + 3.0 * np.eye(m)[0][:, None]
            b = rng.standard_normal(m)
            assert nnls(A, b)[1] == pytest.approx(reference(A, b)[1], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("trunc", [7, 21, 40])
    def test_hull_members_have_distance_zero(self, trunc):
        """Convex combinations of example2's hull points, lifted to (x, 1),
        lie in the cone of the lifted points.  The points crowd near the
        limit ray, so the cone has nearly parallel generators; at trunc 7
        scipy's NNLS runs out of iterations on one of the points."""
        points = build_example2(trunc).problem.abstract_set.hull_points
        lifted = np.array([np.append(p, 1.0) for p in points]).T
        rng = np.random.default_rng(trunc)
        weights = rng.exponential(size=(40, len(points))) * (rng.random((40, len(points))) < 0.3)
        weights[:, -1] += 1e-3
        for w in weights / weights.sum(axis=1, keepdims=True):
            assert nnls(lifted, lifted @ w)[1] <= 1e-12
        for k in range(len(points)):
            assert nnls(lifted, lifted[:, k])[1] <= 1e-12


class TestEdgeCases:
    def test_no_columns(self):
        c, residual = nnls(np.zeros((3, 0)), np.array([3.0, 4.0, 0.0]))
        assert c.shape == (0,) and residual == 5.0

    def test_zero_right_hand_side(self):
        c, residual = nnls(np.random.default_rng(0).standard_normal((3, 4)), np.zeros(3))
        assert np.all(c == 0.0) and residual == 0.0

    def test_interior_point_is_reached_exactly(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        c, residual = nnls(A, np.array([2.0, 3.0]))
        assert residual <= 1e-15
        assert_solves(A, np.array([2.0, 3.0]), c, residual)

    def test_opposite_columns_give_a_free_coefficient(self):
        A = np.array([[1.0, -1.0], [1.0, -1.0]])
        c, residual = nnls(A, np.array([-2000.0, -2001.0]))
        assert c[0] - c[1] == pytest.approx(-2000.5)
        assert residual == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_conic_distance_is_euclidean(self):
        rays = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        assert conic_distance(rays, np.array([-3.0, -4.0])) == pytest.approx(5.0)
        assert conic_distance(rays, np.array([1.0, -2.0])) == pytest.approx(2.0)
        assert conic_distance([], np.array([3.0, 4.0])) == 5.0


class TestChecks:
    def test_failed_optimality_check_raises(self, monkeypatch):
        """A least-squares step that misses its solution leaves a nonzero
        gradient on the support, which the KKT check reports."""
        lstsq = np.linalg.lstsq

        def off_by_half(a, b, rcond=None):
            x, *rest = lstsq(a, b, rcond=rcond)
            return (1.5 * x, *rest)

        monkeypatch.setattr(np.linalg, "lstsq", off_by_half)
        with pytest.raises(NumericError, match="optimality conditions"):
            nnls(np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_data_raises(self, bad):
        with pytest.raises(NumericError, match="finite"):
            nnls(np.array([[1.0, bad]]), np.array([1.0]))
        with pytest.raises(NumericError, match="finite"):
            nnls(np.array([[1.0]]), np.array([bad]))
