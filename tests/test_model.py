"""Problem model: feasibility, active sets, derivative validation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kkt2.cones import FREE, NONNEG, NONPOS, ZERO
from kkt2.errors import DimensionMismatch, NonFiniteValue
from kkt2.examples import build_example1
from kkt2.kkt import multiplier_set
from kkt2.linalg import BilinearForm, matrix_form
from kkt2.model import (
    BoxSet,
    ProblemSpec,
    SmoothFunction,
    check_feasible,
    quadratic,
    validate_derivatives,
)


def simple_problem(m1=0, n=2, constraints=()):
    return ProblemSpec(
        quadratic(0.0, np.zeros(n), np.eye(n)),
        constraints,
        m1,
        BoxSet(np.full(n, -1.0), np.full(n, 1.0)),
        np.ones(n),
    )


class TestBoxSet:
    def test_bounds_must_order(self):
        with pytest.raises(DimensionMismatch):
            BoxSet(np.array([1.0]), np.array([0.0]))

    def test_infinite_bounds(self):
        box = BoxSet(np.array([-np.inf, 0.0]), np.array([np.inf, np.inf]))
        assert box.contains(np.array([1e9, 1e9]))
        assert not box.contains(np.array([0.0, -1.0]))


class TestCheckFeasible:
    def test_example1_point_active_equality(self):
        ex = build_example1(12)
        res = check_feasible(ex.problem, ex.xbar)
        assert res.feasible
        assert res.info.active == (0,)
        assert res.info.inactive == ()

    def test_upper_bound_everywhere(self):
        """x at the upper bound with no constraints: all upper-active, so
        the point object's box pattern is <=0 everywhere."""
        p = simple_problem()
        res = check_feasible(p, np.ones(2))
        assert res.feasible
        assert multiplier_set(p, np.ones(2)).c_pattern.codes.tolist() == [NONPOS, NONPOS]

    def test_equality_violation_reported(self):
        g = quadratic(1e-3, np.zeros(2), np.zeros((2, 2)))  # g == 1e-3
        p = simple_problem(m1=1, constraints=(g,))
        res = check_feasible(p, np.zeros(2))
        assert not res.feasible
        assert any("constraint 0" in v for v in res.violations)

    def test_inequality_reorder_invariance(self):
        rng = np.random.default_rng(2)
        g1 = quadratic(-0.5, np.array([1.0, 0.0]), np.zeros((2, 2)))   # inactive
        g2 = quadratic(0.0, np.array([0.0, 1.0]), np.zeros((2, 2)))    # active at 0
        g3 = quadratic(-0.2, rng.standard_normal(2), np.zeros((2, 2)))
        a = check_feasible(simple_problem(constraints=(g1, g2, g3)), np.zeros(2))
        b = check_feasible(simple_problem(constraints=(g3, g2, g1)), np.zeros(2))
        assert a.feasible and b.feasible
        # verdicts and active sets agree as sets of constraint objects
        assert len(a.info.active) == len(b.info.active) == 1

    def test_box_sets_partition(self):
        """One code per coordinate of the point object's box pattern: >=0 at
        the lower bound, <=0 at the upper one, free inside, and =0 on a
        fixed component, which is active at both bounds."""
        rng = np.random.default_rng(4)
        p = ProblemSpec(quadratic(0.0, np.zeros(3), np.eye(3)), (), 0,
                        BoxSet(np.array([-1.0, -1.0, 0.5]), np.array([1.0, 1.0, 0.5])),
                        np.ones(3))
        for _ in range(25):
            x = np.append(np.clip(rng.uniform(-1.2, 1.2, 2), -1.0, 1.0), 0.5)
            assert check_feasible(p, x).feasible
            codes = multiplier_set(p, x).c_pattern.codes
            expected = np.where(x == -1.0, NONNEG, np.where(x == 1.0, NONPOS, FREE))
            assert codes.tolist() == [*expected[:2], ZERO]


class TestValidateDerivatives:
    def test_exact_quadratic_passes_tightly(self):
        """Quadratic with exact derivatives: discrepancy is pure roundoff."""
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = simple_problem(constraints=())
        p = ProblemSpec(quadratic(0.0, np.zeros(2), A), (), 0, p.abstract_set, p.weights)
        rep = validate_derivatives(p, np.zeros(2))
        assert rep.passed
        assert rep.per_function[0]["gradient_max_error"] < 1e-8
        assert rep.per_function[0]["hessian_max_error"] < 1e-8

    def test_scaled_gradient_fails(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        good = quadratic(0.0, np.array([1.0, -1.0]), A)
        bad = SmoothFunction(
            values=good.values,
            gradients=lambda X: 1.01 * good.gradients(X),
            hessian=good.hessian,
        )
        p = ProblemSpec(bad, (), 0, BoxSet(np.full(2, -5.0), np.full(2, 5.0)), np.ones(2))
        rep = validate_derivatives(p, np.array([0.3, 0.7]))
        assert not rep.passed
        assert rep.per_function[0]["gradient_max_error"] > 1e-4

    def test_example1_at_large_grid(self):
        ex = build_example1(120)
        rep = validate_derivatives(ex.problem, ex.xbar)
        assert rep.passed

    def test_memory_does_not_grow_with_the_square_of_the_dimension(self):
        """The 16 probe directions are unit vectors of length n: at example1
        grid 1920 an n x n identity per probe would hold about 470 MB."""
        ex = build_example1(1920)
        tracemalloc.start()
        try:
            rep = validate_derivatives(ex.problem, ex.xbar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 10 * 2**20

    def test_nonfinite_value_raises(self):
        f = SmoothFunction(
            values=lambda X: np.full(len(X), np.inf),
            gradients=np.zeros_like,
            hessian=lambda x: _zero_form(),
        )
        p = ProblemSpec(f, (), 0, BoxSet(np.array([-1.0]), np.array([1.0])), np.ones(1))
        with pytest.raises(NonFiniteValue):
            validate_derivatives(p, np.zeros(1))

    def test_nan_off_the_axes_raises(self):
        """x.x on the coordinate axes and NaN off them: the coordinate probes
        are finite, the two random Hessian probes are not."""
        f = SmoothFunction(
            values=lambda X: np.where(X[:, 0] * X[:, 1] == 0.0, np.sum(X * X, axis=1), np.nan),
            gradients=lambda X: 2.0 * X,
            hessian=lambda x: matrix_form(2.0 * np.eye(2)),
        )
        p = ProblemSpec(f, (), 0, BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        with pytest.raises(NonFiniteValue, match="probe point"):
            validate_derivatives(p, np.zeros(2), directions=4)
        # on the axes alone (the two unit directions) the same function passes
        assert validate_derivatives(p, np.zeros(2), directions=2).passed

    @pytest.mark.parametrize("broken", ["gradients", "hessian"])
    def test_nonfinite_analytic_derivative_raises(self, broken):
        good = quadratic(0.0, np.zeros(2), np.eye(2))
        fields = {"gradients": lambda X: np.full(X.shape, np.nan),
                  "hessian": lambda x: BilinearForm(lambda H: np.full(len(H), np.nan))}
        f = replace(good, **{broken: fields[broken]})
        p = ProblemSpec(f, (), 0, BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        with pytest.raises(NonFiniteValue, match="not finite at the validation point"):
            validate_derivatives(p, np.zeros(2))

    @pytest.mark.parametrize("broken", ["values", "gradients", "hessian"])
    def test_row_evaluators_of_the_wrong_shape_are_rejected(self, broken):
        """A (k, 1) column of values, a gradient row of the wrong length and
        a (k, 1) column of form values are usage errors, not a verdict."""
        good = quadratic(0.0, np.zeros(2), np.eye(2))
        fields = {"values": lambda X: good.values(X)[:, None],
                  "gradients": lambda X: good.gradients(X)[:, :1],
                  "hessian": lambda x: BilinearForm(lambda H: good.hessian(x).quad_rows(H)[:, None])}
        f = replace(good, **{broken: fields[broken]})
        p = ProblemSpec(f, (), 0, BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        with pytest.raises(DimensionMismatch, match="returned shapes"):
            validate_derivatives(p, np.zeros(2))

    def test_one_values_call_per_function(self):
        """Every probe point of a function goes through one ``values`` call,
        and its gradient through one ``gradients`` call: at example1 grid
        480, 1 + 2 * 32 coordinate probes and 2 * 16 Hessian probes."""
        ex = build_example1(480)
        calls = []

        def spied(fn):
            def values(X):
                calls.append((fn.name, "values", X.shape))
                return fn.values(X)

            def gradients(X):
                calls.append((fn.name, "gradients", X.shape))
                return fn.gradients(X)

            return replace(fn, values=values, gradients=gradients)

        p = ex.problem
        p = replace(p, objective=spied(p.objective), constraints=tuple(map(spied, p.constraints)))
        assert validate_derivatives(p, ex.xbar).passed
        assert sorted(calls) == [("f", "gradients", (1, 480)), ("f", "values", (97, 480)),
                                 ("g", "gradients", (1, 480)), ("g", "values", (97, 480))]


def _zero_form() -> BilinearForm:
    return BilinearForm(lambda H: np.zeros(len(H)), np.zeros_like)


def _form_pairs():
    """Example1's two grid forms at grid 24, and the Hessian of a quadratic
    with non-unit weights, each with its weights."""
    ex = build_example1(24)
    p = ex.problem
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.5, 2.0, 7)
    q = quadratic(0.0, np.zeros(7), rng.standard_normal((7, 7)), weights)
    return [(p.objective.hessian(ex.xbar), p.weights), (p.constraints[0].hessian(ex.xbar), p.weights),
            (q.hessian(np.zeros(7)), weights)]


class TestBilinearFormContracts:
    """Symmetry and linearity of a form through its Riesz map: <apply(a), b>_w
    is B(a, b)."""

    @pytest.mark.parametrize("case", range(3))
    def test_symmetry_and_linearity(self, case):
        form, w = _form_pairs()[case]
        rng = np.random.default_rng(6 + case)
        A, B = rng.standard_normal((2, 20, len(w)))
        alpha = rng.standard_normal(20)[:, None]
        AB = np.einsum("ij,ij->i", form.apply_rows(A) * w, B)
        BA = np.einsum("ij,ij->i", form.apply_rows(B) * w, A)
        np.testing.assert_allclose(AB, BA, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(form.apply_rows(alpha * A + B),
                                   alpha * form.apply_rows(A) + form.apply_rows(B),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("case", range(3))
    def test_quad_is_the_form_on_the_diagonal(self, case):
        form, w = _form_pairs()[case]
        H = np.random.default_rng(8 + case).standard_normal((10, len(w)))
        np.testing.assert_allclose(form.quad_rows(H),
                                   np.einsum("ij,ij->i", form.apply_rows(H) * w, H),
                                   rtol=1e-12, atol=1e-12)
        for h in H:
            assert form.quad(h) == form.quad_rows(h[None])[0]
            assert np.array_equal(form.apply(h), form.apply_rows(h[None])[0])

    @pytest.mark.parametrize("case", range(3))
    def test_zero_rows(self, case):
        form, w = _form_pairs()[case]
        assert form.quad_rows(np.empty((0, len(w)))).shape == (0,)
        assert form.apply_rows(np.empty((0, len(w)))).shape == (0, len(w))
