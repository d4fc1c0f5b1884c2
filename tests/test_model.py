"""Problem model: feasibility, active sets, derivative validation."""

import tracemalloc

import numpy as np
import pytest

from kkt2.errors import DimensionMismatch, NonFiniteValue
from kkt2.examples import build_example1
from kkt2.linalg import BilinearForm
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
        """x at the upper bound with no constraints: all upper-active."""
        p = simple_problem()
        res = check_feasible(p, np.ones(2))
        assert res.feasible
        assert res.info.box_upper_active == (0, 1)
        assert res.info.box_lower_active == ()
        assert res.info.box_interior == ()

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
        rng = np.random.default_rng(4)
        p = simple_problem()
        for _ in range(25):
            x = np.clip(rng.uniform(-1.2, 1.2, 2), -1.0, 1.0)
            res = check_feasible(p, x)
            idx = sorted(res.info.box_lower_active + res.info.box_upper_active
                         + res.info.box_interior)
            fixed = set(res.info.box_lower_active) & set(res.info.box_upper_active)
            assert sorted(set(idx)) == [0, 1]
            assert len(idx) == 2 + len(fixed)


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
            value=good.value,
            gradient=lambda x: 1.01 * good.gradient(x),
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
            value=lambda x: float("inf"),
            gradient=lambda x: np.zeros(1),
            hessian=lambda x: BilinearForm(lambda a, b: 0.0),
        )
        p = ProblemSpec(f, (), 0, BoxSet(np.array([-1.0]), np.array([1.0])), np.ones(1))
        with pytest.raises(NonFiniteValue):
            validate_derivatives(p, np.zeros(1))


class TestBilinearFormContracts:
    def test_symmetry_and_bilinearity(self):
        ex = build_example1(24)
        rng = np.random.default_rng(6)
        f2 = ex.problem.objective.hessian(ex.xbar)
        g2 = ex.problem.constraints[0].hessian(ex.xbar)
        for form in (f2, g2):
            for _ in range(20):
                a, b, c = (rng.standard_normal(24) for _ in range(3))
                alpha = rng.standard_normal()
                sym_scale = max(abs(form(a, b)), abs(form(b, a)), 1e-30)
                assert abs(form(a, b) - form(b, a)) <= 1e-12 * max(1.0, sym_scale)
                lin = form(alpha * a + b, c)
                ref = alpha * form(a, c) + form(b, c)
                assert abs(lin - ref) <= 1e-10 * max(1.0, abs(lin), abs(ref))

    def test_apply_consistent_with_evaluator(self):
        ex = build_example1(24)
        p = ex.problem
        rng = np.random.default_rng(8)
        f2 = p.objective.hessian(ex.xbar)
        for _ in range(10):
            h, v = rng.standard_normal(24), rng.standard_normal(24)
            assert f2(h, v) == pytest.approx(p.inner(f2.apply(h), v), abs=1e-12)
