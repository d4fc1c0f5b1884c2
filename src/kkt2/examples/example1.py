"""Built-in problem "example1": non-unique multipliers on a discretized
interval.

A quadratic objective and one quadratic equality constraint on a uniform
midpoint grid over (0,1) with box bounds -1 <= x <= 1.  The candidate point
is at the lower bound on (0,1/3), affine across (1/3,2/3), and at the upper
bound on (2/3,1).  The multiplier set is the whole interval [0,1]: the
coercivity bound sup over multipliers of the Lagrangian Hessian is >= ||h||^2
on the tangent cone, yet no single fixed multiplier keeps the Hessian
nonnegative on the critical cone.

Grid sizes must be multiples of 12 so every interval breakpoint (1/4, 1/3,
2/3, 3/4) lands on a cell edge and all cell-constant integrals are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cones import CriticalCone, critical_cone
from ..errors import UsageError
from ..kkt import MultiplierSet
from ..linalg import BilinearForm
from ..model import BoxSet, ProblemSpec, SmoothFunction

MATRIX_A1 = np.array([[1.0, 1.0], [1.0, -1.0]])
MATRIX_A2 = np.array([[-2.0, 1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class Example1Problem:
    grid: int
    problem: ProblemSpec
    xbar: np.ndarray
    mask_lower: np.ndarray      # cells in (0, 1/3), x at the lower bound
    mask_middle: np.ndarray     # cells in (1/3, 2/3)
    mask_upper_left: np.ndarray  # cells in (2/3, 3/4)
    mask_upper_tail: np.ndarray  # cells in (3/4, 1)
    f_grad: np.ndarray
    g_grad: np.ndarray

    def direction_lower_indicator(self) -> np.ndarray:
        """chi_(0,1/3): the first canonical critical direction."""
        return np.where(self.mask_lower, 1.0, 0.0)

    def direction_upper_indicator(self) -> np.ndarray:
        """-chi_(3/4,1): the second canonical critical direction."""
        return np.where(self.mask_upper_tail, -1.0, 0.0)

    def display_critical_cone(self, mset: MultiplierSet) -> CriticalCone:
        """The tangent cone at xbar, whose multiplier set is ``mset``, cut by
        the objective only (no constraint rows); the objective cut absorbs
        into the sign pattern, leaving >=0 on (0,1/3), free on (1/3,2/3), =0
        on (2/3,3/4), <=0 on (3/4,1)."""
        return critical_cone(mset, 0.0, constraint_rows=False)


def _grid_forms(n: int):
    """The two constant bilinear forms on an n-cell grid, built from slice
    arithmetic so every evaluation is a handful of short dot products.

    The rank-two coupling acts through the average pair
    (avg over (0,1/3) h, -avg over (3/4,1) h); the objective form adds the
    mean-centered energies on (0,1/3) and (3/4,1) plus the plain energy on
    (1/3,3/4).  All integrals are exact cell sums.  ``quad_rows`` computes
    the same averages and energies over a block of rows in one call.  The
    Riesz map is computed a block of rows at a time (returned as
    ``apply_rows``), and ``apply`` is its one-row case.
    """

    i3, i34 = n // 3, (3 * n) // 4
    len_lower, len_tail = i3 / n, (n - i34) / n

    def averages(h):
        return float(h[:i3].sum()) / i3, -float(h[i34:].sum()) / (n - i34)

    def average_rows(H):
        return np.column_stack([H[:, :i3].sum(axis=1) / i3, -H[:, i34:].sum(axis=1) / (n - i34)])

    def energy(X):
        return np.einsum("ij,ij->i", X, X)

    def make_form(matrix, with_integrals):
        def rows(H):
            P = average_rows(H)
            val = np.einsum("ij,ij->i", P @ matrix, P)
            if with_integrals:
                val += (energy(H[:, :i3]) - i3 * P[:, 0] ** 2) / n
                val += energy(H[:, i3:i34]) / n
                val += (energy(H[:, i34:]) - (n - i34) * P[:, 1] ** 2) / n
            return val

        def ev(a, b):
            ma, na = averages(a)
            mb, nb = averages(b)
            val = float(np.array([ma, na]) @ matrix @ np.array([mb, nb]))
            if with_integrals:
                val += (float(a[:i3] @ b[:i3]) - i3 * ma * mb) / n
                val += float(a[i3:i34] @ b[i3:i34]) / n
                val += (float(a[i34:] @ b[i34:]) - (n - i34) * na * nb) / n
            return val

        def ap_rows(H):
            P = average_rows(H)
            coef = P @ matrix.T
            out = np.zeros_like(H)
            out[:, :i3] = (coef[:, 0] / len_lower)[:, None]
            out[:, i34:] = (-coef[:, 1] / len_tail)[:, None]
            if with_integrals:
                out[:, :i3] += H[:, :i3] - P[:, :1]
                out[:, i3:i34] += H[:, i3:i34]
                out[:, i34:] += H[:, i34:] + P[:, 1:]
            return out

        def ap(h):
            return ap_rows(h[None])[0]

        return BilinearForm(evaluator=ev, apply=ap, quad_rows=rows), ap_rows

    return make_form


def build_example1(grid: int) -> Example1Problem:
    """Construct the problem on a uniform midpoint grid; ``grid`` must be a
    multiple of 12 (and at least 12) so the breakpoints are exact."""

    if grid % 12 != 0 or grid < 12:
        raise UsageError("grid size must be a multiple of 12, at least 12")
    n = grid
    w = np.full(n, 1.0 / n)
    t = (np.arange(n) + 0.5) / n
    mask_lower = t < 1.0 / 3.0
    mask_q = t < 0.25
    mask_middle = (t > 1.0 / 3.0) & (t < 2.0 / 3.0)
    mask_ul = (t > 2.0 / 3.0) & (t < 0.75)
    mask_tail = t > 0.75
    mask_center = mask_middle | mask_ul  # (1/3, 3/4)

    xbar = np.where(mask_lower, -1.0, np.where(mask_middle, -3.0 + 6.0 * t, 1.0))
    f_grad = np.where(mask_ul, -1.0, 0.0)
    g_grad = np.where(mask_q | mask_ul, 1.0, 0.0)

    make_form = _grid_forms(n)

    def make_function(grad0, matrix, with_integrals, name):
        form, apply_rows = make_form(matrix, with_integrals)

        def value(x):
            h = x - xbar
            return float(np.sum(w * grad0 * h)) + 0.5 * form(h, h)

        def gradient(x):
            return grad0 + form.apply(x - xbar)

        def hessian(_x):
            return form

        def value_rows(X):
            H = X - xbar
            return np.sum(w * grad0 * H, axis=1) + 0.5 * form.quad_batch(H)

        def gradient_rows(X):
            return grad0 + apply_rows(X - xbar)

        return SmoothFunction(value=value, gradient=gradient, hessian=hessian, name=name,
                              value_rows=value_rows, gradient_rows=gradient_rows)

    problem = ProblemSpec(
        objective=make_function(f_grad, MATRIX_A1, True, "f"),
        constraints=(make_function(g_grad, MATRIX_A2 - MATRIX_A1, False, "g"),),
        m1=1,
        abstract_set=BoxSet(np.full(n, -1.0), np.full(n, 1.0)),
        weights=w,
        name=f"example1(grid={grid})",
    )
    return Example1Problem(
        grid=grid,
        problem=problem,
        xbar=xbar,
        mask_lower=mask_lower,
        mask_middle=mask_middle,
        mask_upper_left=mask_ul,
        mask_upper_tail=mask_tail,
        f_grad=f_grad,
        g_grad=g_grad,
    )
