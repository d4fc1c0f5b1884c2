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

from ..cones import CriticalCone
from ..errors import UsageError
from ..kkt import MultiplierSet
from ..linalg import BilinearForm, row_dots
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
        the objective only: T_C ∩ {f'(xbar).h <= 0}.  mu = 0 is a multiplier,
        so -f'(xbar) lies in the normal cone and the cut is the annihilator
        section of lambda(0) (``MultiplierSet.annihilator``), without rows:
        >=0 on (0,1/3), free on (1/3,2/3), =0 on (2/3,3/4), <=0 on (3/4,1)."""
        section, _, _ = mset.annihilator(np.zeros(mset.m))
        return CriticalCone(mset.problem.weights, section, (), (), (), None, 0.0)


def _grid_form(n: int, matrix: np.ndarray, with_integrals: bool) -> BilinearForm:
    """A constant bilinear form on an n-cell grid with weights 1/n.

    ``T`` maps h to its average pair p = (avg over (0,1/3) h, -avg over
    (3/4,1) h), through which the rank-two coupling p^T ``matrix`` p acts.
    The objective form (``with_integrals``) adds the mean-centered energies
    on (0,1/3) and (3/4,1) and the plain energy on (1/3,3/4).  Those three
    runs cover the grid, and a centered energy is the plain one less the run
    length times the squared average, so they add up to
    ||h||_w^2 - p^T diag(1/3, 1/4) p.  The form is therefore p^T C p, plus
    ||h||_w^2 with the integrals, and its Riesz map is n T C p, plus h.  All
    integrals are exact cell sums.
    """

    i3, i34 = n // 3, (3 * n) // 4
    T = np.zeros((n, 2))
    T[:i3, 0] = 1.0 / i3
    T[i34:, 1] = -1.0 / (n - i34)
    C = matrix - np.diag([i3 / n, (n - i34) / n]) if with_integrals else matrix

    def quad_rows(H):
        P = H @ T
        val = row_dots(P @ C, P)
        return val + row_dots(H, H) / n if with_integrals else val

    def apply_rows(H):
        out = n * (H @ T @ C @ T.T)
        return out + H if with_integrals else out

    return BilinearForm(quad_rows, apply_rows)


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

    def make_function(grad0, matrix, with_integrals, name):
        form = _grid_form(n, matrix, with_integrals)

        def values(X):
            H = X - xbar
            return np.sum(w * grad0 * H, axis=1) + 0.5 * form.quad_rows(H)

        def gradients(X):
            return grad0 + form.apply_rows(X - xbar)

        return SmoothFunction(values=values, gradients=gradients, hessian=lambda _x: form, name=name)

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
