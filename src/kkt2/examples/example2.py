"""Built-in problem "example2": a 3-D convex hull on which the sup-form
second-order necessary condition fails at a local minimizer.

The set is the closed convex hull of the origin and two point families
P_n = (n^-3, n^-2, -n^-4) and Q_n = (-(n/gamma)^-3, (n/gamma)^-2, 0) with
gamma = (1+sqrt(3))/2.  The problem minimizes -delta x2^2 - x3 subject to
x1 = 0 over that hull; the origin is a local minimizer with a unique
multiplier, yet the maximized Lagrangian Hessian is -2 delta < 0 along the
critical direction (0,1,0).

Truncations keep the families up to index N.  Two kinds of tail data keep
truncated answers faithful to the full set:

* the limit ray (0,1,0) = lim n^2 P_n joins the tangent generators (it is a
  genuine tangent direction of the full set that no finite conic hull of
  generators contains), and
* deep-tail family members (n = 2^12, 2^24, 2^40, stored in the scaled form
  n^4 P_n = (n, n^2, -1)) join the normal-cone row set, since multiplier
  uniqueness is forced only by the far tail of the family.

The chain's ``_section_formulas`` stage checks the paper's formulas on
arrays.  ``halfspace_representation``: the listed half-space rows, one
``PolytopeH`` with a boundary mask over the hull points O, P_1..P_N,
Q_1..Q_N, hold at every hull point the certifier uses, with exactly the
annotated points on each boundary.  ``section_membership``: the
plane-section points R_{k,n} (1 <= k, n <= 30) lie under the parabola
x3 <= -delta x2^2, on it exactly when k = n, and the diagonal inequality
(gamma^3 k^3 + n^3)/(gamma^3 + 1) >= k (gamma k + n)^2/(gamma + 1)^2 holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ..errors import UsageError
from ..linalg import PolytopeH
from ..model import GeneratedConeSet, ProblemSpec, quadratic

GAMMA = (1.0 + math.sqrt(3.0)) / 2.0
DELTA = (GAMMA**3 + 1.0) / (GAMMA * (GAMMA + 1.0) ** 2)
_DEEP_TAIL = (2**12, 2**24, 2**40)


def point_p(n) -> np.ndarray:
    """P_n, or one row per entry of an array n; the powers go through
    ``np.float_power`` as in ``_section_coordinates``."""
    n = np.asarray(n, dtype=float)
    return np.stack([np.float_power(n, -3.0), np.float_power(n, -2.0),
                     -np.float_power(n, -4.0)], axis=-1)


def point_q(n) -> np.ndarray:
    """Q_n, or one row per entry of an array n."""
    s = np.asarray(n, dtype=float) / GAMMA
    return np.stack([-np.float_power(s, -3.0), np.float_power(s, -2.0), np.zeros_like(s)],
                    axis=-1)


def _section_coordinates(k, n) -> tuple[np.ndarray, np.ndarray]:
    """x2 and x3 of R_{k,n} (its x1 is 0), broadcast over arrays of k and n.

    The powers go through ``np.float_power``, which calls the C library's
    pow as ``**`` on Python floats does, so every entry is the scalar
    formula's value bit for bit (``np.power``'s SIMD loops round some
    powers differently)."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    lam = 1.0 / (1.0 + np.float_power(n / (k * GAMMA), 3.0))
    return (lam * np.float_power(k, -2.0) + (1.0 - lam) * np.float_power(n / GAMMA, -2.0),
            -lam * np.float_power(k, -4.0))


def point_r(k: int, n: int) -> np.ndarray:
    """Intersection of the segment P_k -- Q_n with the plane x1 = 0."""
    x2, x3 = _section_coordinates(k, n)
    return np.array([0.0, x2, x3])


@dataclass(frozen=True)
class Example2Set:
    """Truncated generator family with the listed half-space representation."""

    trunc: int

    def halfspace_rows(self) -> tuple[PolytopeH, np.ndarray]:
        """The listed half-spaces with k up to trunc - 2, as rows A x <= b:
        x3 <= 0, -x.(1, gamma, 1 + gamma) <= 0, then for each k the rows
        x.(2k+1, -1, k(k+1)) <= 0 and the first- and second-family facets.
        The mask (rows x hull points O, P_1..P_N, Q_1..Q_N) marks the
        points annotated on each boundary."""
        N, g = self.trunc, GAMMA
        g3 = g**3
        k = np.arange(1.0, N - 1.0)
        a1 = k * (k + 1.0) * (2.0 * k + 1.0)
        b1 = g * (3.0 * k * k + 3.0 * k + 1.0)
        k4, k14 = np.float_power(k, 4.0), np.float_power(k + 1.0, 4.0)
        b2 = (g3 * (k14 - k4) + np.float_power(k + 1.0, 3.0)) / (
            g3 * (2.0 * k + 1.0) + g * g * (k + 1.0))
        a2 = k14 - k4 - (2.0 * k + 1.0) * b2
        # (family, entries a_1 a_2 a_3 b, k), laid out k by k in family order
        families = np.array([
            [2.0 * k + 1.0, -np.ones_like(k), k * (k + 1.0), np.zeros_like(k)],
            [a1, b1, k * a1 + k * k * b1 - g3 * k4, np.full_like(k, g3)],
            [a2, b2, k * a2 + k * k * b2 - k4, np.ones_like(k)],
        ]).transpose(2, 0, 1).reshape(-1, 4)
        Ab = np.vstack([[0.0, 0.0, 1.0, 0.0], [-1.0, -g, -1.0 - g, 0.0], families])

        on = np.zeros((len(Ab), 1 + 2 * N), dtype=bool)
        on[0, 0], on[0, N + 1:] = True, True  # O and every Q_n
        on[1, [0, 1, N + 1]] = True  # O, P_1, Q_1
        P = np.arange(1, N - 1)  # the columns of P_k and Q_k are k and N + k
        cols = np.array([[0 * P, P, P + 1],  # O, P_k, P_k+1
                         [N + P, N + P + 1, P],  # Q_k, Q_k+1, P_k
                         [P, P + 1, N + P + 1]])  # P_k, P_k+1, Q_k+1
        on[2 + np.arange(3 * len(P)).reshape(-1, 3, 1), cols.transpose(2, 0, 1)] = True
        return PolytopeH(Ab[:, :3], Ab[:, 3]), on

    def cone_set(self) -> GeneratedConeSet:
        """The rays P_1..P_N, Q_1..Q_N, the limit ray, the deep tail and the
        hull points O, P_1..P_N, Q_1..Q_N, each family one (k, 3) array."""
        n = np.arange(1, self.trunc + 1)
        rays = np.vstack([point_p(n), point_q(n)])
        return GeneratedConeSet(
            base=np.zeros(3),
            rays=rays,
            limit_rays=[[0.0, 1.0, 0.0]],
            deep_rays=[[float(n), float(n) ** 2, -1.0] for n in _DEEP_TAIL],
            hull_points=np.vstack([np.zeros(3), rays]),
        )


@dataclass(frozen=True)
class Example2Problem:
    problem: ProblemSpec
    geometry: Example2Set
    xbar: np.ndarray


def build_example2(trunc: int) -> Example2Problem:
    """Problem over the truncated hull with m1 = 1 (the single constraint is
    the equality x1 = 0)."""

    if trunc < 2:
        raise UsageError("truncation must be at least 2")
    geometry = Example2Set(trunc)
    weights = np.ones(3)
    objective = quadratic(
        0.0,
        np.array([0.0, 0.0, -1.0]),
        np.diag([0.0, -2.0 * DELTA, 0.0]),
        weights,
        name="f",
    )
    constraint = quadratic(0.0, np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)), weights, name="g")
    problem = ProblemSpec(
        objective=objective,
        constraints=(constraint,),
        m1=1,
        abstract_set=geometry.cone_set(),
        weights=weights,
        name=f"example2(trunc={trunc})",
    )
    return Example2Problem(problem=problem, geometry=geometry, xbar=np.zeros(3))


# --------------------------------------------------------------------------
# Verification routines for the explicit formulas
# --------------------------------------------------------------------------


def verify_halfspace_representation(
    rows: PolytopeH, on: np.ndarray, points: np.ndarray, tol: float = 1e-10
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every point satisfies every row a.x <= b, and exactly the points
    marked in ``on`` (rows x points) lie on each boundary, both at the given
    tolerance.  Each slack b - a.x is compared relative to the termwise size
    of its dot product, sum_i |a_i x_i| + |b|: the unannotated points P_n sit
    n^-4 off a boundary, which an absolute tolerance reads as on it from
    n = 317 on.  All slacks come from one matrix product.

    Returns (ok, and per row: satisfied, exact, worst slack, worst boundary
    residual)."""

    A, b = rows.A, rows.b[:, None]
    slack = b - A @ points.T
    size = np.abs(A) @ np.abs(points).T + np.abs(b)
    rel = np.divide(slack, size, out=np.zeros_like(slack), where=size > 0.0)  # size 0: slack 0
    satisfied = ~np.any(rel < -tol, axis=1)
    # an annotated point off the boundary, or an unannotated one on it
    exact = ~np.any(np.where(on, np.abs(rel) > tol, rel <= tol), axis=1)
    worst_eq = np.max(np.abs(slack), axis=1, where=on, initial=0.0)
    return bool(np.all(satisfied & exact)), satisfied, exact, slack.min(axis=1), worst_eq


def verify_section_membership(k_max: int, n_max: int, tol: float = 1e-10
                              ) -> tuple[bool, float, float]:
    """R_{k,n} lies under the parabola x3 <= -delta x2^2 for all k,n in
    range, with boundary equality exactly on the diagonal k = n, and the
    paper's diagonal inequality (gamma^3 k^3 + n^3)/(gamma^3 + 1) >=
    k (gamma k + n)^2/(gamma + 1)^2 holds, to tol relative to the larger
    side.  The whole k x n grid is evaluated at once.

    Returns (ok, worst membership residual, worst diagonal residual)."""

    if k_max < 2 or n_max < 2:
        raise UsageError("k_max and n_max must be at least 2")
    k, n = np.arange(1.0, k_max + 1.0)[:, None], np.arange(1.0, n_max + 1.0)
    x2, x3 = _section_coordinates(k, n)
    resid = x3 + DELTA * np.float_power(x2, 2.0)  # must be <= 0
    diag = np.abs(np.diagonal(resid))  # k = n
    g3 = GAMMA**3
    lhs = (g3 * k**3 + n**3) / (g3 + 1.0)
    rhs = k * (GAMMA * k + n) ** 2 / (GAMMA + 1.0) ** 2
    ok = not (np.any(resid > tol) or np.any(x2 < -tol) or np.any(diag > tol)
              or np.any(lhs - rhs < -tol * np.maximum(lhs, rhs)))
    return ok, float(resid.max()), float(diag.max())
