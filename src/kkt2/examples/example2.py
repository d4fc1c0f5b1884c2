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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ..errors import UsageError
from ..model import GeneratedConeSet, ProblemSpec, quadratic

GAMMA = (1.0 + math.sqrt(3.0)) / 2.0
DELTA = (GAMMA**3 + 1.0) / (GAMMA * (GAMMA + 1.0) ** 2)
_DEEP_TAIL = (2**12, 2**24, 2**40)


def point_p(n: float) -> np.ndarray:
    return np.array([n**-3.0, n**-2.0, -(n**-4.0)])


def point_q(n: float) -> np.ndarray:
    s = n / GAMMA
    return np.array([-(s**-3.0), s**-2.0, 0.0])


def point_r(k: int, n: int) -> np.ndarray:
    """Intersection of the segment P_k -- Q_n with the plane x1 = 0."""
    lam = 1.0 / (1.0 + (n / (k * GAMMA)) ** 3)
    return np.array(
        [0.0, lam * k**-2.0 + (1.0 - lam) * (n / GAMMA) ** -2.0, -lam * k**-4.0]
    )


@dataclass(frozen=True)
class HalfspaceRow:
    label: str
    coef: np.ndarray
    rhs: float
    sense: str  # "le" or "ge"
    equality_points: tuple[str, ...]


@dataclass(frozen=True)
class Example2Set:
    """Truncated generator family with the listed half-space representation."""

    trunc: int
    gamma: float
    delta: float

    @property
    def points(self) -> dict[str, np.ndarray]:
        pts = {"O": np.zeros(3)}
        for n in range(1, self.trunc + 1):
            pts[f"P{n}"] = point_p(n)
            pts[f"Q{n}"] = point_q(n)
        return pts

    def halfspace_rows(self) -> list[HalfspaceRow]:
        """Listed half-spaces with k up to trunc - 2, annotated with the
        generated points lying on each boundary."""
        N = self.trunc
        g = self.gamma
        g3 = g**3
        rows = [
            HalfspaceRow(
                "x.(0,0,1) <= 0",
                np.array([0.0, 0.0, 1.0]),
                0.0,
                "le",
                ("O",) + tuple(f"Q{n}" for n in range(1, N + 1)),
            ),
            HalfspaceRow(
                "x.(1,gamma,1+gamma) >= 0",
                np.array([1.0, g, 1.0 + g]),
                0.0,
                "ge",
                ("O", "Q1", "P1"),
            ),
        ]
        for k in range(1, N - 1):
            rows.append(
                HalfspaceRow(
                    f"x.(2k+1,-1,k(k+1)) <= 0 @k={k}",
                    np.array([2.0 * k + 1.0, -1.0, k * (k + 1.0)]),
                    0.0,
                    "le",
                    ("O", f"P{k}", f"P{k+1}"),
                )
            )
            a1 = k * (k + 1.0) * (2.0 * k + 1.0)
            b1 = g * (3.0 * k * k + 3.0 * k + 1.0)
            c1 = k * a1 + k * k * b1 - g3 * k**4.0
            rows.append(
                HalfspaceRow(
                    f"first-family facet @k={k}",
                    np.array([a1, b1, c1]),
                    g3,
                    "le",
                    (f"Q{k}", f"Q{k+1}", f"P{k}"),
                )
            )
            b2 = (g3 * ((k + 1.0) ** 4 - k**4.0) + (k + 1.0) ** 3) / (
                g3 * (2.0 * k + 1.0) + g * g * (k + 1.0)
            )
            a2 = (k + 1.0) ** 4 - k**4.0 - (2.0 * k + 1.0) * b2
            c2 = k * a2 + k * k * b2 - k**4.0
            rows.append(
                HalfspaceRow(
                    f"second-family facet @k={k}",
                    np.array([a2, b2, c2]),
                    1.0,
                    "le",
                    (f"P{k}", f"P{k+1}", f"Q{k+1}"),
                )
            )
        return rows

    def cone_set(self) -> GeneratedConeSet:
        N = self.trunc
        rays = tuple(point_p(n) for n in range(1, N + 1)) + tuple(
            point_q(n) for n in range(1, N + 1)
        )
        deep = tuple(np.array([float(n), float(n) ** 2, -1.0]) for n in _DEEP_TAIL)
        hull = (np.zeros(3),) + rays
        return GeneratedConeSet(
            base=np.zeros(3),
            rays=rays,
            limit_rays=(np.array([0.0, 1.0, 0.0]),),
            deep_rays=deep,
            hull_points=hull,
        )


@dataclass(frozen=True)
class Example2Problem:
    trunc: int
    problem: ProblemSpec
    geometry: Example2Set
    xbar: np.ndarray


def _section_sampler(trunc: int):
    """Feasible samples for the growth check: random convex combinations of
    the origin and the plane-section points R_{k,n}, rescaled into the ball.
    Every sample lies in the hull and satisfies x1 = 0 exactly."""

    verts = [np.zeros(3)] + [
        point_r(k, n) for k in range(1, trunc + 1) for n in range(1, trunc + 1)
    ]
    V = np.array(verts)

    def sampler(rng: np.random.Generator, center: np.ndarray, eps: float, count: int):
        out = []
        for _ in range(count):
            weights = rng.exponential(size=len(verts))
            weights /= weights.sum()
            x = weights @ V
            nrm = float(np.linalg.norm(x - center))
            if nrm > eps:
                x = center + (x - center) * (eps * rng.random() / nrm)
            out.append(x)
        return out

    return sampler


def build_example2(trunc: int) -> Example2Problem:
    """Problem over the truncated hull with m1 = 1 (the single constraint is
    the equality x1 = 0)."""

    if trunc < 2:
        raise UsageError("truncation must be at least 2")
    geometry = Example2Set(trunc=trunc, gamma=GAMMA, delta=DELTA)
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
        feasible_sampler=_section_sampler(trunc),
    )
    return Example2Problem(trunc=trunc, problem=problem, geometry=geometry, xbar=np.zeros(3))


# --------------------------------------------------------------------------
# Verification routines for the explicit formulas
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RowCheck:
    label: str
    satisfied: bool
    equality_exact: bool
    worst_slack: float
    worst_equality_residual: float


def verify_halfspace_representation(
    geometry: Example2Set, tol: float = 1e-10
) -> tuple[bool, list[RowCheck]]:
    """Every generated point satisfies every listed row, and exactly the
    annotated points lie on each boundary (both at the given tolerance)."""

    pts = geometry.points
    checks: list[RowCheck] = []
    for row in geometry.halfspace_rows():
        worst_slack = math.inf
        worst_eq = 0.0
        ok_sat = True
        ok_eq = True
        for name, x in pts.items():
            v = float(row.coef @ x)
            slack = row.rhs - v if row.sense == "le" else v - row.rhs
            worst_slack = min(worst_slack, slack)
            if slack < -tol:
                ok_sat = False
            if name in row.equality_points:
                worst_eq = max(worst_eq, abs(slack))
                if abs(slack) > tol:
                    ok_eq = False
            elif slack <= tol:
                ok_eq = False  # an unannotated point on the boundary
        checks.append(RowCheck(row.label, ok_sat, ok_eq, worst_slack, worst_eq))
    return all(c.satisfied and c.equality_exact for c in checks), checks


def verify_section_membership(
    geometry: Example2Set, k_max: int, n_max: int, tol: float = 1e-10
) -> tuple[bool, float, float]:
    """R_{k,n} lies under the parabola x3 <= -delta x2^2 for all k,n in
    range, with boundary equality exactly on the diagonal k = n.

    Returns (ok, worst membership residual, worst diagonal residual)."""

    if k_max < 2 or n_max < 2:
        raise UsageError("k_max and n_max must be at least 2")
    worst_member = -math.inf
    worst_diag = 0.0
    ok = True
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            x = point_r(k, n)
            resid = float(x[2] + geometry.delta * x[1] ** 2)  # must be <= 0
            worst_member = max(worst_member, resid)
            if resid > tol or x[1] < -tol:
                ok = False
            if k == n:
                worst_diag = max(worst_diag, abs(resid))
                if abs(resid) > tol:
                    ok = False
    return ok, worst_member, worst_diag


def verify_section_hull(
    geometry: Example2Set, samples: int = 200, seed: int = 0, tol: float = 1e-8
) -> bool:
    """Both containments between the plane section of the hull and the
    convex hull of the origin and the R_(k,n), at the given truncation.

    One direction is structural (each R_(k,n) lies on a generator segment
    and on the plane); the other is sampled: random plane points of the
    hull, built as plane crossings of segments between hull samples with
    opposite first coordinates, must lie in conv({O} u {R_(k,n)}).
    """

    N = geometry.trunc
    pts = geometry.points
    cone = geometry.cone_set()
    for k in range(1, N + 1):
        for n in range(1, N + 1):
            r = point_r(k, n)
            lam = 1.0 / (1.0 + (n / (k * GAMMA)) ** 3)
            on_segment = lam * point_p(k) + (1.0 - lam) * point_q(n)
            if abs(r[0]) > tol or float(np.max(np.abs(r - on_segment))) > tol:
                return False

    section_pts = tuple([np.zeros(3)] + [point_r(k, n)
                        for k in range(1, N + 1) for n in range(1, N + 1)])
    section = GeneratedConeSet(base=np.zeros(3), rays=(), hull_points=section_pts)
    gens = list(pts.values())
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < samples:
        wa = rng.exponential(size=len(gens))
        wb = rng.exponential(size=len(gens))
        a = (wa / wa.sum()) @ np.array(gens)
        b = (wb / wb.sum()) @ np.array(gens)
        if a[0] * b[0] >= 0:
            continue
        t = a[0] / (a[0] - b[0])
        x = a + t * (b - a)  # hull point with x1 = 0
        if not section.contains(x, tol):
            return False
        checked += 1
    return True


def verify_diagonal_inequality(k_max: int, n_max: int, rel_tol: float = 1e-9) -> bool:
    """(gamma^3 k^3 + n^3)/(gamma^3 + 1) - k (gamma k + n)^2/(gamma + 1)^2 >= 0,
    checked directly with a scale-relative slack."""

    g3 = GAMMA**3
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            lhs = (g3 * k**3 + n**3) / (g3 + 1.0)
            rhs = k * (GAMMA * k + n) ** 2 / (GAMMA + 1.0) ** 2
            if lhs - rhs < -rel_tol * max(1.0, abs(lhs), abs(rhs)):
                return False
    return True


def verify_matrix_property(
    n_samples: int = 10_000, seed: int = 0, grid_step: float = 1e-3
) -> tuple[bool, float, list[tuple[float, float]]]:
    """max(x.A1.x, x.A2.x) >= 0.5 ||x||^2 on the nonnegative quadrant
    (angular grid plus seeded random samples), while every convex
    combination B_l = l A1 + (1-l) A2 has a negative diagonal entry.

    Returns (ok, worst margin, [(l, negative diagonal entry)]).
    """

    from .example1 import MATRIX_A1, MATRIX_A2

    angles = np.arange(0.0, math.pi / 2.0 + grid_step, grid_step)
    xs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = np.random.default_rng(seed)
    xs = np.vstack([xs, np.abs(rng.standard_normal((n_samples, 2)))])
    q1 = np.einsum("ij,jk,ik->i", xs, MATRIX_A1, xs)
    q2 = np.einsum("ij,jk,ik->i", xs, MATRIX_A2, xs)
    norms2 = np.sum(xs * xs, axis=1)
    margins = np.maximum(q1, q2) - 0.5 * norms2
    worst = float(margins.min())
    ok = worst >= -1e-9

    combos: list[tuple[float, float]] = []
    for lam in np.arange(0.0, 1.0 + 1e-12, 0.05):
        B = lam * MATRIX_A1 + (1.0 - lam) * MATRIX_A2
        diag = min(B[0, 0], B[1, 1])
        combos.append((float(lam), float(diag)))
        if diag >= 0.0:
            ok = False
    return ok, worst, combos
