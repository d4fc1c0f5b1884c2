"""Shared generators for randomized tests: bounded polytopes, ray-based
cones, reverse-engineered stationary problems, problem files with many
multipliers, and the references: an LP maximum by HiGHS, a brute-force
NNLS, row absorption into a sign pattern, a box's critical cone by its cut
description, the growth sampler's box path one try at a time, the curvature
descent one rung at a time, example2's section sampler one sample at a time,
example2's half-space and section formula checks one point at a time, and
the double description one row and one positive ray at a time."""

from __future__ import annotations

import itertools
import json
import math
from typing import Sequence

import numpy as np

from kkt2.cones import FREE, NONNEG, NONPOS, ZERO, CriticalCone, SignPatternCone, _land
from kkt2.config import SearchBudget, Tolerances
from kkt2.curvature import _Space, _candidate
from kkt2.examples.example1 import MATRIX_A1, MATRIX_A2
from kkt2.examples.example2 import DELTA, GAMMA
from kkt2 import linalg
from kkt2.errors import PolytopeTooLarge
from kkt2.linalg import PolytopeH, _unit_rows, row_dots, weighted_norm
from kkt2.model import BoxSet, GeneratedConeSet, ProblemSpec, quadratic
from kkt2.problem_file import parse_problem


def random_bounded_polytope(rng: np.random.Generator, max_dim: int = 5) -> PolytopeH:
    """Random half-space cuts around a random interior point, plus box rows
    that force boundedness."""

    d = int(rng.integers(1, max_dim + 1))
    x0 = rng.uniform(-1.0, 1.0, d)
    A = np.zeros((int(rng.integers(d, 2 * d + 4)), d))
    b = np.zeros(len(A))
    for i in range(len(A)):
        A[i] = rng.standard_normal(d)
        b[i] = A[i] @ x0 + rng.uniform(0.1, 1.5)
    box = np.kron(np.eye(d), [[1.0], [-1.0]])  # e_0, -e_0, e_1, -e_1, ...
    bound = float(np.max(np.abs(x0))) + 2.0
    return PolytopeH(np.vstack([A, box]), np.concatenate([b, np.full(2 * d, bound)]))


def highs_max(linprog, poly: PolytopeH, c: np.ndarray):
    """max c.mu over the rows of ``poly`` by scipy's ``linprog`` (HiGHS),
    an LP route independent of kkt2's: its result, whose ``-fun`` is the
    maximum."""
    k = poly.n_eq
    return linprog(-c, A_ub=poly.ineq_rows if len(poly.ineq_rows) else None,
                   b_ub=poly.b[k:] if len(poly.ineq_rows) else None,
                   A_eq=poly.eq_rows if k else None, b_eq=poly.b[:k] if k else None,
                   bounds=[(None, None)] * poly.dim, method="highs")


def random_stationary_problem(
    rng: np.random.Generator,
    max_dim: int = 4,
    max_constraints: int = 3,
    weights_one: bool = True,
):
    """A problem with a known stationary point.

    Active sets, multiplier signs, and the box pattern are drawn first; the
    objective's linear term is then chosen so the stationarity equation
    holds exactly at xbar with the drawn (lambda, mu).
    """

    n = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(0, max_constraints + 1))
    m1 = int(rng.integers(0, m + 1))
    weights = np.ones(n) if weights_one else rng.uniform(0.5, 2.0, n)
    xbar = rng.uniform(-1.0, 1.0, n)

    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lam = np.zeros(n)
    for j in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:  # lower-active
            lower[j] = xbar[j]
            upper[j] = xbar[j] + rng.uniform(0.5, 2.0)
            lam[j] = -abs(rng.standard_normal())
        elif kind == 1:  # upper-active
            upper[j] = xbar[j]
            lower[j] = xbar[j] - rng.uniform(0.5, 2.0)
            lam[j] = abs(rng.standard_normal())
        else:  # interior
            lower[j] = xbar[j] - rng.uniform(0.5, 2.0)
            upper[j] = xbar[j] + rng.uniform(0.5, 2.0)

    constraints = []
    mu = np.zeros(m)
    grads = []
    for i in range(m):
        M = rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        linear = rng.standard_normal(n)
        if i < m1:
            target = 0.0
            mu[i] = rng.standard_normal()
        else:
            active = rng.random() < 0.6
            target = 0.0 if active else -abs(rng.uniform(0.2, 1.0))
            mu[i] = abs(rng.standard_normal()) if active and rng.random() < 0.7 else 0.0
        constant = target - linear @ xbar - 0.5 * xbar @ M @ xbar
        constraints.append(quadratic(constant, linear, M, weights, name=f"g{i}"))
        grads.append((linear + M @ xbar) / weights)

    Mf = rng.standard_normal((n, n))
    Mf = 0.5 * (Mf + Mf.T)
    # f'(xbar) = -lam - sum mu_i g_i'(xbar): back out the linear term
    fgrad = -lam - sum(mu[i] * grads[i] for i in range(m)) if m else -lam
    linear_f = weights * fgrad - Mf @ xbar
    objective = quadratic(0.0, linear_f, Mf, weights, name="f")

    spec = ProblemSpec(objective, tuple(constraints), m1,
                       BoxSet(lower, upper), weights)
    return spec, xbar, lam, mu


def random_hull(seed):
    """A seeded hull problem at its base point with up to three linear
    constraints, some of them zero or inactive."""
    rng = np.random.default_rng(1000 + seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    m1 = int(rng.integers(0, m + 1))
    w = np.ones(n) if seed % 2 else rng.uniform(0.5, 2.0, n)
    rays = rng.standard_normal((int(rng.integers(1, 6)), n))
    limit = rng.standard_normal((int(rng.integers(0, 2)), n))
    deep = rng.standard_normal((int(rng.integers(0, 3)), n))
    cons, grads, mu = [], [], np.zeros(m)
    for i in range(m):
        lin = rng.standard_normal(n) if rng.random() >= 0.2 else np.zeros(n)
        active = i < m1 or rng.random() < 0.7
        cons.append(quadratic(0.0 if active else -0.5, lin, np.zeros((n, n)), w))
        grads.append(lin / w)
        if i < m1:
            mu[i] = rng.standard_normal()
        elif active and rng.random() < 0.7:
            mu[i] = abs(rng.standard_normal())
    f_grad = -sum(mu[i] * grads[i] for i in range(m))
    objective = quadratic(0.0, w * f_grad, np.eye(n), w)
    return ProblemSpec(objective, tuple(cons), m1,
                       GeneratedConeSet(np.zeros(n), rays, limit, deep), w)


def many_multiplier_problem(
    rng: np.random.Generator, n: int, m: int, n_lower: int, rank: int, scale: float
) -> tuple[dict, list[float]]:
    """A box problem file and its point, with a bounded multiplier polytope
    of dimension up to m - rank.

    All m inequalities are active with positive multipliers, and the last
    n_lower coordinates sit at their lower bounds with lambda < 0.  On the
    other coordinates the constraint gradients have rank ``rank`` and size
    ``scale``.  The objective Hessian is I + PSD and the constraint Hessians
    are PSD, so q(h) >= ||h||^2 on every direction.
    """
    nf = n - n_lower
    x = np.concatenate([rng.uniform(-1.0, 1.0, nf), np.zeros(n_lower)])
    A = rng.standard_normal((m, rank))
    A[:, 0] = rng.uniform(0.5, 1.5, m)  # keeps the polytope bounded
    G = np.hstack([A @ (scale * rng.standard_normal((rank, nf))),
                   rng.standard_normal((m, n_lower))])
    f_grad = -G.T @ rng.uniform(0.5, 1.5, m)
    f_grad[nf:] += rng.uniform(0.5, 1.5, n_lower)

    def psd(size):
        L = rng.standard_normal((n, n)) * size / math.sqrt(n)
        return L @ L.T

    def quadratic_entry(grad, H, active):
        linear = grad - H @ x
        constant = -(linear @ x + 0.5 * x @ H @ x) if active else 0.0
        return {"constant": float(constant), "linear": linear.tolist(),
                "quadratic": [[i, j, float(H[i, j])] for i in range(n) for j in range(n)]}

    problem = {
        "dimension": n,
        "box": {"lower": [-5.0] * nf + [0.0] * n_lower, "upper": [5.0] * n},
        "objective": quadratic_entry(f_grad, np.eye(n) + psd(0.5), False),
        "constraints": [quadratic_entry(G[i], psd(0.3), True) for i in range(m)],
        "m1": 0,
    }
    return problem, x.tolist()


def many_multiplier_spec(seed: int, n=24, m=8, n_lower=6, rank=3, scale=0.01):
    """``many_multiplier_problem`` from a seed, parsed: (ProblemSpec, point).
    The defaults are the shape of the many-multiplier benchmark problems."""
    problem, point = many_multiplier_problem(np.random.default_rng(seed), n, m, n_lower,
                                             rank, scale)
    return parse_problem(json.dumps(problem)).build()[0], np.array(point)


def random_ray_cone(seed: int, dims: int = 2, counts: int = 5) -> CriticalCone:
    """A seeded ray-based cone in R^3..R^(2 + dims) with 6..(5 + counts)
    rays, cut by one to three inequality rows, without an objective cut."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % dims
    rays = np.array([rng.standard_normal(n) + np.eye(n)[0] * 1.5
                     for _ in range(6 + seed % counts)])
    rows = np.array([rng.standard_normal(n) for _ in range(1 + seed % 3)])
    return CriticalCone(np.ones(n), None, rays, (), rows, None, 0.0)


def brute_force_nnls(A, b) -> float:
    """min ||A c - b|| over c >= 0, by enumeration: least squares on every
    set of at most rank(A) columns, kept when its coefficients are
    nonnegative.  Some optimum has linearly independent support columns
    (Caratheodory), so the best kept residual is the minimum."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    n = A.shape[1]
    best = float(np.linalg.norm(b))
    for size in range(1, (np.linalg.matrix_rank(A) if n else 0) + 1):
        for support in itertools.combinations(range(n), size):
            cols = A[:, list(support)]
            c = np.linalg.lstsq(cols, b, rcond=None)[0]
            if np.all(c >= -1e-12):
                best = min(best, float(np.linalg.norm(cols @ c - b)))
    return best


def absorb_rows(
    pattern: SignPatternCone,
    eq_rows: Sequence[np.ndarray],
    ineq_rows: Sequence[np.ndarray],
) -> tuple[SignPatternCone, list[np.ndarray], list[np.ndarray]]:
    """Fold rows whose terms are single-signed on the pattern into the pattern.

    A row <r, h>_w <= 0 whose nonzero terms w_i r_i h_i are all >= 0 on the
    cone holds iff every term vanishes, i.e. h_i = 0 on the row support; the
    row disappears and those components become =0.  The weights are
    positive, so the term signs need only the row and the pattern.
    Equality rows absorb when the terms are single-signed in either
    direction.  Iterates to a fixed point, since zeroing components can
    unlock further rows.
    """

    codes = np.array(pattern.codes, dtype=np.int8)
    pending: list[tuple[np.ndarray, bool]] = [(np.asarray(r, dtype=float), True) for r in eq_rows]
    pending += [(np.asarray(r, dtype=float), False) for r in ineq_rows]

    def term_signs(r):
        signs = []
        support = []
        for i in np.nonzero(np.abs(r) > 1e-14)[0]:
            c = codes[i]
            if c == ZERO:
                continue
            if c == FREE:
                return None, None
            s = 1.0 if ((r[i] > 0) == (c == NONNEG)) else -1.0
            signs.append(s)
            support.append(i)
        return signs, support

    changed = True
    while changed:
        changed = False
        remaining: list[tuple[np.ndarray, bool]] = []
        for r, is_eq in pending:
            signs, support = term_signs(r)
            if signs is None:
                remaining.append((r, is_eq))
                continue
            if not support:
                continue  # row already implied by the pattern
            same_sign = all(s > 0 for s in signs) or (is_eq and all(s < 0 for s in signs))
            if same_sign:
                codes[support] = ZERO
                changed = True
            else:
                remaining.append((r, is_eq))
        pending = remaining

    eq_left = [r for r, is_eq in pending if is_eq]
    ineq_left = [r for r, is_eq in pending if not is_eq]
    return SignPatternCone(codes), eq_left, ineq_left


def plain_critical_cone(mset, eta: float = 0.0, constraint_rows: bool = True) -> CriticalCone:
    """A box's critical cone at the point of ``mset`` by its cut
    description: the tangent pattern cut by the active constraint rows (with
    ``constraint_rows``) and the objective, as the row f'(x).h <= 0 at
    eta = 0 or as the test f'(x).h <= eta ||h|| at eta > 0, with
    single-signed rows absorbed (``absorb_rows``).  At eta = 0 with
    constraint rows, ``critical_cone`` describes the same set by the
    annihilator rows of one multiplier."""
    p, codes, G = mset.problem, mset.k_pattern.codes, mset.g_grads
    eq = [G[i] for i in np.flatnonzero(codes == ZERO)] if constraint_rows else []
    ineq = [G[i] for i in np.flatnonzero(codes == NONPOS)] if constraint_rows else []
    if eta == 0.0:
        ineq.append(mset.f_grad)
    pattern, eq_left, ineq_left = absorb_rows(mset.c_pattern, eq, ineq)
    zero = pattern.codes == ZERO
    return CriticalCone(p.weights, pattern, (), tuple(np.where(zero, 0.0, r) for r in eq_left),
                        tuple(np.where(zero, 0.0, r) for r in ineq_left),
                        mset.f_grad if eta > 0.0 else None, eta)


def _correct_equalities_per_try(
    p: ProblemSpec, box: BoxSet, cand: np.ndarray, grads: np.ndarray,
) -> np.ndarray:
    """Chord-Newton steps onto g_i = 0 (i < m1) that move only the
    coordinates of cand off the box bounds (the free-variable step of
    projected Newton methods).  ``grads`` holds the equality gradients at the
    base point, one row each; step directions are these rows with the bound
    coordinates zeroed, so the projection cannot undo the step."""

    eqs = p.constraints[:p.m1]
    for _ in range(8):
        gval = np.array([g.value(cand) for g in eqs])
        if np.max(np.abs(gval)) <= 1e-13:
            break
        dirs = np.where((cand == box.lower) | (cand == box.upper), 0.0, grads)
        jac = (np.array([g.gradient(cand) for g in eqs]) * p.weights) @ dirs.T
        if not abs(np.linalg.det(jac)) >= 1e-14:
            break  # singular or non-finite Jacobian
        coef = np.linalg.solve(jac, gval)
        if not np.all(np.isfinite(coef)):
            break
        cand = np.clip(cand - coef @ dirs, box.lower, box.upper)
    return cand


def box_samples_per_try(
    p: ProblemSpec, x: np.ndarray, eps: float, count: int, rng: np.random.Generator,
    tol: Tolerances,
) -> tuple[list[np.ndarray], int]:
    """The growth sampler's box path one try at a time, through the per-point
    ``value`` and ``gradient``: the reference of ``_box_feasible_samples``.
    Feasible points in the eps-ball around x and the number of tries."""
    assert isinstance(p.abstract_set, BoxSet)
    box = p.abstract_set
    out: list[np.ndarray] = []
    m1 = p.m1
    grads = np.array([g.gradient(x) for g in p.constraints[:m1]], dtype=float)
    tries = 0
    while len(out) < count and tries < 40 * count:
        tries += 1
        step = rng.standard_normal(p.dim)
        nrm = weighted_norm(p.weights, step)
        if nrm <= 0:
            continue
        cand = x + step * (eps * rng.random() / nrm)
        cand = np.clip(cand, box.lower, box.upper)
        if m1:
            cand = _correct_equalities_per_try(p, box, cand, grads)
        gvals = p.constraint_values(cand) if p.n_constraints else np.zeros(0)
        ok = all(abs(gvals[i]) <= tol.residual for i in range(m1))
        ok = ok and all(gvals[i] <= tol.residual for i in range(m1, p.n_constraints))
        ok = ok and box.contains(cand, tol.activity)
        ok = ok and weighted_norm(p.weights, cand - x) <= eps * (1.0 + 1e-9)
        if ok:
            out.append(cand)
    return out, tries


def growth_margins_per_sample(p: ProblemSpec, x: np.ndarray, samples, alpha: float) -> list[float]:
    """The quadratic growth margins f(s) - f(x) - alpha/2 ||s - x||^2, one
    sample at a time through the per-point ``value``."""
    f0 = p.objective.value(x)
    return [p.objective.value(s) - f0 - 0.5 * alpha * p.norm(s - x) ** 2 for s in samples]


def constraint_quads(mset, h: np.ndarray) -> np.ndarray:
    """g_i''(x)h^2, one entry per constraint of ``mset``."""
    return np.array([form.quad(h) for form in mset.g_forms])


def into_cone(cone: CriticalCone, h: np.ndarray):
    """The one-row case of ``cones._land``: h landed in a pattern cone, None
    if it fails."""
    V, ok = _land(cone, np.asarray(h, dtype=float)[None])
    return V[0] if ok[0] else None


def assert_close(batched, scalar) -> None:
    """Same shape, and every entry within 1e-12 of the reference relative
    to max(1, |reference|)."""
    scalar = np.asarray(scalar, dtype=float)
    assert batched.shape == scalar.shape
    assert np.all(np.abs(batched - scalar) <= 1e-12 * np.maximum(1.0, np.abs(scalar)))


def ambient_space(mset, weights: np.ndarray) -> _Space:
    """The ambient search space of ``mset``'s forms with norm ``weights``:
    the space of R^n, a cone without rows, with no reduced forms."""
    free = SignPatternCone(np.full(len(weights), FREE))
    return _Space(mset, CriticalCone(np.asarray(weights, dtype=float), free, (), (), (), None, 0.0))


def descend_per_rung(space: _Space, start: np.ndarray, budget: SearchBudget,
                     mus: np.ndarray) -> tuple[list, int]:
    """The curvature descent one rung at a time in the rows of ``space``,
    each through a one-row ``_Space.land`` and ``curvature._candidate`` over
    ``mus``: the reference of ``curvature._descend``.  The accepted
    candidates in order and the number of rungs tried."""
    if space.cone.base_pattern is None:
        return [], 0
    x = space.rows(start[None])[0]
    cur = _candidate(space, x / weighted_norm(space.w, x), mus)
    grad = space.gradient(cur)
    if grad is None:
        return [], 0
    visited = []
    step = 0.5
    rungs = 0
    for _ in range(budget.descent_steps):
        rungs += 1
        V, ok = space.land((cur.h - step * grad)[None])
        if not ok[0]:
            step *= 0.5
            if step < 1e-8:
                break
            continue
        nrm = weighted_norm(space.w, V[0])
        if nrm <= 1e-12:
            step *= 0.5
            continue
        trial = _candidate(space, V[0] / nrm, mus)
        if trial.value < cur.value - 1e-14:
            cur = trial
            visited.append(cur)
            grad = space.gradient(cur)
            if grad is None:
                break
            step = min(step * 1.5, 1.0)
        else:
            step *= 0.5
            if step < 1e-8:
                break
    return visited, rungs


def point_r_scalar(k: int, n: int) -> np.ndarray:
    """R_{k,n} by the scalar formula: the intersection of the segment
    P_k -- Q_n with the plane x1 = 0."""
    lam = 1.0 / (1.0 + (n / (k * GAMMA)) ** 3)
    return np.array(
        [0.0, lam * k**-2.0 + (1.0 - lam) * (n / GAMMA) ** -2.0, -lam * k**-4.0]
    )


def section_sampler_per_sample(trunc: int):
    """The hull sampler on example2 one sample at a time: the reference of
    ``curvature._hull_feasible_samples`` over the section points O and
    R_{k,n}, with the same distribution but the draws in another order (each
    sample's weights, then its radius if it needs one)."""

    verts = [np.zeros(3)] + [
        point_r_scalar(k, n) for k in range(1, trunc + 1) for n in range(1, trunc + 1)
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


def halfspace_checks_per_point(rows: linalg.PolytopeH, on: np.ndarray, points: np.ndarray,
                               tol: float = 1e-10):
    """``example2.verify_halfspace_representation`` one row and one point at
    a time, each slack compared relative to the termwise size of its dot
    product."""

    satisfied, exact, worst_slack, worst_eq = [], [], [], []
    for a, b, on_row in zip(rows.A, rows.b, on):
        ws, we, ok_sat, ok_eq = math.inf, 0.0, True, True
        for x, on_boundary in zip(points, on_row):
            slack = b - float(a @ x)
            size = float(np.sum(np.abs(a * x))) + abs(b)
            rel = slack / size if size > 0.0 else 0.0
            ws = min(ws, slack)
            if rel < -tol:
                ok_sat = False
            if on_boundary:
                we = max(we, abs(slack))
                if abs(rel) > tol:
                    ok_eq = False
            elif rel <= tol:
                ok_eq = False  # an unannotated point on the boundary
        satisfied.append(ok_sat)
        exact.append(ok_eq)
        worst_slack.append(ws)
        worst_eq.append(we)
    return (all(satisfied) and all(exact), np.array(satisfied), np.array(exact),
            np.array(worst_slack), np.array(worst_eq))


def section_membership_per_point(
    k_max: int, n_max: int, tol: float = 1e-10, delta: float = DELTA
) -> tuple[bool, float, float]:
    """``example2.verify_section_membership`` one point R_{k,n} at a time,
    through the scalar formulas: the parabola and the diagonal inequality."""

    worst_member = -math.inf
    worst_diag = 0.0
    ok = True
    g3 = GAMMA**3
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            x = point_r_scalar(k, n)
            resid = float(x[2] + delta * x[1] ** 2)  # must be <= 0
            worst_member = max(worst_member, resid)
            if resid > tol or x[1] < -tol:
                ok = False
            if k == n:
                worst_diag = max(worst_diag, abs(resid))
                if abs(resid) > tol:
                    ok = False
            lhs = (g3 * k**3 + n**3) / (g3 + 1.0)
            rhs = k * (GAMMA * k + n) ** 2 / (GAMMA + 1.0) ** 2
            if lhs - rhs < -tol * max(lhs, rhs):
                ok = False
    return ok, worst_member, worst_diag


def double_description_per_pair(dim: int, eq, ineq, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``linalg._double_description`` one row at a time: each row scaled and
    checked for a repeat as it comes, the applied inequality rows re-stacked
    after each row, and the adjacency test run for one positive ray and all
    negative ones at a time, with the guard (``linalg._MAX_GENERATORS``, read
    at call time) checked after each positive ray."""

    L, R, done = np.eye(dim), np.zeros((0, dim)), np.zeros((0, dim))
    seen: set[tuple[bool, bytes]] = set()
    for a, is_eq in [*((a, True) for a in eq), *((a, False) for a in ineq)]:
        if not (len(L) or len(R)):
            break  # the cone is {0}
        if not np.any(a):
            continue
        a = a / np.max(np.abs(a))
        key = (is_eq, a.tobytes())  # a -0.0 entry only hides a repeat
        if key in seen:
            continue
        seen.add(key)
        sl = L @ a
        j = int(np.argmax(np.abs(sl))) if len(sl) else -1
        if j >= 0 and abs(sl[j]) > tol:
            d = -np.sign(sl[j]) * L[j]  # a.d < 0
            L = _unit_rows(np.delete(L - np.outer(sl / sl[j], L[j]), j, axis=0))
            if not is_eq:  # equalities come first, while there are no rays
                R = _unit_rows(np.vstack([R - np.outer(R @ a / (a @ d), d), d]))
        elif not is_eq:
            s = R @ a
            pos, neg, new = np.flatnonzero(s > tol), np.flatnonzero(s < -tol), []
            kept = int(np.sum(s <= tol))
            limit = linalg._MAX_GENERATORS
            if (kept + len(pos) * len(neg) > limit and not len(L)
                    and np.linalg.matrix_rank(R) == len(R)):
                raise PolytopeTooLarge(f"the cone would have over {limit} rays")
            Z = np.abs(R @ done.T) <= tol  # Z[r, k]: ray r is tight on inequality k
            missing = (~Z).T.astype(float)
            for p in pos:
                n = neg[(((Z[p] & Z[neg]) @ missing) == 0).sum(axis=1) == 2]  # only p and n
                new.append(s[p] * R[n] - s[n, None] * R[p])
                if kept + sum(map(len, new)) > limit:
                    raise PolytopeTooLarge(f"the cone would have over {limit} rays")
            R = _unit_rows(np.vstack([R[s <= tol], *new]))
        if not is_eq:
            done = np.vstack([done, a])
        support = np.flatnonzero(a)
        if len(support) == 1:
            L[:, support[0]] = 0.0
            R[np.abs(R @ a) <= tol, support[0]] = 0.0
    return L, R


def verify_matrix_property(n_samples: int = 10_000, seed: int = 0, grid_step: float = 1e-3
                           ) -> tuple[bool, float, np.ndarray]:
    """Example1's matrices: max(x.A1.x, x.A2.x) >= 0.5 ||x||^2 on the
    nonnegative quadrant (angular grid plus seeded random samples), while every convex
    combination B_l = l A1 + (1-l) A2, l = 0, 0.05, ..., 1, has a negative
    diagonal entry.

    Returns (ok, worst margin, rows (l, smallest diagonal entry of B_l))."""

    angles = np.arange(0.0, np.pi / 2.0 + grid_step, grid_step)
    xs = np.vstack([np.stack([np.cos(angles), np.sin(angles)], axis=1),
                    np.abs(np.random.default_rng(seed).standard_normal((n_samples, 2)))])
    q1, q2 = row_dots(xs @ MATRIX_A1, xs), row_dots(xs @ MATRIX_A2, xs)
    worst = float(np.min(np.maximum(q1, q2) - 0.5 * row_dots(xs, xs)))
    lam = np.linspace(0.0, 1.0, 21)[:, None, None]
    B = lam * MATRIX_A1 + (1.0 - lam) * MATRIX_A2
    combos = np.column_stack([lam.ravel(), np.minimum(B[:, 0, 0], B[:, 1, 1])])
    return worst >= -1e-9 and bool(np.all(combos[:, 1] < 0.0)), worst, combos
