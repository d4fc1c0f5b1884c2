"""Shared generators for randomized tests: bounded polytopes, ray-based
cones, reverse-engineered stationary problems, problem files with many
multipliers, and four references: a brute-force NNLS, row absorption into
a sign pattern, a box's critical cone by its cut description, and the growth
sampler's box path one try at a time."""

from __future__ import annotations

import itertools
import json
import math
from typing import Sequence

import numpy as np

from kkt2.cones import FREE, NONNEG, NONPOS, ZERO, CriticalCone, SignPatternCone
from kkt2.config import Tolerances
from kkt2.linalg import PolytopeH, weighted_norm
from kkt2.model import BoxSet, GeneratedConeSet, ProblemSpec, quadratic
from kkt2.problem_file import parse_problem


def random_bounded_polytope(rng: np.random.Generator, max_dim: int = 5) -> PolytopeH:
    """Random half-space cuts around a random interior point, plus box rows
    that force boundedness."""

    d = int(rng.integers(1, max_dim + 1))
    x0 = rng.uniform(-1.0, 1.0, d)
    rows = []
    for _ in range(int(rng.integers(d, 2 * d + 4))):
        a = rng.standard_normal(d)
        rows.append((a, float(a @ x0 + rng.uniform(0.1, 1.5))))
    bound = float(np.max(np.abs(x0))) + 2.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        rows.append((e, bound))
        rows.append((-e, bound))
    return PolytopeH(d, (), tuple(rows))


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
    rays = tuple(rng.standard_normal((int(rng.integers(1, 6)), n)))
    limit = tuple(rng.standard_normal((int(rng.integers(0, 2)), n)))
    deep = tuple(rng.standard_normal((int(rng.integers(0, 3)), n)))
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
    rays = [rng.standard_normal(n) + np.eye(n)[0] * 1.5 for _ in range(6 + seed % counts)]
    rows = [rng.standard_normal(n) for _ in range(1 + seed % 3)]
    return CriticalCone(np.ones(n), None, tuple(rays), (), tuple(rows), None, 0.0)


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
        cand = box.project(cand - coef @ dirs)
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
        cand = box.project(cand)
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
