"""Shared generators for randomized tests: bounded polytopes, ray-based
cones, reverse-engineered stationary problems, problem files with many
multipliers, and two references: a brute-force NNLS and a box's critical
cone by its cut description."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from kkt2.cones import ZERO, CriticalCone, absorb_rows, tangent_cone_K, tangent_cone_box
from kkt2.linalg import PolytopeH
from kkt2.model import BoxSet, ProblemSpec, quadratic
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


def plain_critical_cone(p: ProblemSpec, mset, eta: float = 0.0,
                        constraint_rows: bool = True) -> CriticalCone:
    """A box's critical cone at the point of ``mset`` by its cut
    description: the tangent pattern cut by the active constraint rows (with
    ``constraint_rows``) and the objective, as the row f'(x).h <= 0 at
    eta = 0 or as the test f'(x).h <= eta ||h|| at eta > 0, with
    single-signed rows absorbed (``absorb_rows``).  At eta = 0 with
    constraint rows, ``critical_cone`` describes the same set by the
    annihilator rows of one multiplier."""
    krows = tangent_cone_K(p, mset.info)
    G = mset.g_grads
    eq = [G[i] for i in krows.eq] if constraint_rows else []
    ineq = [G[i] for i in krows.leq] if constraint_rows else []
    if eta == 0.0:
        ineq.append(mset.f_grad)
    pattern, eq_left, ineq_left = absorb_rows(tangent_cone_box(p.abstract_set, mset.x), eq,
                                              ineq, p.weights)
    zero = pattern.codes == ZERO
    return CriticalCone(p.weights, pattern, (), tuple(np.where(zero, 0.0, r) for r in eq_left),
                        tuple(np.where(zero, 0.0, r) for r in ineq_left),
                        mset.f_grad if eta > 0.0 else None, eta)
