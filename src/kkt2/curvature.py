"""Second-order certification via the maximized Lagrangian Hessian.

q(h) = f''(x)h^2 + sup over multiplier vertices of sum_i mu_i g_i''(x)h^2 is
evaluated exactly (a linear functional over a polytope attains its sup at a
vertex; an LP cross-check is kept as an independent route).  Minimizing q
over a cone-intersect-sphere is nonconvex, so the necessary/sufficient
checks are falsifiers with a documented heuristic search: structured
directions, seeded random cone samples, and a projected subgradient
refinement.  A negative certificate (witness) is exact and replayable; a
nonnegative verdict is a sampled certificate, labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_BUDGET, DEFAULT_TOLERANCES, SearchBudget, Tolerances
from .cones import CriticalCone, critical_cone, into_cone, random_directions, structured_directions
from .errors import EmptyMultiplierSet, UnboundedMultiplierSet, UsageError
from .kkt import MultiplierSet, validate_multipliers
from .linalg import BilinearForm, LinearProgram, solve_lp, weighted_norm
from .model import BoxSet, ProblemSpec, as_entries


@dataclass(frozen=True)
class CurvatureOracle:
    """f''(x), the constraint Hessians, and the multiplier vertices."""

    weights: np.ndarray
    f_form: BilinearForm
    g_forms: tuple[BilinearForm, ...]
    mset: MultiplierSet

    @property
    def m(self) -> int:
        return len(self.g_forms)

    def constraint_quads(self, h: np.ndarray) -> np.ndarray:
        return np.array([form.quad(h) for form in self.g_forms])

    def fixed_mu_value(self, h: np.ndarray, mu: np.ndarray) -> float:
        base = self.f_form.quad(h)
        if self.m:
            base += float(np.asarray(mu) @ self.constraint_quads(h))
        return base

    def subgradient(self, h: np.ndarray, mu: np.ndarray) -> Optional[np.ndarray]:
        """Riesz gradient of h -> L''(x, ., mu) h^2, if the forms support it."""
        if self.f_form.apply is None or any(g.apply is None for g in self.g_forms):
            return None
        grad = 2.0 * np.asarray(self.f_form.apply(h), dtype=float)
        for mu_i, g in zip(mu, self.g_forms):
            if mu_i != 0.0:
                grad += 2.0 * mu_i * np.asarray(g.apply(h), dtype=float)
        return grad


def curvature_oracle(p: ProblemSpec, x, mset: MultiplierSet) -> CurvatureOracle:
    v = as_entries(x, p.dim)
    f_form = p.objective.hessian(v)
    g_forms = tuple(c.hessian(v) for c in p.constraints)
    return CurvatureOracle(p.weights, f_form, g_forms, mset)


def q_of_h(oracle: CurvatureOracle, h) -> tuple[float, np.ndarray]:
    """Maximized Lagrangian Hessian at h with a maximizing vertex."""

    hv = np.asarray(h, dtype=float)
    mset = oracle.mset
    if mset.empty:
        raise EmptyMultiplierSet("q(h) needs a nonempty multiplier set")
    if not mset.bounded:
        raise UnboundedMultiplierSet("q(h) needs a bounded multiplier set")
    base = oracle.f_form.quad(hv)
    if oracle.m == 0:
        return base, np.zeros(0)
    if not mset.vertices:
        raise EmptyMultiplierSet("multiplier polytope has no enumerated vertices")
    s = oracle.constraint_quads(hv)
    values = [float(np.asarray(mu) @ s) for mu in mset.vertices]
    best = int(np.argmax(values))
    return base + values[best], np.asarray(mset.vertices[best])


def q_of_h_lp(oracle: CurvatureOracle, h) -> float:
    """Independent route: maximize the linear functional over the polytope by
    LP instead of vertex enumeration."""

    hv = np.asarray(h, dtype=float)
    base = oracle.f_form.quad(hv)
    if oracle.m == 0:
        return base
    s = oracle.constraint_quads(hv)
    poly = oracle.mset.polytope
    res = solve_lp(LinearProgram(s, poly.eq_rows, poly.ineq_rows, sense="max"))
    if not res.is_optimal or res.value is None:
        raise UnboundedMultiplierSet("sup over the multiplier polytope did not solve")
    return base + res.value


@dataclass(frozen=True)
class SecondOrderVerdict:
    kind: str  # snc_holds | snc_violated | ssc_holds | ssc_violated
    witness: Optional[np.ndarray]
    witness_value: Optional[float]
    witness_normalized: Optional[float]
    witness_mu: Optional[np.ndarray]
    sampled_min: float
    directions_evaluated: int
    alpha_est: Optional[float] = None
    hypotheses: tuple[str, ...] = ()
    positivity_consistent: Optional[bool] = None
    section_generators: Optional[int] = None  # ray-based cones only

    @property
    def violated(self) -> bool:
        return self.kind.endswith("violated")

    @property
    def exact(self) -> bool:
        """The searched cone is a single ray (or only the origin), so the
        battery evaluated all of it."""
        return self.section_generators is not None and self.section_generators <= 1


def _section_size(cone: CriticalCone) -> Optional[int]:
    return len(cone.generators) if cone.base_pattern is None else None


def _battery(
    cone: CriticalCone, budget: SearchBudget
) -> list[tuple[np.ndarray, bool]]:
    """(direction, is_structured) candidates; structured ones keep their
    canonical scaling, random ones are unit norm.  Cached per cone, keyed by
    the budget, so repeated searches over one cone reuse the directions
    (generation is seeded, so this does not change any result)."""

    key = (budget.seed, budget.structured, budget.random)
    cache = cone._battery_cache
    if key not in cache:
        rng = np.random.default_rng(budget.seed)
        out = [(h, True) for h in structured_directions(cone, budget.structured)]
        # top the battery up to the full budget with random members
        n_random = budget.structured + budget.random - len(out)
        out += [(h, False) for h in random_directions(cone, n_random, rng)]
        cache[key] = out
    return cache[key]


def _descend(
    oracle: CurvatureOracle,
    cone: CriticalCone,
    start: np.ndarray,
    mu_for: "callable",
    budget: SearchBudget,
) -> list[np.ndarray]:
    """Projected subgradient refinement of the normalized form value."""

    if cone.base_pattern is None:
        return []
    w = cone.weights
    h = start / weighted_norm(w, start)
    mu = mu_for(h)
    grad = oracle.subgradient(h, mu)
    if grad is None:
        return []
    visited = []
    step = 0.5
    value = oracle.fixed_mu_value(h, mu)
    for _ in range(budget.descent_steps):
        cand = into_cone(cone, h - step * grad)
        if cand is None:
            step *= 0.5
            if step < 1e-8:
                break
            continue
        nrm = weighted_norm(w, cand)
        if nrm <= 1e-12:
            step *= 0.5
            continue
        cand = cand / nrm
        mu_c = mu_for(cand)
        val_c = oracle.fixed_mu_value(cand, mu_c)
        if val_c < value - 1e-14:
            h, value, mu = cand, val_c, mu_c
            visited.append(h)
            grad = oracle.subgradient(h, mu)
            if grad is None:
                break
            step = min(step * 1.5, 1.0)
        else:
            step *= 0.5
            if step < 1e-8:
                break
    return visited


@dataclass
class _Candidate:
    h: np.ndarray
    value: float
    normalized: float
    mu: np.ndarray
    structured: bool


def _search_min(
    oracle: CurvatureOracle,
    cone: CriticalCone,
    eval_fn: "callable",
    budget: SearchBudget,
) -> tuple[list[_Candidate], Optional[_Candidate]]:
    """eval_fn(h) -> (form value, multiplier used); one evaluation per
    candidate direction."""

    w = cone.weights
    cands: list[_Candidate] = []
    for h, structured in _battery(cone, budget):
        n2 = float(np.sum(w * h * h))
        if n2 <= 1e-20:
            continue
        val, mu = eval_fn(h)
        cands.append(_Candidate(h, val, val / n2, mu, structured))
    if cands:
        best = min(cands, key=lambda c: c.normalized)
        mu_for = lambda h: eval_fn(h)[1]
        for h in _descend(oracle, cone, best.h, mu_for, budget):
            val, mu = eval_fn(h)
            n2 = float(np.sum(w * h * h))
            cands.append(_Candidate(h, val, val / n2, mu, False))
    if not cands:
        return [], None
    best_norm = min(c.normalized for c in cands)
    # prefer a canonically scaled structured witness when it ties the best
    witness = None
    for c in cands:
        if c.structured and c.normalized <= best_norm + 1e-9:
            witness = c
            break
    if witness is None:
        witness = min(cands, key=lambda c: c.normalized)
    return cands, witness


def check_snc(
    p: ProblemSpec,
    x,
    mset: MultiplierSet,
    cone: Optional[CriticalCone] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: Tolerances = DEFAULT_TOLERANCES,
    hypotheses: tuple[str, ...] = (),
) -> SecondOrderVerdict:
    """Search the critical cone for directions with q(h) < 0.

    A violation witness is exact; the 'holds' verdict is the sampled minimum
    over the battery (heuristic certificate)."""

    v = as_entries(x, p.dim)
    oracle = curvature_oracle(p, v, mset)
    if cone is None:
        cone = critical_cone(p, v, 0.0, tol=tol)

    cands, witness = _search_min(oracle, cone, lambda h: q_of_h(oracle, h), budget)
    section = _section_size(cone)
    if witness is None:
        return SecondOrderVerdict("snc_holds", None, None, None, None,
                                  sampled_min=math.inf, directions_evaluated=0,
                                  hypotheses=hypotheses, section_generators=section)
    best_norm = min(c.normalized for c in cands)
    if best_norm < -tol.violation:
        return SecondOrderVerdict(
            "snc_violated", witness.h, witness.value, witness.normalized,
            witness.mu, sampled_min=best_norm,
            directions_evaluated=len(cands), hypotheses=hypotheses,
            section_generators=section,
        )
    return SecondOrderVerdict(
        "snc_holds", None, None, None, None, sampled_min=best_norm,
        directions_evaluated=len(cands), hypotheses=hypotheses, section_generators=section,
    )


def check_snc_fixed_multiplier(
    p: ProblemSpec,
    x,
    mu,
    mset: MultiplierSet,
    cone: Optional[CriticalCone] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SecondOrderVerdict:
    """Same search over a single multiplier's quadratic form instead of the
    maximized one.  Used to demonstrate that fixing one multiplier can leave
    negative curvature on the critical cone even when the maximized form is
    coercive."""

    v = as_entries(x, p.dim)
    mu = np.asarray(mu, dtype=float)
    if not mset.contains_mu(mu, tol):
        raise UsageError("mu is not in the multiplier set")
    validate_multipliers(p, v, mset.multipliers(mu), tol)
    oracle = curvature_oracle(p, v, mset)
    if cone is None:
        cone = critical_cone(p, v, 0.0, tol=tol)

    cands, witness = _search_min(
        oracle, cone, lambda h: (oracle.fixed_mu_value(h, mu), mu), budget
    )
    best_norm = min((c.normalized for c in cands), default=math.inf)
    if witness is not None and best_norm < -tol.violation:
        return SecondOrderVerdict(
            "snc_violated", witness.h, witness.value, witness.normalized, mu,
            sampled_min=best_norm, directions_evaluated=len(cands),
        )
    return SecondOrderVerdict(
        "snc_holds", None, None, None, mu, sampled_min=best_norm,
        directions_evaluated=len(cands),
    )


def check_ssc(
    p: ProblemSpec,
    x,
    mset: MultiplierSet,
    eta: float,
    alpha_target: float,
    budget: SearchBudget = DEFAULT_BUDGET,
    tol: Tolerances = DEFAULT_TOLERANCES,
    hypotheses: tuple[str, ...] = (),
) -> SecondOrderVerdict:
    """Estimate the coercivity constant of q over the extended critical cone
    and compare with the target; also cross-checks that strict positivity on
    the eta = 0 cone agrees with the coercivity verdict (they are equivalent
    in finite dimensions)."""

    if eta <= 0:
        raise UsageError("the extended critical cone needs eta > 0")
    v = as_entries(x, p.dim)
    oracle = curvature_oracle(p, v, mset)
    cone_eta = critical_cone(p, v, eta, tol=tol)
    eval_fn = lambda h: q_of_h(oracle, h)

    cands, witness = _search_min(oracle, cone_eta, eval_fn, budget)
    alpha_est = min((c.normalized for c in cands), default=math.inf)

    cone_zero = critical_cone(p, v, 0.0, tol=tol)
    cands0, _ = _search_min(oracle, cone_zero, eval_fn, budget)
    min_zero = min((c.normalized for c in cands0), default=math.inf)
    consistent = (min_zero > 0) == (alpha_est > 0)

    section = _section_size(cone_eta)
    if alpha_est >= alpha_target - tol.alpha_slack:
        return SecondOrderVerdict(
            "ssc_holds", None, None, None, None, sampled_min=alpha_est,
            directions_evaluated=len(cands), alpha_est=alpha_est,
            hypotheses=hypotheses, positivity_consistent=consistent,
            section_generators=section,
        )
    assert witness is not None
    return SecondOrderVerdict(
        "ssc_violated", witness.h, witness.value, witness.normalized,
        witness.mu, sampled_min=alpha_est,
        directions_evaluated=len(cands), alpha_est=alpha_est,
        hypotheses=hypotheses, positivity_consistent=consistent,
        section_generators=section,
    )


# --------------------------------------------------------------------------
# Quadratic-growth sampling
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthSampleResult:
    consistent: bool
    samples_accepted: int
    worst_margin: float
    counterexample: Optional[np.ndarray]
    note: str = ""
    # Candidate points drawn: box tries, or the count asked of the problem's
    # own feasible sampler.
    tries: int = 0


def _correct_equalities(
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


def _box_feasible_samples(
    p: ProblemSpec, x: np.ndarray, eps: float, count: int, rng: np.random.Generator,
    tol: Tolerances,
) -> tuple[list[np.ndarray], int]:
    """Feasible points in the eps-ball around x and the number of tries."""
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
            cand = _correct_equalities(p, box, cand, grads)
        gvals = p.constraint_values(cand) if p.n_constraints else np.zeros(0)
        ok = all(abs(gvals[i]) <= tol.residual for i in range(m1))
        ok = ok and all(gvals[i] <= tol.residual for i in range(m1, p.n_constraints))
        ok = ok and box.contains(cand, tol.activity)
        ok = ok and weighted_norm(p.weights, cand - x) <= eps * (1.0 + 1e-9)
        if ok:
            out.append(cand)
    return out, tries


def sample_growth(
    p: ProblemSpec,
    x,
    alpha: float,
    eps: float,
    n_samples: int = 2000,
    seed: int = DEFAULT_BUDGET.seed,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GrowthSampleResult:
    """Draw feasible points in the eps-ball and test the quadratic growth
    inequality f(x') >= f(x) + alpha/2 ||x' - x||^2.

    Sampling consistency, not a proof: a 'consistent' outcome means no
    sampled violation.  Box problems project perturbations onto the box and
    Newton-correct every equality constraint on the coordinates off the box
    bounds; generated-cone problems use the problem's feasible sampler when
    provided."""

    if eps <= 0:
        raise UsageError("eps must be positive")
    if n_samples < 1:
        raise UsageError("the growth check needs at least one sample")
    v = as_entries(x, p.dim)
    rng = np.random.default_rng(seed)
    if p.feasible_sampler is not None:
        samples, tries = p.feasible_sampler(rng, v, eps, n_samples), n_samples
    elif isinstance(p.abstract_set, BoxSet):
        samples, tries = _box_feasible_samples(p, v, eps, n_samples, rng, tol)
    else:
        samples, tries = [], 0
    if not samples:
        return GrowthSampleResult(True, 0, math.inf, None, note="no feasible samples found",
                                  tries=tries)

    f0 = p.objective.value(v)
    worst = math.inf
    counterexample = None
    for s in samples:
        margin = p.objective.value(s) - f0 - 0.5 * alpha * p.norm(s - v) ** 2
        if margin < worst:
            worst = margin
            if margin < -tol.growth_slack:
                counterexample = s
    return GrowthSampleResult(counterexample is None, len(samples), worst, counterexample,
                              tries=tries)
