"""Second-order certification via the maximized Lagrangian Hessian.

q(h) = f''(x)h^2 + sup over multiplier vertices of sum_i mu_i g_i''(x)h^2 is
evaluated exactly (a linear functional over a polytope attains its sup at a
vertex; an LP cross-check is kept as an independent route).  Minimizing q
over a cone-intersect-sphere is nonconvex, so the necessary/sufficient
checks are falsifiers with a documented heuristic search: structured
directions, seeded random cone samples, and a projected subgradient
refinement.  Every function reads f''(x), g''(x) and the multiplier
vertices off the point object (``MultiplierSet.f_form``, ``g_forms`` and
``vertex_matrix``, built once per point).  The battery is one array,
evaluated in row blocks with one ``BilinearForm.quad_batch`` per form; the
chosen direction is evaluated again by ``q_of_h`` (or ``fixed_mu_value``),
so reported values replay exactly.  A negative certificate (witness) is
exact and replayable; a nonnegative verdict is a sampled certificate,
labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_BUDGET, DEFAULT_TOLERANCES, SearchBudget, Tolerances
from .cones import (_BLOCK_ENTRIES, CriticalCone, critical_cone, into_cone, random_directions,
                    structured_directions)
from .errors import EmptyMultiplierSet, UnboundedMultiplierSet, UsageError
from .kkt import MultiplierSet, validate_multipliers
from .linalg import LinearProgram, solve_lp, weighted_norm
from .model import BoxSet, ProblemSpec, as_entries


def _constraint_quads(mset: MultiplierSet, h: np.ndarray) -> np.ndarray:
    return np.array([form.quad(h) for form in mset.g_forms])


def _form_values(mset: MultiplierSet, H: np.ndarray, mu: Optional[np.ndarray]) -> np.ndarray:
    """Form values over the rows of H: q(h), or with ``mu`` the fixed-mu
    form; equal to ``q_of_h``/``fixed_mu_value`` up to rounding."""
    out = mset.f_form.quad_batch(H)
    if mset.m:
        S = np.column_stack([g.quad_batch(H) for g in mset.g_forms])
        if mu is not None:
            return out + S @ mu
        out = out + np.max(S @ mset.vertex_matrix.T, axis=1)
    return out


def fixed_mu_value(mset: MultiplierSet, h, mu) -> float:
    """The Lagrangian Hessian of one multiplier at h: f''(x)h^2 + sum_i mu_i
    g_i''(x)h^2."""
    hv = np.asarray(h, dtype=float)
    base = mset.f_form.quad(hv)
    if mset.m:
        base += float(np.asarray(mu) @ _constraint_quads(mset, hv))
    return base


def _subgradient(mset: MultiplierSet, h: np.ndarray, mu: np.ndarray) -> Optional[np.ndarray]:
    """Riesz gradient of h -> L''(x, ., mu) h^2, if the forms support it."""
    if mset.f_form.apply is None or any(g.apply is None for g in mset.g_forms):
        return None
    grad = 2.0 * np.asarray(mset.f_form.apply(h), dtype=float)
    for mu_i, g in zip(mu, mset.g_forms):
        if mu_i != 0.0:
            grad += 2.0 * mu_i * np.asarray(g.apply(h), dtype=float)
    return grad


def _require_vertices(mset: MultiplierSet) -> None:
    """Raises unless q is defined: a nonempty bounded multiplier set, with
    its vertices when there are constraints."""
    if mset.empty:
        raise EmptyMultiplierSet("q(h) needs a nonempty multiplier set")
    if not mset.bounded:
        raise UnboundedMultiplierSet("q(h) needs a bounded multiplier set")
    if mset.m and not mset.vertices:
        raise EmptyMultiplierSet("multiplier polytope has no enumerated vertices")


def q_of_h(mset: MultiplierSet, h) -> tuple[float, np.ndarray]:
    """Maximized Lagrangian Hessian at h with a maximizing vertex."""

    hv = np.asarray(h, dtype=float)
    _require_vertices(mset)
    base = mset.f_form.quad(hv)
    if mset.m == 0:
        return base, np.zeros(0)
    s = _constraint_quads(mset, hv)
    V = mset.vertex_matrix
    best = int(np.argmax(V @ s))
    # the winner's value by the dot product of fixed_mu_value, so replays match
    return base + float(V[best] @ s), np.asarray(mset.vertices[best])


def q_of_h_lp(mset: MultiplierSet, h) -> float:
    """Independent route: maximize the linear functional over the polytope by
    LP instead of vertex enumeration."""

    hv = np.asarray(h, dtype=float)
    base = mset.f_form.quad(hv)
    if mset.m == 0:
        return base
    s = _constraint_quads(mset, hv)
    poly = mset.polytope
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
    section_generators: Optional[int] = None  # cones with listed generators only

    @property
    def violated(self) -> bool:
        return self.kind.endswith("violated")

    @property
    def exact(self) -> bool:
        """The searched cone is a single ray (or only the origin), so the
        battery evaluated all of it."""
        return self.section_generators is not None and self.section_generators <= 1


def _section_size(cone: CriticalCone) -> Optional[int]:
    return len(cone.generators) if cone.has_generators else None


def _battery(cone: CriticalCone, budget: SearchBudget) -> tuple[np.ndarray, np.ndarray]:
    """Candidate directions as the rows of one array, with the mask of the
    structured ones, which come first and keep their canonical scaling;
    random ones are unit norm.  Cached per cone, keyed by the budget, so
    repeated searches over one cone reuse the directions (generation is
    seeded, so this does not change any result)."""

    key = (budget.seed, budget.structured, budget.random)
    cache = cone._battery_cache
    if key not in cache:
        rng = np.random.default_rng(budget.seed)
        structured = np.reshape(structured_directions(cone, budget.structured), (-1, cone.dim))
        # top the battery up to the full budget with random members
        n_random = budget.structured + budget.random - len(structured)
        H = np.concatenate([structured, random_directions(cone, n_random, rng)])
        H.flags.writeable = False
        cache[key] = H, np.arange(len(H)) < len(structured)
    return cache[key]


def _descend(
    mset: MultiplierSet,
    cone: CriticalCone,
    start: np.ndarray,
    evaluate: "callable",
    budget: SearchBudget,
) -> list[_Candidate]:
    """Projected subgradient refinement of the normalized form value, from
    ``start`` scaled to unit norm.  ``evaluate`` (``_search_min``'s) is
    called once per unit-norm trial direction, and its candidate gives both
    the step's value and the multiplier of the next subgradient: q_of_h's
    value is the fixed-mu form at its maximizing vertex, bit for bit.  The
    accepted candidates are returned in order."""

    if cone.base_pattern is None:
        return []
    w = cone.weights
    cur = evaluate(start / weighted_norm(w, start))
    grad = _subgradient(mset, cur.h, cur.mu)
    if grad is None:
        return []
    visited = []
    step = 0.5
    for _ in range(budget.descent_steps):
        cand = into_cone(cone, cur.h - step * grad)
        if cand is None:
            step *= 0.5
            if step < 1e-8:
                break
            continue
        nrm = weighted_norm(w, cand)
        if nrm <= 1e-12:
            step *= 0.5
            continue
        trial = evaluate(cand / nrm)
        if trial.value < cur.value - 1e-14:
            cur = trial
            visited.append(cur)
            grad = _subgradient(mset, cur.h, cur.mu)
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


def _battery_values(
    mset: MultiplierSet, H: np.ndarray, weights: np.ndarray, mu: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared weighted norms and form values of the rows of H, computed in
    blocks of about ``_BLOCK_ENTRIES`` entries so temporaries stay small."""
    n2 = np.empty(len(H))
    values = np.empty(len(H))
    rows = max(1, _BLOCK_ENTRIES // H.shape[1])
    for start in range(0, len(H), rows):
        block = H[start:start + rows]
        n2[start:start + len(block)] = np.sum(weights * block * block, axis=1)
        values[start:start + len(block)] = _form_values(mset, block, mu)
    return n2, values


@dataclass(frozen=True)
class _Search:
    evaluated: int  # battery directions with nonzero norm, plus descent steps
    sampled_min: float  # normalized value of the minimizing direction; inf if none
    witness: Optional[_Candidate]


def _search_min(
    mset: MultiplierSet,
    cone: CriticalCone,
    budget: SearchBudget,
    mu: Optional[np.ndarray] = None,
) -> _Search:
    """Minimizes the normalized form value, q(h) or with ``mu`` the fixed-mu
    form, over the battery and a descent from its best direction.

    The battery is evaluated in row blocks (``_battery_values``); only the
    descent trials and the chosen directions are evaluated one by one, each
    once, so ``sampled_min`` and the witness come from
    ``q_of_h``/``fixed_mu_value`` as a replay computes them."""

    def evaluate(h: np.ndarray) -> _Candidate:
        val, mu_h = q_of_h(mset, h) if mu is None else (fixed_mu_value(mset, h, mu), mu)
        return _Candidate(h, val, val / float(np.sum(w * h * h)), mu_h)

    if mu is None:
        _require_vertices(mset)
    w = cone.weights
    H, structured = _battery(cone, budget)
    n2, values = _battery_values(mset, H, w, mu)
    rows = np.flatnonzero(n2 > 1e-20)
    if not len(rows):
        return _Search(0, math.inf, None)
    normalized = values[rows] / n2[rows]
    best = rows[int(np.argmin(normalized))]
    steps = _descend(mset, cone, H[best], evaluate, budget)
    best_step = min(steps, key=lambda c: c.normalized, default=None)
    if best_step is not None and best_step.normalized < float(np.min(normalized)):
        chosen = best_step
    else:
        chosen = evaluate(H[best])
    # prefer a canonically scaled structured witness when it ties the best
    ties = rows[structured[rows] & (normalized <= chosen.normalized + 1e-9)]
    witness = evaluate(H[ties[0]]) if len(ties) else chosen
    return _Search(len(rows) + len(steps), chosen.normalized, witness)


def _verdict(kind: str, violated: bool, found: _Search, mu: Optional[np.ndarray] = None,
             **fields) -> SecondOrderVerdict:
    """``<kind>_violated`` with the witness of ``found``, or ``<kind>_holds``
    without one.  ``mu``, a fixed-mu search's multiplier, replaces the
    witness's and stays on a verdict that holds."""
    w = found.witness if violated else None
    h, value, normalized, w_mu = (w.h, w.value, w.normalized, w.mu) if w is not None \
        else (None,) * 4
    return SecondOrderVerdict(
        f"{kind}_{'violated' if violated else 'holds'}", h, value, normalized,
        w_mu if mu is None else mu, sampled_min=found.sampled_min,
        directions_evaluated=found.evaluated, **fields)


def check_snc(
    mset: MultiplierSet,
    cone: Optional[CriticalCone] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
    hypotheses: tuple[str, ...] = (),
) -> SecondOrderVerdict:
    """Search the critical cone for directions with q(h) < 0.

    A violation witness is exact; the 'holds' verdict is the sampled minimum
    over the battery (heuristic certificate)."""

    if cone is None:
        cone = critical_cone(mset, 0.0)
    found = _search_min(mset, cone, budget)
    return _verdict("snc", found.sampled_min < -mset.tol.violation, found,
                    hypotheses=hypotheses, section_generators=_section_size(cone))


def check_snc_fixed_multiplier(
    mset: MultiplierSet,
    mu,
    cone: Optional[CriticalCone] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> SecondOrderVerdict:
    """Same search over a single multiplier's quadratic form instead of the
    maximized one.  Used to demonstrate that fixing one multiplier can leave
    negative curvature on the critical cone even when the maximized form is
    coercive."""

    mu = np.asarray(mu, dtype=float)
    if not mset.contains_mu(mu):
        raise UsageError("mu is not in the multiplier set")
    validate_multipliers(mset, mu)
    if cone is None:
        cone = critical_cone(mset, 0.0)
    found = _search_min(mset, cone, budget, mu)
    return _verdict("snc", found.sampled_min < -mset.tol.violation, found, mu)


def check_ssc(
    mset: MultiplierSet,
    eta: float,
    alpha_target: float,
    budget: SearchBudget = DEFAULT_BUDGET,
    hypotheses: tuple[str, ...] = (),
) -> SecondOrderVerdict:
    """Estimate the coercivity constant of q over the extended critical cone
    and compare with the target; also cross-checks that strict positivity on
    the eta = 0 cone agrees with the coercivity verdict (they are equivalent
    in finite dimensions)."""

    if eta <= 0:
        raise UsageError("the extended critical cone needs eta > 0")
    cone_eta = critical_cone(mset, eta)
    found = _search_min(mset, cone_eta, budget)
    alpha_est = found.sampled_min
    min_zero = _search_min(mset, critical_cone(mset, 0.0), budget).sampled_min
    return _verdict("ssc", not alpha_est >= alpha_target - mset.tol.alpha_slack, found,
                    alpha_est=alpha_est, hypotheses=hypotheses,
                    positivity_consistent=(min_zero > 0) == (alpha_est > 0),
                    section_generators=_section_size(cone_eta))


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
