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
drawn once per cone and budget and cached on the cone (``_Battery``).  Its
form columns, ||h||_w^2, f''(x)h^2 and each g_i''(x)h^2, are computed in
row blocks with one ``BilinearForm.quad_rows`` call per form on the cone's
first search, and kept with the point object that computed them as their
key, so a search with another point object computes them again.  Every
search combines them with its own multipliers: f + S mu for a fixed mu,
f + max over the vertices for q.  The columns add (1 + m)/n to a battery's
memory, so ``check_ssc`` holds one battery at a time, and witnesses are
copies of their rows.  The chosen direction is evaluated again by
``q_of_h`` (or ``fixed_mu_value``), so reported values replay exactly.  A
negative certificate (witness) is exact and replayable; a nonnegative
verdict is a sampled certificate, labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_BUDGET, DEFAULT_TOLERANCES, SearchBudget, Tolerances
from .cones import (_BLOCK_ENTRIES, CriticalCone, critical_cone, into_cone, random_directions,
                    structured_directions)
from .errors import EmptyMultiplierSet, UnboundedMultiplierSet, UsageError
from .kkt import MultiplierSet
from .linalg import LinearProgram, solve_lp, weighted_norm
from .model import BoxSet, ProblemSpec, as_entries


def _constraint_quads(mset: MultiplierSet, h: np.ndarray) -> np.ndarray:
    return np.array([form.quad(h) for form in mset.g_forms])


_Columns = tuple[np.ndarray, Optional[np.ndarray]]


def _combine(mset: MultiplierSet, columns: _Columns, mu: Optional[np.ndarray]) -> np.ndarray:
    """Form values from the columns (f, S) of a row block, f''(x)h^2 and
    the matrix of g_i''(x)h^2 (None without constraints): q(h) = f + max
    over the vertices of S mu, or with ``mu`` the fixed-mu form f + S mu;
    equal to ``q_of_h``/``fixed_mu_value`` up to rounding."""
    f, S = columns
    if S is None:
        return f
    return f + S @ mu if mu is not None else f + np.max(S @ mset.vertex_matrix.T, axis=1)


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
    if mset.f_form.apply_rows is None or any(g.apply_rows is None for g in mset.g_forms):
        return None
    grad = 2.0 * mset.f_form.apply(h)
    for mu_i, g in zip(mu, mset.g_forms):
        if mu_i != 0.0:
            grad += 2.0 * mu_i * g.apply(h)
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


@dataclass
class _Battery:
    """A cone's candidate directions as the rows of one array, with the mask
    of the structured ones, and their form columns at one point object.

    ``columns`` computes the columns (``_battery_columns``) on the first
    search with ``mset`` and keeps them with ``mset`` itself as their key:
    a later search with the same object only combines them with its
    multiplier or the vertices, and a search with another point object
    recomputes them."""

    H: np.ndarray
    structured: np.ndarray
    mset: Optional[MultiplierSet] = None
    n2: Optional[np.ndarray] = None
    blocks: list[_Columns] = field(default_factory=list)

    def columns(self, mset: MultiplierSet, weights: np.ndarray) -> tuple[np.ndarray, list]:
        """(n2, blocks) of ``_battery_columns`` for ``mset``."""
        if self.mset is not mset:
            self.n2, self.blocks = _battery_columns(mset, self.H, weights)
            self.mset = mset
        return self.n2, self.blocks


def _battery(cone: CriticalCone, budget: SearchBudget) -> _Battery:
    """Candidate directions, the structured ones first, keeping their
    canonical scaling; random ones are unit norm.  Cached per cone, keyed by
    the budget, so repeated searches over one cone reuse the directions and
    their form columns (generation is seeded, so this does not change any
    result)."""

    key = (budget.seed, budget.structured, budget.random)
    cache = cone._battery_cache
    if key not in cache:
        rng = np.random.default_rng(budget.seed)
        structured = np.reshape(structured_directions(cone, budget.structured), (-1, cone.dim))
        # top the battery up to the full budget with random members
        n_random = budget.structured + budget.random - len(structured)
        H = np.concatenate([structured, random_directions(cone, n_random, rng)])
        H.flags.writeable = False
        cache[key] = _Battery(H, np.arange(len(H)) < len(structured))
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


def _battery_columns(
    mset: MultiplierSet, H: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, list[_Columns]]:
    """Squared weighted norms of the rows of H, and their form columns:
    f''(x)h^2, and with constraints the matrix S of g_i''(x)h^2, one column
    per constraint (None without).  The forms are evaluated per row block of
    about ``_BLOCK_ENTRIES`` entries, with one ``quad_rows`` call per form, so
    temporaries stay small.  The blocks' columns are views of one array
    each: a battery keeps its columns across searches, and two small arrays
    per block kept that long fragment the allocator's heap (a process
    certifying the many-multiplier benchmark problems over and over peaked
    at 54 MB that way, and at 49 MB with one array per column set)."""
    n2, f = np.empty(len(H)), np.empty(len(H))
    S = np.empty((len(H), mset.m)) if mset.m else None
    blocks = []
    rows = max(1, _BLOCK_ENTRIES // H.shape[1])
    for start in range(0, len(H), rows):
        block = H[start:start + rows]
        part = slice(start, start + len(block))
        n2[part] = np.sum(weights * block * block, axis=1)
        f[part] = mset.f_form.quad_rows(block)
        for i, g in enumerate(mset.g_forms):
            S[part, i] = g.quad_rows(block)
        blocks.append((f[part], None if S is None else S[part]))
    return n2, blocks


def _block_values(mset: MultiplierSet, blocks: list[_Columns],
                  mu: Optional[np.ndarray]) -> np.ndarray:
    """Form values of the rows of every block, each block combined on its
    own (``_combine``)."""
    return np.concatenate([_combine(mset, c, mu) for c in blocks] or [np.empty(0)])


def _battery_values(
    mset: MultiplierSet, H: np.ndarray, weights: np.ndarray, mu: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared weighted norms and form values of the rows of H, computed
    afresh in row blocks."""
    n2, blocks = _battery_columns(mset, H, weights)
    return n2, _block_values(mset, blocks, mu)


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

    The battery's form columns are computed in row blocks on the cone's
    first search with ``mset`` and combined with ``mu`` or the vertices on
    every search (``_Battery.columns``); only the descent trials and the
    chosen directions are evaluated one by one, each once, so
    ``sampled_min`` and the witness come from ``q_of_h``/``fixed_mu_value``
    as a replay computes them.  The chosen rows are copied, so a verdict
    holds no battery alive."""

    def evaluate(h: np.ndarray) -> _Candidate:
        val, mu_h = q_of_h(mset, h) if mu is None else (fixed_mu_value(mset, h, mu), mu)
        return _Candidate(h, val, val / float(np.sum(w * h * h)), mu_h)

    if mu is None:
        _require_vertices(mset)
    w = cone.weights
    battery = _battery(cone, budget)
    H, structured = battery.H, battery.structured
    n2, blocks = battery.columns(mset, w)
    values = _block_values(mset, blocks, mu)
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
        chosen = evaluate(H[best].copy())
    # prefer a canonically scaled structured witness when it ties the best
    ties = rows[structured[rows] & (normalized <= chosen.normalized + 1e-9)]
    witness = evaluate(H[ties[0]].copy()) if len(ties) else chosen
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

    if not 0.0 < eta < math.inf:
        raise UsageError("the extended critical cone needs a finite eta > 0")
    if not math.isfinite(alpha_target):
        raise UsageError("alpha must be finite")
    cone_eta = critical_cone(mset, eta)
    found = _search_min(mset, cone_eta, budget)
    section_generators = _section_size(cone_eta)
    # one battery at a time: the extended cone's directions and form columns
    # go before the eta = 0 cone draws its own
    del cone_eta
    alpha_est = found.sampled_min
    min_zero = _search_min(mset, critical_cone(mset, 0.0), budget).sampled_min
    return _verdict("ssc", not alpha_est >= alpha_target - mset.tol.alpha_slack, found,
                    alpha_est=alpha_est, hypotheses=hypotheses,
                    positivity_consistent=(min_zero > 0) == (alpha_est > 0),
                    section_generators=section_generators)


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


# Tries per row block of the growth sampler: about _GROWTH_BLOCK_ENTRIES
# entries per (rows, n) temporary, and at least _GROWTH_MIN_ROWS rows.  On a
# 2-vCPU host, a growth run on example1 at grid 120 (250 samples) peaked at
# 36.5 MB RSS one try at a time, 37.0 MB with 4096-entry blocks and 37.9 MB
# with 16384.  At grid 1920 (2000 samples, 1.50 s one try at a time) blocks
# of 2, 8, 16 and 32 rows took 1.27, 0.82, 0.61 and 0.63 s.
_GROWTH_BLOCK_ENTRIES = 4096
_GROWTH_MIN_ROWS = 16


def _growth_rows(n: int) -> int:
    return max(_GROWTH_MIN_ROWS, _GROWTH_BLOCK_ENTRIES // n)


def _distances(w: np.ndarray, S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||s - x||_w for every row s of S, rounded as ``weighted_norm`` rounds
    one."""
    D = S - x
    return np.sqrt(np.sum(w * D * D, axis=1))


def _correct_equalities(p: ProblemSpec, box: BoxSet, C: np.ndarray, grads: np.ndarray) -> None:
    """Chord-Newton steps onto g_i = 0 (i < m1), in place on the rows of C,
    that move only the coordinates of a row off the box bounds (the
    free-variable step of projected Newton methods).  ``grads`` holds the
    equality gradients at the base point, one row each; a row's step
    directions are these rows with its bound coordinates zeroed, so the
    projection cannot undo the step.  Each row stops on its own: once its
    equality residual is within 1e-13, on a singular or non-finite Jacobian
    or step, or after 8 steps."""

    eqs = p.constraints[:p.m1]
    rows = np.arange(len(C))  # the rows still moving
    for _ in range(8):
        X = C[rows]
        gval = np.stack([g.values(X) for g in eqs], axis=1)
        off = ~(np.max(np.abs(gval), axis=1) <= 1e-13)
        rows, X, gval = rows[off], X[off], gval[off]
        if not len(rows):
            return
        dirs = np.where(((X == box.lower) | (X == box.upper))[:, None, :], 0.0, grads)
        jac = (np.stack([g.gradients(X) for g in eqs], axis=1) * p.weights) \
            @ dirs.transpose(0, 2, 1)
        # rows with a non-finite or singular Jacobian, or a non-finite step, stop
        ok = np.all(np.isfinite(jac), axis=(1, 2))
        ok[ok] = np.abs(np.linalg.det(jac[ok])) >= 1e-14
        coef = np.linalg.solve(jac[ok], gval[ok][:, :, None])[:, :, 0]
        finite = np.all(np.isfinite(coef), axis=1)
        ok[ok] = finite
        rows = rows[ok]
        step = np.einsum("ki,kin->kn", coef[finite], dirs[ok])
        C[rows] = np.clip(X[ok] - step, box.lower, box.upper)


def _box_feasible_samples(
    p: ProblemSpec, x: np.ndarray, eps: float, count: int, rng: np.random.Generator,
    tol: Tolerances,
) -> tuple[np.ndarray, int]:
    """Feasible points in the eps-ball around x, one row each, and the
    number of tries.

    Tries run in row blocks (``_growth_rows``).  Each try draws its step and
    then, unless the step is zero, its radius, in the order of a one-by-one
    loop, so the samples and the count of tries do not depend on the block
    size.  A block is projected onto the box, corrected onto the equalities
    (``_correct_equalities``) and tested in one array pass: every equality
    residual and inequality within ``tol.residual``, the point in the box
    and in the ball.  ``tries`` counts up to the ``count``-th accepted try,
    at most 40 per sample."""
    assert isinstance(p.abstract_set, BoxSet)
    box = p.abstract_set
    w, n, m1 = p.weights, p.dim, p.m1
    grads = np.array([g.gradient(x) for g in p.constraints[:m1]]).reshape(m1, n)
    block, limit = _growth_rows(n), 40 * count
    samples = np.empty((count, n))
    accepted = tries = 0
    while accepted < count and tries < limit:
        k = min(block, limit - tries)
        steps, scale = np.empty((k, n)), np.zeros(k)
        drawn = np.zeros(k, dtype=bool)
        for j in range(k):
            steps[j] = rng.standard_normal(n)
            nrm = weighted_norm(w, steps[j])
            if nrm <= 0:
                continue  # counted and rejected, with no radius drawn
            drawn[j] = True
            scale[j] = eps * rng.random() / nrm
        C = np.clip(x + steps[drawn] * scale[drawn, None], box.lower, box.upper)
        if m1:
            _correct_equalities(p, box, C, grads)
        ok = np.all((C >= box.lower - tol.activity) & (C <= box.upper + tol.activity), axis=1)
        for i, g in enumerate(p.constraints):
            gval = g.values(C)
            ok &= (np.abs(gval) if i < m1 else gval) <= tol.residual
        ok &= _distances(w, C, x) <= eps * (1.0 + 1e-9)
        kept = np.flatnonzero(drawn)[ok][:count - accepted]  # their tries in the block
        samples[accepted:accepted + len(kept)] = C[ok][:len(kept)]
        accepted += len(kept)
        if accepted == count:
            tries += int(kept[-1]) + 1
        else:
            tries += k
    return samples[:accepted], tries


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
    bounds, a row block of tries at a time with the draws in the order of a
    one-by-one loop (``_box_feasible_samples``); generated-cone problems use
    the problem's feasible sampler when provided.  The margins are computed
    in row blocks through ``SmoothFunction.values``; the worst one is the
    first minimum over the samples in their order, and the counterexample
    its sample when it is below ``-tol.growth_slack``."""

    if not 0.0 < eps < math.inf:
        raise UsageError("eps must be positive and finite")
    if not math.isfinite(alpha):
        raise UsageError("alpha must be finite")
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
    if not len(samples):
        return GrowthSampleResult(True, 0, math.inf, None, note="no feasible samples found",
                                  tries=tries)

    f0 = p.objective.value(v)
    rows = _growth_rows(p.dim)
    margins = np.empty(len(samples))
    for start in range(0, len(samples), rows):
        S = np.asarray(samples[start:start + rows], dtype=float)
        margins[start:start + len(S)] = (p.objective.values(S) - f0
                                         - 0.5 * alpha * _distances(p.weights, S, v) ** 2)
    # a NaN margin counts as +inf: a running strict minimum never takes it
    margins[np.isnan(margins)] = math.inf
    worst = int(np.argmin(margins))
    counterexample = np.array(samples[worst], dtype=float) \
        if margins[worst] < -tol.growth_slack else None
    return GrowthSampleResult(counterexample is None, len(samples), float(margins[worst]),
                              counterexample, tries=tries)
