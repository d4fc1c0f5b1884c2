"""Second-order certification via the maximized Lagrangian Hessian.

Every search minimizes one form over a matrix ``mus`` of multipliers, one
per row: f''(x)h^2 + max over the rows mu of sum_i mu_i g_i''(x)h^2
(``_max_form``).  Over the vertices it is q(h), exact because a linear
functional over a polytope attains its sup at a vertex; over one fixed
multiplier's row it is that multiplier's form.  Minimizing it over a
cone-intersect-sphere is nonconvex, so the necessary/sufficient checks are
falsifiers with a documented heuristic search: structured directions,
seeded random cone samples, and a projected subgradient refinement.  Every
function reads f''(x), g''(x) and the multiplier vertices off the point
object (``MultiplierSet.f_form``, ``g_forms`` and ``vertices``, built once
per point).  The battery is one array, drawn once per cone and budget and
cached on the cone (``_Battery``).  A search works in its cone's rows
(``_Space``): a subspace cone (``CriticalCone.subspace_basis`` B, d rows,
the eta = 0 cone at a strictly complementary KKT point) in the
coordinates c of its directions h = c B, on the reduced forms K_k = B F_k
B^T that ``_reduced_forms`` derives from each form's row evaluator once
per cone and point object; every other cone in the directions themselves.
The battery's form columns, ||h||_w^2, f''(x)h^2 and each g_i''(x)h^2, are
computed in row blocks, with one ``BilinearForm.quad_rows`` call per form
or one product with K, on the cone's first search, and kept with the
point object that computed them as their key, so a search with another
point object computes them again.  Every search combines them with its own
``mus``: f + max(S @ mus.T).  The columns add (1 + m)/n to a battery's
memory, so ``check_ssc`` holds one battery at a time, and witnesses are
copies of their rows.  The descent from the best battery direction tries
the first rungs of its step-halving ladder one at a time; once they fail,
it screens the rest of the ladder in one row block and tries alone only a
rung that passes, so it accepts the steps of a one-rung-at-a-time loop.  A
rung lands in the cone; in coordinates every rung is a member and nothing
lands.  Reported values have one evaluator: the chosen direction and the
witness are directions evaluated one row at a time by ``_max_form`` (a
coordinate step as its direction c B), as ``q_of_h`` and
``fixed_mu_value`` replay them.  A negative certificate (witness) is exact
and replayable; a nonnegative verdict is a sampled certificate, labeled as
such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .config import DEFAULT_BUDGET, DEFAULT_TOLERANCES, SearchBudget, Tolerances
from .cones import (_BLOCK_ENTRIES, CriticalCone, _land, critical_cone, random_directions,
                    structured_directions)
from .errors import EmptyMultiplierSet, UnboundedMultiplierSet, UsageError
from .kkt import MultiplierSet
from .linalg import weighted_norm
from .model import BoxSet, ProblemSpec, as_entries


_Columns = tuple[np.ndarray, Optional[np.ndarray]]


def _combine(columns: _Columns, mus: np.ndarray) -> np.ndarray:
    """Form values from the columns (f, S) of a row block, f''(x)h^2 and
    the matrix of g_i''(x)h^2 (None without constraints): f + max over the
    rows mu of ``mus`` of S mu, equal to ``_max_form`` up to rounding."""
    f, S = columns
    if S is None:
        return f
    return f + (S @ mus.T).max(axis=1)


def _max_row(base: float, s: np.ndarray, mus: np.ndarray) -> tuple[float, np.ndarray]:
    """base + max over the rows mu of ``mus`` of mu @ s, and a maximizing
    row, whose own sum gives the value bit for bit."""
    if not len(s):
        return base, mus[0]
    best = int(np.argmax(mus @ s))
    return base + float(mus[best] @ s), mus[best]


def _max_form(mset: MultiplierSet, h, mus: np.ndarray) -> tuple[float, np.ndarray]:
    """f''(x)h^2 + max over the rows mu of ``mus`` of sum_i mu_i g_i''(x)h^2
    and a maximizing row, whose own form gives the value bit for bit."""
    hv = np.asarray(h, dtype=float)
    return _max_row(mset.f_form.quad(hv), np.array([g.quad(hv) for g in mset.g_forms]), mus)


def fixed_mu_value(mset: MultiplierSet, h, mu) -> float:
    """The Lagrangian Hessian of one multiplier at h: f''(x)h^2 + sum_i mu_i
    g_i''(x)h^2."""
    return _max_form(mset, h, np.asarray(mu, dtype=float)[None])[0]


def _require_vertices(mset: MultiplierSet) -> np.ndarray:
    """The multiplier vertices; raises unless q is defined: a nonempty
    bounded multiplier set (whose vertex array then has a row)."""
    if mset.empty:
        raise EmptyMultiplierSet("q(h) needs a nonempty multiplier set")
    if not mset.bounded:
        raise UnboundedMultiplierSet("q(h) needs a bounded multiplier set")
    return mset.vertices


def q_of_h(mset: MultiplierSet, h) -> tuple[float, np.ndarray]:
    """Maximized Lagrangian Hessian at h with a maximizing vertex."""
    return _max_form(mset, h, _require_vertices(mset))


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


def _reduced_forms(mset: MultiplierSet, basis: np.ndarray) -> np.ndarray:
    """The forms f''(x) and g_i''(x) restricted to the span of the d rows
    b_i of ``basis``: K_k[i, j] = F_k(b_i, b_j), stacked (1 + m, d, d).  By
    polarization, F(b_i, b_j) = (F(u, u) - F(v, v)) / 4 with u = b_i + b_j
    and v = b_i - b_j, so each form's row evaluator gives its K in one
    ``quad_rows`` call on the rows u and v of the pairs i <= j, and K is
    exactly symmetric."""
    forms = (mset.f_form, *mset.g_forms)
    d = len(basis)
    K = np.zeros((len(forms), d, d))
    i, j = np.triu_indices(d)
    if not len(i):
        return K
    UV = np.concatenate([basis[i] + basis[j], basis[i] - basis[j]])
    for k, form in enumerate(forms):
        q = form.quad_rows(UV)
        K[k, i, j] = K[k, j, i] = (q[:len(i)] - q[len(i):]) / 4.0
    return K


def _descends(mset: MultiplierSet) -> bool:
    """Whether every form has a Riesz map, which the descent needs."""
    return all(form.apply_rows is not None for form in (mset.f_form, *mset.g_forms))


def _subgradient(mset: MultiplierSet, h: np.ndarray, mu: np.ndarray) -> Optional[np.ndarray]:
    """Riesz gradient of h -> L''(x, ., mu) h^2, if the forms support it."""
    if not _descends(mset):
        return None
    grad = 2.0 * mset.f_form.apply(h)
    for mu_i, g in zip(mu, mset.g_forms):
        if mu_i != 0.0:
            grad += 2.0 * mu_i * g.apply(h)
    return grad


@dataclass(frozen=True)
class _Space:
    """The rows a search over ``cone`` at ``mset`` works in.

    Without ``K``, the ambient space: a row is a direction h, a descent
    rung lands in the cone (``_land``), norms are weighted, a block's
    form values come from the forms' row evaluators and one row's from
    ``_max_form``.  With ``K``, the reduced forms of a subspace cone
    (``_reduced_forms`` over its ``subspace_basis`` B), a row is the
    coordinate vector c = (h w) B^T of the direction h = c B, with ||h||_w
    = ||c||_2 since B is weighted-orthonormal: every row is a member, so
    nothing lands, and c's form values are c K_k c, one block in one
    product.  Both give the same descent: a landed rung is the weighted
    projection of the ambient rung onto the subspace, whose coordinates
    are c - step 2 (K_0 + sum_i mu_i K_i) c; only rounding differs."""

    mset: MultiplierSet
    cone: CriticalCone
    K: Optional[np.ndarray] = None

    @cached_property
    def w(self) -> np.ndarray:
        """Weights of the rows' norm."""
        return self.cone.weights if self.K is None else np.ones(self.K.shape[1])

    @property
    def width(self) -> int:
        """Entries per row of the widest temporary of ``quads``: n for a
        form's row evaluator, (1 + m) d for the reduced forms (at least 1)."""
        return max(1, self.cone.dim if self.K is None else self.K.shape[0] * self.K.shape[1])

    @cached_property
    def _K_rows(self) -> np.ndarray:
        """K as one (d, (1 + m) d) matrix [K_0 ... K_m]."""
        return self.K.transpose(1, 0, 2).reshape(self.K.shape[1], -1)

    @cached_property
    def _to_rows(self) -> np.ndarray:
        """(w B)^T, which maps a direction h to its coordinates (h w) B^T."""
        return (self.cone.subspace_basis * self.cone.weights).T

    def rows(self, H: np.ndarray) -> np.ndarray:
        """The rows of the directions H (members of the cone)."""
        return H if self.K is None else H @ self._to_rows

    def quads(self, X: np.ndarray) -> np.ndarray:
        """f''(x) and each g_i''(x) on the rows of X, shape (1 + m, len(X))."""
        if self.K is None:
            return np.array([form.quad_rows(X) for form in (self.mset.f_form, *self.mset.g_forms)])
        return np.einsum("rkd,rd->kr", (X @ self._K_rows).reshape(len(X), len(self.K), -1), X)

    def land(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of X moved into the cone, and the mask of the nonzero
        members (``_land``); coordinate rows are members as they are."""
        if self.K is None:
            return _land(self.cone, X)
        return X, np.abs(X).max(axis=1, initial=0.0) > 1e-12

    def max_form(self, x: np.ndarray, mus: np.ndarray) -> tuple[float, np.ndarray]:
        """``_max_form`` of the row x."""
        if self.K is None:
            return _max_form(self.mset, x, mus)
        q = self.quads(x[None])[:, 0]
        return _max_row(float(q[0]), q[1:], mus)

    def gradient(self, cand: "_Candidate") -> Optional[np.ndarray]:
        """The gradient of x -> F(x, x) at cand.h, for F the form of cand.mu
        (``_subgradient``), None unless the forms have Riesz maps."""
        if self.K is None:
            return _subgradient(self.mset, cand.h, cand.mu)
        if not _descends(self.mset):
            return None
        P = (cand.h @ self._K_rows).reshape(len(self.K), -1)
        return 2.0 * (P[0] + cand.mu @ P[1:])

    def replay(self, cand: "_Candidate", mus: np.ndarray) -> "_Candidate":
        """cand as a direction with its ``_max_form`` value: itself in the
        ambient space, else its direction c B evaluated afresh."""
        if self.K is None:
            return cand
        return _candidate(_Space(self.mset, self.cone), cand.h @ self.cone.subspace_basis, mus)


@dataclass
class _Battery:
    """A cone's candidate directions as the rows of one array, with the mask
    of the structured ones, and their form columns at one point object.

    ``space`` computes the columns (``_battery_columns``) in the cone's
    search space (``_Space``) on the first search with ``mset``, with a
    subspace cone's reduced forms ``K``, and keeps them with ``mset``
    itself as their key: a later search with the same object only combines
    them with its multiplier or the vertices, and a search with another
    point object recomputes them."""

    H: np.ndarray
    structured: np.ndarray
    mset: Optional[MultiplierSet] = None
    K: Optional[np.ndarray] = None
    n2: Optional[np.ndarray] = None
    blocks: list[_Columns] = field(default_factory=list)

    def space(self, mset: MultiplierSet, cone: CriticalCone) -> _Space:
        """The search space of ``cone`` at ``mset``, with the columns of the
        battery's rows in it computed on the first call with ``mset``."""
        if self.mset is not mset:
            basis = cone.subspace_basis
            self.K = None if basis is None else _reduced_forms(mset, basis)
            space = _Space(mset, cone, self.K)
            self.n2, self.blocks = _battery_columns(space, self.H, directions=True)
            self.mset = mset
        return _Space(mset, cone, self.K)


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
        structured = structured_directions(cone, budget.structured)
        # top the battery up to the full budget with random members
        n_random = budget.structured + budget.random - len(structured)
        H = np.concatenate([structured, random_directions(cone, n_random, rng)])
        H.flags.writeable = False
        cache[key] = _Battery(H, np.arange(len(H)) < len(structured))
    return cache[key]


# Rungs of a descent's step ladder tried one at a time after its start and
# after each accepted step; once that many fail in a row, the rest of the
# ladder is screened in one row block (``_screen``).  Over the searches of
# 40 many-multiplier problems (``tests/helpers.many_multiplier_spec``, eta
# 0, 0.1 and 1, sup form and barycenter), 6596 of 7137 accepted steps came
# on one of the first four rungs, while example1's ladders accept nothing.
# In-process on a 2-vCPU host (best of 9), 32 of those searches took 0.33 s
# one rung at a time, 0.32 s with 4 exact rungs and 0.44 s with none (their
# early accepts then pay for a block each); example1's 12 grid-480 display
# cone searches took 22, 8 and 5 ms.
_EXACT_RUNGS = 4

# Outcomes of one rung: a landed row of norm at most 1e-12 (the step halves
# and the ladder goes on), a failed landing or a value that does not improve
# (the step halves, and the ladder stops below 1e-8), and an improving value.
_TINY, _FAIL, _PASS = range(3)


def _ladder_length(step: float) -> int:
    """Rungs from ``step`` down to the first one below 1e-8, inclusive: a
    failing ladder stops after it unless that rung lands a zero row."""
    count = 1
    while step >= 1e-8:
        step *= 0.5
        count += 1
    return count


def _screen(space: _Space, cur: "_Candidate", grad: np.ndarray, step: float, count: int,
            mus: np.ndarray) -> np.ndarray:
    """Outcomes (``_TINY``, ``_FAIL``, ``_PASS``) of the ``count`` rungs step,
    step / 2, ... from ``cur``, in one row block: one ``_Space.land`` call,
    then the normalized landed rows' values in one ``_battery_values`` pass
    over ``mus``.  The rungs' steps and candidates are the ones the one-row
    loop forms (halving is exact), so only the rounding of block products
    can differ from it; a passing rung is confirmed one row at a time."""
    steps = step * 0.5 ** np.arange(count)
    V, landed = space.land(cur.h - steps[:, None] * grad)
    norms = np.sqrt(np.sum(space.w * V * V, axis=1))
    outcome = np.where(landed, _TINY, _FAIL)
    live = np.flatnonzero(landed & (norms > 1e-12))
    if len(live):
        _, values = _battery_values(space, V[live] / norms[live, None], mus)
        outcome[live] = np.where(values < cur.value - 1e-14, _PASS, _FAIL)
    return outcome


def _descend(
    space: _Space,
    start: np.ndarray,
    budget: SearchBudget,
    mus: np.ndarray,
) -> tuple[list[_Candidate], int]:
    """Projected subgradient refinement of the normalized form value, from
    the direction ``start`` scaled to unit norm, in the rows of ``space``:
    the accepted candidates in order, and the number of rungs tried, at
    most ``budget.descent_steps``.

    Each rung moves cur - step grad into the cone (``_Space.land``) and
    evaluates it at unit norm; an improving value is accepted and grows the
    step (by 1.5, to at most 1), anything else halves it, and the ladder
    stops once a halved step falls below 1e-8 (after a zero landed row it
    goes on).  The first ``_EXACT_RUNGS`` rungs after the start and after
    each accepted step run one at a time; once that many fail in a row, the
    rest of the ladder, down to its first rung below 1e-8 and within the
    remaining steps, is screened in one row block (``_screen``), and the
    same control flow runs over the screened outcomes, one step per rung.
    A rung that passes the screen runs again one row at a time, and that
    outcome stands.  Each row tried one at a time is one ``_candidate``:
    its value, and the maximizing row of ``mus``, whose form gives the
    next gradient."""

    if space.cone.base_pattern is None:
        return [], 0
    x = space.rows(start[None])[0]
    cur = _candidate(space, x / weighted_norm(space.w, x), mus)
    grad = space.gradient(cur)
    if grad is None:
        return [], 0

    def rung(step: float) -> tuple[int, Optional[_Candidate]]:
        V, ok = space.land((cur.h - step * grad)[None])
        if not ok[0]:
            return _FAIL, None
        nrm = weighted_norm(space.w, V[0])
        if nrm <= 1e-12:
            return _TINY, None
        trial = _candidate(space, V[0] / nrm, mus)
        return (_PASS if trial.value < cur.value - 1e-14 else _FAIL), trial

    visited, step, failed, screened, rungs = [], 0.5, 0, [], 0
    while rungs < budget.descent_steps:
        if failed < _EXACT_RUNGS:
            outcome, trial = rung(step)
        else:
            if not screened:
                count = min(_ladder_length(step), budget.descent_steps - rungs)
                screened = _screen(space, cur, grad, step, count, mus).tolist()
            outcome, trial = screened.pop(0), None
            if outcome == _PASS:
                outcome, trial = rung(step)
        rungs += 1
        if outcome == _PASS:
            cur = trial
            visited.append(cur)
            grad = space.gradient(cur)
            if grad is None:
                break
            step, failed, screened = min(step * 1.5, 1.0), 0, []
        else:
            step *= 0.5
            failed += 1
            if outcome != _TINY and step < 1e-8:
                break
    return visited, rungs


@dataclass
class _Candidate:
    h: np.ndarray  # a row of its search space
    value: float
    normalized: float
    mu: np.ndarray


def _candidate(space: _Space, x: np.ndarray, mus: np.ndarray) -> _Candidate:
    """The row x with its form value over ``mus`` (``_Space.max_form``),
    that value over the squared norm of x, and the maximizing row."""
    value, mu = space.max_form(x, mus)
    return _Candidate(x, value, value / float(np.sum(space.w * x * x)), mu)


def _battery_columns(space: _Space, X: np.ndarray,
                     directions: bool = False) -> tuple[np.ndarray, list[_Columns]]:
    """Squared norms of the rows of X in ``space``, and their form columns:
    f''(x)h^2, and with constraints the matrix S of g_i''(x)h^2, one column
    per constraint (None without).  With ``directions`` the rows of X are
    directions, each row block mapped to the space's rows (``_Space.rows``)
    on its own.  The forms are evaluated per row block of about
    ``_BLOCK_ENTRIES`` entries of the space's widest temporary
    (``_Space.width``), with one ``_Space.quads`` call, so temporaries stay
    small.  The blocks' columns are views of one array each: a battery
    keeps its columns across searches, and two small arrays per block kept
    that long fragment the allocator's heap (a process certifying the
    many-multiplier benchmark problems over and over peaked at 54 MB that
    way, and at 49 MB with one array per column set)."""
    m = space.mset.m
    n2, f = np.empty(len(X)), np.empty(len(X))
    S = np.empty((len(X), m)) if m else None
    blocks = []
    rows = max(1, _BLOCK_ENTRIES // space.width)
    for start in range(0, len(X), rows):
        block = X[start:start + rows]
        if directions:
            block = space.rows(block)
        part = slice(start, start + len(block))
        n2[part] = np.sum(space.w * block * block, axis=1)
        q = space.quads(block)
        f[part] = q[0]
        if m:
            S[part] = q[1:].T
        blocks.append((f[part], None if S is None else S[part]))
    return n2, blocks


def _block_values(blocks: list[_Columns], mus: np.ndarray) -> np.ndarray:
    """Form values of the rows of every block, each block combined on its
    own (``_combine``)."""
    return np.concatenate([_combine(c, mus) for c in blocks] or [np.empty(0)])


def _battery_values(space: _Space, X: np.ndarray, mus: np.ndarray,
                    directions: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms and form values of the rows of X in ``space``, computed
    afresh in row blocks (``_battery_columns``)."""
    n2, blocks = _battery_columns(space, X, directions)
    return n2, _block_values(blocks, mus)


@dataclass(frozen=True)
class _Search:
    evaluated: int  # battery directions with nonzero norm, plus descent steps
    sampled_min: float  # normalized value of the minimizing direction; inf if none
    witness: Optional[_Candidate]


def _search_min(mset: MultiplierSet, cone: CriticalCone, budget: SearchBudget,
                mus: np.ndarray) -> _Search:
    """Minimizes the normalized form value, f''(x)h^2 + max over the rows
    of ``mus`` (``_max_form``), over the battery and a descent from its best
    direction.

    The search runs in the cone's rows (``_Space``): a subspace cone's
    coordinates, else the directions themselves.  The battery's form
    columns are computed in row blocks on the cone's first search with
    ``mset`` and combined with ``mus`` on every search
    (``_Battery.space``).  The descent (``_descend``) screens its failing
    ladders in row blocks too.  The chosen direction and the witness are
    directions evaluated one by one by ``_max_form``, so ``sampled_min``
    and the witness come from it as a replay computes them: a battery row,
    an accepted ambient step (evaluated once), or a coordinate step's
    direction c B, evaluated afresh.  The chosen rows are copied, so a
    verdict holds no battery alive."""

    battery = _battery(cone, budget)
    H, structured = battery.H, battery.structured
    space = battery.space(mset, cone)
    n2, values = battery.n2, _block_values(battery.blocks, mus)
    rows = np.flatnonzero(n2 > 1e-20)
    if not len(rows):
        return _Search(0, math.inf, None)
    normalized = values[rows] / n2[rows]
    best = rows[int(np.argmin(normalized))]
    steps, _ = _descend(space, H[best], budget, mus)
    best_step = min(steps, key=lambda c: c.normalized, default=None)
    ambient = _Space(mset, cone)
    if best_step is not None and best_step.normalized < float(np.min(normalized)):
        chosen = space.replay(best_step, mus)
    else:
        chosen = _candidate(ambient, H[best].copy(), mus)
    # prefer a canonically scaled structured witness when it ties the best
    ties = rows[structured[rows] & (normalized <= chosen.normalized + 1e-9)]
    witness = _candidate(ambient, H[ties[0]].copy(), mus) if len(ties) else chosen
    return _Search(len(rows) + len(steps), chosen.normalized, witness)


def _verdict(kind: str, violated: bool, found: _Search, **fields) -> SecondOrderVerdict:
    """``<kind>_violated`` with the witness of ``found`` and its maximizing
    multiplier, or ``<kind>_holds`` without either."""
    w = found.witness if violated else None
    h, value, normalized, mu = (w.h, w.value, w.normalized, w.mu) if w is not None \
        else (None,) * 4
    return SecondOrderVerdict(
        f"{kind}_{'violated' if violated else 'holds'}", h, value, normalized, mu,
        sampled_min=found.sampled_min, directions_evaluated=found.evaluated, **fields)


def _snc(mset: MultiplierSet, mus: np.ndarray, cone: Optional[CriticalCone],
         budget: SearchBudget) -> SecondOrderVerdict:
    """The necessary condition's search over the maximized form of ``mus``."""
    if cone is None:
        cone = critical_cone(mset, 0.0)
    found = _search_min(mset, cone, budget, mus)
    return _verdict("snc", found.sampled_min < -mset.tol.violation, found,
                    section_generators=_section_size(cone))


def check_snc(
    mset: MultiplierSet,
    cone: Optional[CriticalCone] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> SecondOrderVerdict:
    """Search the critical cone for directions with q(h) < 0.

    A violation witness is exact; the 'holds' verdict is the sampled minimum
    over the battery (heuristic certificate)."""

    return _snc(mset, _require_vertices(mset), cone, budget)


def check_snc_fixed_multiplier(
    mset: MultiplierSet,
    mu,
    cone: Optional[CriticalCone] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> SecondOrderVerdict:
    """Same search with the multiplier set replaced by {mu}: the maximum
    over one row is that multiplier's quadratic form.  Used to demonstrate
    that fixing one multiplier can leave negative curvature on the critical
    cone even when the maximized form is coercive."""

    mu = np.asarray(mu, dtype=float)
    if not mset.contains_mu(mu):
        raise UsageError("mu is not in the multiplier set")
    return _snc(mset, mu[None], cone, budget)


def check_ssc(
    mset: MultiplierSet,
    eta: float,
    alpha_target: float,
    budget: SearchBudget = DEFAULT_BUDGET,
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
    found = _search_min(mset, cone_eta, budget, _require_vertices(mset))
    section_generators = _section_size(cone_eta)
    # one battery at a time: the extended cone's directions and form columns
    # go before the eta = 0 cone draws its own
    del cone_eta
    alpha_est = found.sampled_min
    min_zero = _search_min(mset, critical_cone(mset, 0.0), budget, mset.vertices).sampled_min
    return _verdict("ssc", not alpha_est >= alpha_target - mset.tol.alpha_slack, found,
                    alpha_est=alpha_est, positivity_consistent=(min_zero > 0) == (alpha_est > 0),
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
    # Candidate points drawn: box tries, or the hull sampler's draws.
    tries: int = 0


# Rows of a growth block: the tries still needed, at least _GROWTH_MIN_ROWS,
# at most _GROWTH_MAX_ENTRIES entries above that.  growth_box (2 vCPUs): 34-row
# blocks 0.0126-0.0131 s, 40.8-41.2 MB; caps 8192/12288/16384 0.0100/0.0082/
# 0.0085 s, 41.3/41.4/41.9 MB.  Grid 1920, 2000 samples: 68 MB.
_GROWTH_MAX_ENTRIES = 12288
_GROWTH_MIN_ROWS = 16


def _growth_rows(n: int, need: int) -> int:
    return max(_GROWTH_MIN_ROWS, min(need, _GROWTH_MAX_ENTRIES // n))


def _distances(w: np.ndarray, S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||s - x||_w for every row s of S, rounded as ``weighted_norm`` rounds
    one."""
    D = S - x
    return np.sqrt(np.sum(w * D * D, axis=1))


def _feasible_in_ball(p: ProblemSpec, C: np.ndarray, x: np.ndarray, eps: float,
                      tol: Tolerances) -> np.ndarray:
    """Row mask: |g_i| (i < m1), g_i (i >= m1) within ``tol.residual``, and in the eps-ball."""
    ok = _distances(p.weights, C, x) <= eps * (1.0 + 1e-9)
    for i, g in enumerate(p.constraints):
        gval = g.values(C)
        ok &= (np.abs(gval) if i < p.m1 else gval) <= tol.residual
    return ok


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
        # bound coordinates are zeroed in the Jacobian's left factor and in the
        # step, which equals zeroed directions while the gradients at x are finite
        free = (X != box.lower) & (X != box.upper)
        jac = (np.stack([g.gradients(X) for g in eqs], axis=1) * p.weights
               * free[:, None, :]) @ grads.T
        # rows with a non-finite or singular Jacobian, or a non-finite step, stop
        ok = np.all(np.isfinite(jac), axis=(1, 2))
        ok[ok] = np.abs(np.linalg.det(jac[ok])) >= 1e-14
        coef = np.linalg.solve(jac[ok], gval[ok][:, :, None])[:, :, 0]
        finite = np.all(np.isfinite(coef), axis=1)
        ok[ok] = finite
        rows, X = rows[ok], X[ok]
        X -= np.where(free[ok], np.einsum("ki,in->kn", coef[finite], grads), 0.0)
        C[rows] = np.clip(X, box.lower, box.upper, out=X)


def _box_feasible_samples(
    p: ProblemSpec, x: np.ndarray, eps: float, count: int, rng: np.random.Generator,
    tol: Tolerances,
) -> tuple[np.ndarray, int]:
    """Feasible points in the eps-ball around x, one row each, and the
    number of tries.

    A block holds the tries still needed (missing samples over the yield so
    far).  Each try draws its step into its row, then its radius unless the
    step's norm is zero, as a one-by-one loop does, so no try depends on the
    block size (a sample's last bits can, via the problem's row evaluators).
    A block is scaled (norms rounded as ``weighted_norm``), projected,
    corrected (``_correct_equalities``) and tested in one pass: residuals
    within ``tol.residual``, in the box and the ball.  ``tries`` counts up
    to the ``count``-th accepted try, at most 40 per sample."""
    assert isinstance(p.abstract_set, BoxSet)
    box = p.abstract_set
    w, n, m1 = p.weights, p.dim, p.m1
    grads = np.array([g.gradient(x) for g in p.constraints[:m1]]).reshape(m1, n)
    limit = 40 * count
    samples = np.empty((count, n))
    accepted = tries = 0
    while accepted < count and tries < limit:
        need = -(-(count - accepted) * tries // accepted) if accepted else count
        k = min(_growth_rows(n, need), limit - tries)
        C, radius = np.empty((k, n)), np.full(k, np.nan)
        for j, step in enumerate(C):
            rng.standard_normal(out=step)
            if (w * step * step).any():  # else a zero norm: rejected, with no radius
                radius[j] = rng.random()
        drawn = ~np.isnan(radius)
        if not drawn.all():
            C, radius = C[drawn], radius[drawn]
        C *= (eps * radius / np.sqrt(np.sum(w * C * C, axis=1)))[:, None]
        C += x
        np.clip(C, box.lower, box.upper, out=C)
        if m1:
            _correct_equalities(p, box, C, grads)
        ok = np.all((C >= box.lower - tol.activity) & (C <= box.upper + tol.activity), axis=1)
        ok &= _feasible_in_ball(p, C, x, eps, tol)
        kept = np.flatnonzero(drawn)[ok][:count - accepted]  # their tries in the block
        samples[accepted:accepted + len(kept)] = C[ok][:len(kept)]
        accepted += len(kept)
        if accepted == count:
            tries += int(kept[-1]) + 1
        else:
            tries += k
    return samples[:accepted], tries


def _section_points(p: ProblemSpec, points: np.ndarray) -> np.ndarray:
    """Points whose hull is the section of conv(points) by the equalities
    g_i = 0 (i < m1) when they are affine: per equality, the points with
    g_i == 0, then the crossing (g(b) a - g(a) b) / (g(b) - g(a)) of each
    positive point a with each negative point b, positive-major.  A polytope's
    section by a hyperplane is the hull of its vertices on it and of its
    edges' crossings (Ziegler, Lectures on Polytopes, 1995)."""
    for g in p.constraints[:p.m1]:
        gval = g.values(points)
        pos, neg = gval > 0.0, gval < 0.0
        ga, gb = gval[pos, None, None], gval[neg, None]
        crossings = (gb * points[pos][:, None] - ga * points[neg]) / (gb - ga)
        points = np.vstack([points[gval == 0.0], crossings.reshape(-1, p.dim)])
    return points


def _hull_feasible_samples(p: ProblemSpec, x: np.ndarray, eps: float, count: int,
                           rng: np.random.Generator, tol: Tolerances) -> tuple[np.ndarray, int]:
    """The kept ones of ``count`` tries, and the tries: Dirichlet(1, ..., 1)
    combinations of the ``_section_points`` of the set's ``hull_points``, a
    try outside the eps-ball moved radially towards x to a uniform fraction
    of eps.  A block of about ``_BLOCK_ENTRIES`` weights draws them with one
    ``rng.standard_exponential`` call, then one radius per row (unused inside
    the ball).  A try is kept on ``_feasible_in_ball``: affine equalities hold
    up to rounding; inequalities and other equalities can reject.  Without
    hull points, or section points, there are no tries."""
    V = _section_points(p, p.abstract_set.hull_points)
    if not len(V):
        return V, 0
    C = np.empty((count, p.dim))
    rows = max(1, _BLOCK_ENTRIES // len(V))
    for start in range(0, count, rows):
        X = C[start:start + rows]
        W = rng.standard_exponential((len(X), len(V)))
        W /= W.sum(axis=1, keepdims=True)
        np.matmul(W, V, out=X)
        radius = rng.random(len(X))
        nrm = _distances(p.weights, X, x)
        far = nrm > eps
        X[far] = x + (X[far] - x) * (eps * radius[far] / nrm[far])[:, None]
    return C[_feasible_in_ball(p, C, x, eps, tol)], count


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
    Newton-correct the equalities (``_box_feasible_samples``); generated-cone
    problems combine the points of their hull's section by the equalities
    (``_hull_feasible_samples``).  The margins are computed in row
    blocks through ``SmoothFunction.values``; the worst one is the first
    minimum over the samples in their order, and the counterexample its
    sample when it is below ``-tol.growth_slack``."""

    if not 0.0 < eps < math.inf:
        raise UsageError("eps must be positive and finite")
    if not math.isfinite(alpha):
        raise UsageError("alpha must be finite")
    if n_samples < 1:
        raise UsageError("the growth check needs at least one sample")
    v = as_entries(x, p.dim)
    rng = np.random.default_rng(seed)
    sampler = _box_feasible_samples if isinstance(p.abstract_set, BoxSet) \
        else _hull_feasible_samples
    samples, tries = sampler(p, v, eps, n_samples, rng, tol)
    if not len(samples):
        return GrowthSampleResult(True, 0, math.inf, None, note="no feasible samples found",
                                  tries=tries)

    f0 = p.objective.value(v)
    rows = _growth_rows(p.dim, len(samples))
    margins = np.empty(len(samples))
    for start in range(0, len(samples), rows):
        S = samples[start:start + rows]
        margins[start:start + len(S)] = (p.objective.values(S) - f0
                                         - 0.5 * alpha * _distances(p.weights, S, v) ** 2)
    # a NaN margin counts as +inf: a running strict minimum never takes it
    margins[np.isnan(margins)] = math.inf
    worst = int(np.argmin(margins))
    counterexample = samples[worst].copy() if margins[worst] < -tol.growth_slack else None
    return GrowthSampleResult(counterexample is None, len(samples), float(margins[worst]),
                              counterexample, tries=tries)
