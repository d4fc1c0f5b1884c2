"""Cone calculus at a feasible point.

Sign-pattern cones describe the radial/tangent/normal cones of a box and
their polars exactly; critical cones add linear cuts from the constraint
derivatives and the objective.  Cuts whose terms are single-signed on the
cone are absorbed into the pattern (they force components to zero), which
is what turns e.g. an objective cut into a plain componentwise condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InfeasiblePoint, UsageError
from .linalg import LinearProgram, solve_lp, weighted_norm
from .model import ActiveSetInfo, BoxSet, GeneratedConeSet, ProblemSpec, as_entries

FREE, NONNEG, NONPOS, ZERO = 0, 1, 2, 3
_POLAR = {FREE: ZERO, NONNEG: NONPOS, NONPOS: NONNEG, ZERO: FREE}


@dataclass(frozen=True)
class SignPatternCone:
    """Componentwise cone: each coordinate is free, >=0, <=0, or =0."""

    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int8)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "_nonneg", codes == NONNEG)
        object.__setattr__(self, "_nonpos", codes == NONPOS)
        object.__setattr__(self, "_zero", codes == ZERO)

    @property
    def dim(self) -> int:
        return self.codes.shape[0]

    def polar(self) -> "SignPatternCone":
        return SignPatternCone(np.array([_POLAR[int(c)] for c in self.codes], dtype=np.int8))

    def contains(self, h, tol: float = 1e-9) -> bool:
        v = np.asarray(h, dtype=float)
        scale = tol * (1.0 + float(np.max(np.abs(v), initial=0.0)))
        lo = np.where(self._nonneg, v, 0.0)
        hi = np.where(self._nonpos, v, 0.0)
        z = np.where(self._zero, v, 0.0)
        return bool(lo.min(initial=0.0) >= -scale and hi.max(initial=0.0) <= scale
                    and np.abs(z).max(initial=0.0) <= scale)

    def clamp(self, h) -> np.ndarray:
        """Euclidean projection onto the pattern (componentwise)."""
        v = np.asarray(h, dtype=float)
        v = np.where(self._nonneg, np.maximum(v, 0.0), v)
        v = np.where(self._nonpos, np.minimum(v, 0.0), v)
        return np.where(self._zero, 0.0, v)

    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal index-contiguous runs of equal code as (start, stop, code)."""
        out = []
        start = 0
        c = self.codes
        for i in range(1, self.dim + 1):
            if i == self.dim or c[i] != c[start]:
                out.append((start, i, int(c[start])))
                start = i
        return out


def tangent_cone_box(box: BoxSet, x, tol: Tolerances = DEFAULT_TOLERANCES) -> SignPatternCone:
    """>=0 at lower-active, <=0 at upper-active, =0 where bounds coincide."""
    v = as_entries(x, box.dim)
    if not box.contains(v, tol.activity):
        raise InfeasiblePoint("point is outside the box")
    lo, up, _ = box.classify(v, tol.activity)
    codes = np.full(box.dim, FREE, dtype=np.int8)
    codes[lo] = NONNEG
    codes[up] = NONPOS
    codes[lo & up] = ZERO
    return SignPatternCone(codes)


def normal_cone_box(box: BoxSet, x, tol: Tolerances = DEFAULT_TOLERANCES) -> SignPatternCone:
    return tangent_cone_box(box, x, tol).polar()


@dataclass(frozen=True)
class KTangentRows:
    """Tangent cone of the constraint-range cone at g(x): z_i = 0 on
    equalities, z_i <= 0 on active inequalities, free on inactive ones."""

    eq: tuple[int, ...]
    leq: tuple[int, ...]
    free: tuple[int, ...]

    def pattern(self, m: int) -> SignPatternCone:
        codes = np.full(m, FREE, dtype=np.int8)
        codes[list(self.eq)] = ZERO
        codes[list(self.leq)] = NONPOS
        return SignPatternCone(codes)


def tangent_cone_K(p: ProblemSpec, info: ActiveSetInfo) -> KTangentRows:
    eq = tuple(range(p.m1))
    leq = tuple(i for i in info.active if i >= p.m1)
    free = tuple(i for i in info.inactive)
    return KTangentRows(eq, leq, free)


# --------------------------------------------------------------------------
# Row absorption
# --------------------------------------------------------------------------


def absorb_rows(
    pattern: SignPatternCone,
    eq_rows: Sequence[np.ndarray],
    ineq_rows: Sequence[np.ndarray],
    weights: np.ndarray,
) -> tuple[SignPatternCone, list[np.ndarray], list[np.ndarray]]:
    """Fold rows whose terms are single-signed on the pattern into the pattern.

    A row <r, h>_w <= 0 whose nonzero terms w_i r_i h_i are all >= 0 on the
    cone holds iff every term vanishes, i.e. h_i = 0 on the row support; the
    row disappears and those components become =0.  Equality rows absorb
    when the terms are single-signed in either direction.  Iterates to a
    fixed point, since zeroing components can unlock further rows.
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


# --------------------------------------------------------------------------
# Critical cones
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalCone:
    """Tangent directions kept first-order feasible with the objective cut.

    ``base_pattern`` (box problems) or ``base_rays`` (generated-cone
    problems) carries the abstract-set geometry; ``eq_rows``/``ineq_rows``
    are leftover functional cuts applied through the weighted inner product;
    the objective cut is f'(x).h <= eta ||h|| when ``objective_gradient`` is
    kept (eta = 0 gives the plain critical cone).
    """

    weights: np.ndarray
    base_pattern: Optional[SignPatternCone]
    base_rays: tuple[np.ndarray, ...]
    eq_rows: tuple[np.ndarray, ...]
    ineq_rows: tuple[np.ndarray, ...]
    objective_gradient: Optional[np.ndarray]
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "_battery_cache", {})
        if self.eq_rows:
            R = np.array([np.asarray(r, dtype=float) for r in self.eq_rows])
            RW = R * self.weights
            G = RW @ R.T
            object.__setattr__(self, "_eq_matrix", R)
            object.__setattr__(self, "_eq_weighted", RW)
            object.__setattr__(self, "_eq_gram_inv", np.linalg.pinv(G))
        else:
            object.__setattr__(self, "_eq_matrix", None)
            object.__setattr__(self, "_eq_weighted", None)
            object.__setattr__(self, "_eq_gram_inv", None)

    def project_eq_rows(self, v: np.ndarray) -> np.ndarray:
        """Weighted orthogonal projection onto the equality rows' null space."""
        if self._eq_matrix is None:
            return v
        coef = self._eq_gram_inv @ (self._eq_weighted @ v)
        return v - self._eq_matrix.T @ coef

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def contains(self, h, tol: float = 1e-9) -> bool:
        v = np.asarray(h, dtype=float)
        scale = tol * (1.0 + float(np.max(np.abs(v), initial=0.0)))
        if self.base_pattern is not None:
            if not self.base_pattern.contains(v, tol):
                return False
        else:
            from .linalg import conic_membership

            if not conic_membership(list(self.base_rays), v):
                return False
        for r in self.eq_rows:
            if abs(float(np.sum(self.weights * r * v))) > scale * (1.0 + float(np.max(np.abs(r)))):
                return False
        for r in self.ineq_rows:
            if float(np.sum(self.weights * r * v)) > scale * (1.0 + float(np.max(np.abs(r)))):
                return False
        if self.objective_gradient is not None:
            fh = float(np.sum(self.weights * self.objective_gradient * v))
            if fh > self.eta * weighted_norm(self.weights, v) + scale:
                return False
        return True


def critical_cone(
    p: ProblemSpec,
    x,
    eta: float = 0.0,
    constraint_rows: bool = True,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CriticalCone:
    """Critical cone (eta = 0) or extended critical cone (eta > 0) at x.

    ``constraint_rows=False`` drops the g'(x)-cuts and keeps only the
    tangent cone intersected with the objective cut.  With eta = 0 the
    objective cut enters as f'(x).h <= 0; it is absorbed into the sign
    pattern whenever its terms are single-signed on the tangent cone.
    """

    if eta < 0:
        raise UsageError("eta must be nonnegative")
    from .model import check_feasible

    feas = check_feasible(p, x, tol)
    if not feas.feasible:
        raise InfeasiblePoint("critical cone requested at an infeasible point")
    info = feas.info
    assert info is not None
    v = as_entries(x, p.dim)
    fgrad = np.asarray(p.objective.gradient(v), dtype=float)

    eq_rows: list[np.ndarray] = []
    ineq_rows: list[np.ndarray] = []
    if constraint_rows:
        grads = p.constraint_gradients(v)
        krows = tangent_cone_K(p, info)
        eq_rows += [grads[i] for i in krows.eq]
        ineq_rows += [grads[i] for i in krows.leq]

    if isinstance(p.abstract_set, BoxSet):
        pattern = tangent_cone_box(p.abstract_set, v, tol)
        if eta == 0.0:
            ineq_rows.append(fgrad)
            pattern, eq_left, ineq_left = absorb_rows(pattern, eq_rows, ineq_rows, p.weights)
            obj_kept = None
            # if the objective row survived absorption it stays a cut with eta=0
            return CriticalCone(
                p.weights, pattern, (), tuple(eq_left), tuple(ineq_left), obj_kept, 0.0
            )
        pattern, eq_left, ineq_left = absorb_rows(pattern, eq_rows, ineq_rows, p.weights)
        return CriticalCone(
            p.weights, pattern, (), tuple(eq_left), tuple(ineq_left), fgrad, eta
        )

    cone_set = p.abstract_set
    if np.max(np.abs(v - cone_set.base)) > tol.activity:
        raise UsageError("generated-cone problems support cone queries at the base point only")
    rays = cone_set.tangent_rays()
    obj = fgrad if eta > 0.0 else None
    if eta == 0.0:
        ineq_rows.append(fgrad)
    return CriticalCone(p.weights, None, rays, tuple(eq_rows), tuple(ineq_rows), obj, eta)


# --------------------------------------------------------------------------
# Radial-vs-tangent density evidence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    dense: bool
    distances: tuple[float, ...]
    witness: Optional[np.ndarray]


def _section_distance(
    rays: Sequence[np.ndarray],
    h: np.ndarray,
    rows: Sequence[tuple[np.ndarray, str]],
    weights: np.ndarray,
) -> float:
    """sup-norm LP distance from h to {sum c_k r_k : c >= 0, rows hold}."""

    n = h.shape[0]
    K = len(rays)
    obj = np.zeros(K + 1)
    obj[-1] = 1.0
    R = np.array([np.asarray(r, dtype=float) for r in rays]).T if K else np.zeros((n, 0))
    ineq: list[tuple[np.ndarray, float]] = []
    eq: list[tuple[np.ndarray, float]] = []
    for j in range(n):
        ineq.append((np.concatenate([R[j], [-1.0]]), h[j]))
        ineq.append((np.concatenate([-R[j], [-1.0]]), -h[j]))
    for k in range(K):
        e = np.zeros(K + 1)
        e[k] = -1.0
        ineq.append((e, 0.0))
    for r, kind in rows:
        coef = np.concatenate([(weights * r) @ R, [0.0]]) if K else np.zeros(K + 1)
        if kind == "eq":
            eq.append((coef, 0.0))
        else:
            ineq.append((coef, 0.0))
    res = solve_lp(LinearProgram(obj, tuple(eq), tuple(ineq), sense="min"))
    if not res.is_optimal or res.value is None:
        raise UsageError("density-gap distance LP did not solve")
    return max(res.value, 0.0)


def radial_density_gap(
    descriptor: Union[BoxSet, Sequence[GeneratedConeSet]],
    x,
    rows: Sequence[tuple[np.ndarray, str]],
    h=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DensityReport:
    """Evidence for/against density of the radial cone section in the tangent
    cone section cut by ``rows`` ((functional, "eq"|"le") pairs).

    Boxes are polyhedral, so the radial and tangent cones agree and every
    section is dense.  For a generated-cone set, the candidate tangent
    direction ``h`` is tested against the radial sections of increasing
    truncations (the explicit rays only — adherent limit rays are exactly
    what radial directions cannot reach); a gap witness is reported when the
    sup-norm distance stays at or above the threshold for every truncation.
    This is numerical evidence, not a proof.
    """

    if isinstance(descriptor, BoxSet):
        return DensityReport(dense=True, distances=(), witness=None)
    cones = list(descriptor)
    if not cones:
        raise UsageError("need at least one truncation")
    if h is None:
        raise UsageError("a candidate tangent direction h is required for hull sets")
    hv = np.asarray(h, dtype=float)
    weights = np.ones(cones[0].dim)
    distances = tuple(
        _section_distance(c.rays, hv, rows, weights) for c in cones
    )
    gap = all(d >= tol.density_gap for d in distances)
    return DensityReport(dense=not gap, distances=distances, witness=hv if gap else None)


# --------------------------------------------------------------------------
# Direction generation
# --------------------------------------------------------------------------


def into_cone(cone: CriticalCone, h: np.ndarray, iterations: int = 60) -> Optional[np.ndarray]:
    """Alternate pattern clamping and row projection; None if it fails."""
    if cone.base_pattern is None:
        return h if cone.contains(h) else None
    v = cone.base_pattern.clamp(np.asarray(h, dtype=float))
    if cone.eq_rows:
        wrows = cone._eq_weighted
        for _ in range(iterations):
            resid = wrows @ v
            if np.abs(resid).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(v).max(initial=0.0)):
                break
            v = cone.base_pattern.clamp(cone.project_eq_rows(v))
    if np.max(np.abs(v), initial=0.0) <= 1e-12:
        return None
    return v if cone.contains(v, 1e-7) else None


def structured_directions(cone: CriticalCone, limit: int) -> list[np.ndarray]:
    """Canonical candidates: run indicators for pattern cones (paper scaling,
    entries in {0, +-1}), the generator rays for ray-based cones; each is
    row-projected into the cone when needed."""

    raw: list[np.ndarray] = []
    if cone.base_pattern is not None:
        n = cone.dim
        for start, stop, code in cone.base_pattern.runs():
            ind = np.zeros(n)
            ind[start:stop] = 1.0
            if code == NONNEG:
                raw.append(ind)
            elif code == NONPOS:
                raw.append(-ind)
            elif code == FREE:
                raw.append(ind)
                raw.append(-ind)
        for i in range(n):
            c = int(cone.base_pattern.codes[i])
            e = np.zeros(n)
            e[i] = 1.0
            if c == NONNEG:
                raw.append(e)
            elif c == NONPOS:
                raw.append(-e)
            elif c == FREE:
                raw.append(e)
                raw.append(-e)
            if len(raw) >= 4 * limit:
                break
    else:
        raw.extend(np.array(r, dtype=float) for r in cone.base_rays)

    out: list[np.ndarray] = []
    for h in raw:
        if len(out) >= limit:
            break
        if cone.contains(h):
            out.append(h)
            continue
        fixed = into_cone(cone, h)
        if fixed is not None and not any(
            np.max(np.abs(fixed - o)) <= 1e-12 for o in out
        ):
            out.append(fixed)
    return out


def _random_pattern_batch(
    cone: CriticalCone, count: int, rng: np.random.Generator, iterations: int = 60
) -> np.ndarray:
    """One vectorized clamp/project sweep over a batch of gaussian starts;
    returns the unit-norm rows that landed inside the cone."""

    pattern = cone.base_pattern
    assert pattern is not None
    n = cone.dim
    w = cone.weights
    H = rng.standard_normal((count, n))
    nonneg, nonpos, zero = pattern._nonneg, pattern._nonpos, pattern._zero

    def clamp_batch(M):
        M = np.where(nonneg, np.maximum(M, 0.0), M)
        M = np.where(nonpos, np.minimum(M, 0.0), M)
        return np.where(zero, 0.0, M)

    H = clamp_batch(H)
    if cone.eq_rows:
        R = cone._eq_matrix
        RW = cone._eq_weighted
        Ginv = cone._eq_gram_inv
        for _ in range(iterations):
            resid = H @ RW.T
            if np.abs(resid).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(H).max(initial=0.0)):
                break
            H = clamp_batch(H - (resid @ Ginv) @ R)

    scale = 1e-7 * (1.0 + np.abs(H).max(axis=1))
    keep = np.ones(len(H), dtype=bool)
    if cone.eq_rows:
        keep &= np.max(np.abs(H @ cone._eq_weighted.T), axis=1) <= scale * (
            1.0 + max(float(np.max(np.abs(r))) for r in cone.eq_rows)
        )
    for r in cone.ineq_rows:
        keep &= H @ (w * r) <= scale * (1.0 + float(np.max(np.abs(r))))
    norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
    keep &= norms > 1e-12
    if cone.objective_gradient is not None:
        fh = H @ (w * cone.objective_gradient)
        keep &= fh <= cone.eta * norms + scale * (
            1.0 + float(np.max(np.abs(cone.objective_gradient)))
        )
    H = H[keep] / norms[keep, None]
    return H


def random_directions(
    cone: CriticalCone,
    count: int,
    rng: np.random.Generator,
    max_rounds: int = 10,
) -> list[np.ndarray]:
    """Seeded unit-norm random members of the cone (deterministic given rng)."""

    out: list[np.ndarray] = []
    if cone.base_pattern is not None:
        rounds = 0
        while len(out) < count and rounds < max_rounds:
            rounds += 1
            batch = _random_pattern_batch(cone, 2 * count, rng)
            out.extend(batch[: count - len(out)])
        return out

    K = len(cone.base_rays)
    tries = 0
    while len(out) < count and tries < 30 * max(count, 1):
        tries += 1
        coef = rng.exponential(size=K)
        h = np.array(sum(c * r for c, r in zip(coef, cone.base_rays)))
        if (cone.eq_rows or cone.ineq_rows or cone.objective_gradient is not None) \
                and not cone.contains(h, 1e-7):
            continue
        nrm = weighted_norm(cone.weights, h)
        if nrm <= 1e-12:
            continue
        out.append(h / nrm)
    return out
