"""Cone calculus at a feasible point.

Sign-pattern cones describe the radial/tangent/normal cones of a box and
their polars exactly; critical cones add linear cuts from the constraint
derivatives and the objective.  Cuts whose terms are single-signed on the
cone are absorbed into the pattern (they force components to zero), which
is what turns e.g. an objective cut into a plain componentwise condition.
At a KKT point a box's critical cone (eta = 0) is the annihilator section
of one relative-interior multiplier, so its implicit equalities enter as
equalities (``_annihilator_rows``) and random draws land in it after one
projection.  A hull's critical cone starts from its tangent rays instead:
their facets (``linalg.cone_facets``) decide membership, and random draws
combine its section generators: the facets plus the cuts, run through the
double-description routine.  A box cone with leftover inequality rows,
where clamped gaussian starts rarely meet the rows and the objective cut,
lists the same generators with its sign pattern read as rows, and draws
from them once the starts stop landing.  ``radial_density_gap`` is the one
LP user left here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InfeasiblePoint, PolytopeTooLarge, UsageError
from .linalg import LinearProgram, cone_facets, cone_is_trivial, solve_lp, weighted_norm
from .model import ActiveSetInfo, BoxSet, GeneratedConeSet, ProblemSpec, as_entries, check_feasible

if TYPE_CHECKING:
    from .kkt import MultiplierSet

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
            # h -> h - (h @ A.T) @ B is the weighted projection onto the rows'
            # null space: with s = sqrt(w), the rows of Q are an orthonormal
            # basis of the rows of R * s, A = Q * s and B = Q / s
            R = np.array([np.asarray(r, dtype=float) for r in self.eq_rows])
            s = np.sqrt(self.weights)
            _, sv, Vt = np.linalg.svd(R * s, full_matrices=False)
            rank = int(np.sum(sv > sv[0] * max(R.shape) * np.finfo(float).eps))
            Q = Vt[:rank]
            object.__setattr__(self, "_eq_weighted", R * self.weights)
            object.__setattr__(self, "_eq_projector", (Q * s, Q / s))
        else:
            object.__setattr__(self, "_eq_weighted", None)
            object.__setattr__(self, "_eq_projector", None)

    @cached_property
    def ray_facets(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R) with cone(base_rays) = {h : L h = 0, R h <= 0}, computed on
        first use (ray-based cones only)."""
        return cone_facets(self.dim, self.base_rays)

    @cached_property
    def has_generators(self) -> bool:
        """Whether ``generators`` is listed: always for ray-based cones; for
        box cones with leftover inequality rows unless the section has more
        than ``_MAX_GENERATORS`` generators (one mixed-sign row over p >= 0
        and q <= 0 coordinates alone adds p q rays).  Box cones without
        inequality rows need none: clamping and projecting lands in them."""
        if self.base_pattern is None:
            return True
        if not self.ineq_rows:
            return False
        try:
            self.generators
        except PolytopeTooLarge:
            return False
        return True

    @cached_property
    def generators(self) -> np.ndarray:
        """Generators (rows) of the section of the base cone by its rows,
        computed on first use: the facets of cone(base_rays), or the sign
        pattern read as rows (e_j = 0 on =0 coordinates, -e_j <= 0 on >=0
        and e_j <= 0 on <=0 ones), and the weighted rows, run through the
        double description, laid out as ``cone_is_trivial`` lays them out
        (each lineality vector l as l and -l, then the extreme rays).  The
        eta > 0 objective cut is not polyhedral; it stays a test on each
        direction (``objective_cut_holds``).  Past ``_MAX_GENERATORS`` rays
        the double description raises ``PolytopeTooLarge``."""
        if self.base_pattern is None:
            L, R = self.ray_facets
        else:
            codes = self.base_pattern.codes
            signed = np.eye(self.dim) * np.where(codes == NONNEG, -1.0, 1.0)[:, None]
            L, R = signed[codes == ZERO], signed[(codes == NONNEG) | (codes == NONPOS)]
        eq = [(a, 0.0) for a in (*L, *(self.weights * r for r in self.eq_rows))]
        ineq = [(a, 0.0) for a in (*R, *(self.weights * r for r in self.ineq_rows))]
        return cone_is_trivial(self.dim, eq, ineq)[1]

    def objective_cut_holds(self, H: np.ndarray) -> np.ndarray:
        """Row mask of f'(x).h <= eta ||h|| over the rows h of H, at the
        sampling tolerance; all true when the cone keeps no objective cut."""
        if self.objective_gradient is None:
            return np.ones(len(H), dtype=bool)
        w, g = self.weights, self.objective_gradient
        scale = 1e-7 * (1.0 + np.abs(H).max(axis=1))
        norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
        return H @ (w * g) <= self.eta * norms + scale * (1.0 + float(np.max(np.abs(g))))

    def project_eq_rows(self, v: np.ndarray) -> np.ndarray:
        """Weighted orthogonal projection onto the equality rows' null space,
        of one vector or of the rows of a matrix."""
        if self._eq_projector is None:
            return v
        A, B = self._eq_projector
        return v - (v @ A.T) @ B

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
            L, R = self.ray_facets
            if np.any(np.abs(L @ v) > scale) or np.any(R @ v > scale):
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


def _annihilator_rows(
    mset: "MultiplierSet", grads, krows: KTangentRows, tol: Tolerances
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Equality and inequality rows of a box's critical cone (eta = 0) as the
    annihilator section of one multiplier (mu, lambda): at a KKT point every
    multiplier gives C(x) = {h in T_C(x), <lambda, h>_w = 0 : g'(x)h in
    T_K(g(x)), mu . g'(x)h = 0}, and the objective row is implied.

    The multiplier is the vertex barycenter of the bounded polytope, a
    relative-interior point, so mu_i or lambda_j is nonzero wherever some
    multiplier's is (Goldman & Tucker 1956): every implicit equality of the
    cone becomes explicit.  lambda is the first equality row (``absorb_rows``
    turns it into =0 coordinates), then the equalities and the active
    inequalities with mu_i > 0; entries within ``tol.residual`` of zero
    count as zero, as in the strict CQ.
    """
    mu = np.mean(np.asarray(mset.vertices, dtype=float), axis=0)
    lam = mset.lam_of(mu)
    lam_zero = tol.residual * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
    tight = [i for i in krows.leq if mu[i] > tol.residual]
    eq_rows = [np.where(np.abs(lam) <= lam_zero, 0.0, lam)]
    eq_rows += [grads[i] for i in (*krows.eq, *tight)]
    return eq_rows, [grads[i] for i in krows.leq if i not in tight]


def critical_cone(
    p: ProblemSpec,
    x,
    eta: float = 0.0,
    constraint_rows: bool = True,
    tol: Tolerances = DEFAULT_TOLERANCES,
    mset: Optional["MultiplierSet"] = None,
) -> CriticalCone:
    """Critical cone (eta = 0) or extended critical cone (eta > 0) at x.

    ``constraint_rows=False`` drops the g'(x)-cuts and keeps only the
    tangent cone intersected with the objective cut.  With eta = 0 the
    objective cut enters as f'(x).h <= 0; it is absorbed into the sign
    pattern whenever its terms are single-signed on the tangent cone.

    ``mset``, the multiplier set at x, supplies the active sets, so
    feasibility is not checked again.  On a box at eta = 0 with constraint
    rows, a nonempty bounded ``mset`` also gives the rows of the annihilator
    section (``_annihilator_rows``): the same cone, with its implicit
    equalities explicit.  Box rows are zero on the =0 coordinates, so one
    projection onto the equality rows keeps those coordinates at zero.
    """

    if not eta >= 0.0:  # also rejects NaN, which no direction's cut test passes
        raise UsageError("eta must be nonnegative")
    v = as_entries(x, p.dim)
    if mset is None:
        feas = check_feasible(p, v, tol)
        if not feas.feasible:
            raise InfeasiblePoint("critical cone requested at an infeasible point")
        info = feas.info
    elif np.array_equal(mset.x, v):
        info = mset.info
    else:
        raise UsageError("the multiplier set belongs to another point")
    assert info is not None
    fgrad = np.asarray(p.objective.gradient(v), dtype=float)
    is_box = isinstance(p.abstract_set, BoxSet)
    annihilator = (constraint_rows and is_box and eta == 0.0 and mset is not None
                   and mset.bounded and bool(mset.vertices))

    eq_rows: list[np.ndarray] = []
    ineq_rows: list[np.ndarray] = []
    if annihilator:
        eq_rows, ineq_rows = _annihilator_rows(
            mset, p.constraint_gradients(v), tangent_cone_K(p, info), tol)
    elif constraint_rows:
        grads = p.constraint_gradients(v)
        krows = tangent_cone_K(p, info)
        eq_rows += [grads[i] for i in krows.eq]
        ineq_rows += [grads[i] for i in krows.leq]
    # eta = 0: the objective cut is a row like the others, implied by the
    # annihilator rows; eta > 0: it stays the non-polyhedral test
    # f'(x).h <= eta ||h||
    objective = None
    if eta > 0.0:
        objective = fgrad
    elif not annihilator:
        ineq_rows.append(fgrad)

    if is_box:
        pattern = tangent_cone_box(p.abstract_set, v, tol)
        pattern, eq_left, ineq_left = absorb_rows(pattern, eq_rows, ineq_rows, p.weights)
        zero = pattern._zero
        return CriticalCone(
            p.weights, pattern, (), tuple(np.where(zero, 0.0, r) for r in eq_left),
            tuple(np.where(zero, 0.0, r) for r in ineq_left), objective, eta
        )

    cone_set = p.abstract_set
    if np.max(np.abs(v - cone_set.base)) > tol.activity:
        raise UsageError("generated-cone problems support cone queries at the base point only")
    return CriticalCone(p.weights, None, cone_set.tangent_rays(), tuple(eq_rows),
                        tuple(ineq_rows), objective, eta)


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
    """Alternate pattern clamping and row projection (pattern cones); None if
    it fails."""
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
    entries in {0, +-1}), each row-projected into the cone when needed; the
    section generators that meet the objective cut for ray-based cones, and
    for box cones whose listed section is a single ray, which run indicators
    and gaussian starts can all miss."""

    if cone.base_pattern is None or (cone.has_generators and len(cone.generators) <= 1):
        G = cone.generators
        return list(G[cone.objective_cut_holds(G)][:limit])
    raw: list[np.ndarray] = []
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


# Entries per row block of a battery, drawn or evaluated: 128 KB
# temporaries, which the allocator reuses; blocks of 1024 rows of example1 at
# grid 480 (4 MB) raised the benchmark's peak RSS by 0.5 MB.
_BLOCK_ENTRIES = 16384


def _random_pattern_batch(
    cone: CriticalCone, count: int, rng: np.random.Generator, iterations: int = 60
) -> np.ndarray:
    """One vectorized clamp/project sweep over a batch of gaussian starts;
    returns the unit-norm rows that landed inside the cone.  Clamping works
    in place, so the sweep holds one count x n array and one correction."""

    pattern = cone.base_pattern
    assert pattern is not None
    n = cone.dim
    w = cone.weights
    H = rng.standard_normal((count, n))
    nonneg, nonpos, zero = pattern._nonneg, pattern._nonpos, pattern._zero

    def clamp_batch(M):
        np.maximum(M, 0.0, out=M, where=nonneg)
        np.minimum(M, 0.0, out=M, where=nonpos)
        M[:, zero] = 0.0

    clamp_batch(H)
    if cone.eq_rows:
        RW = cone._eq_weighted
        A, B = cone._eq_projector
        for _ in range(iterations):
            if np.abs(H @ RW.T).max(initial=0.0) <= 1e-10 * (1.0 + np.abs(H).max(initial=0.0)):
                break
            H -= (H @ A.T) @ B
            clamp_batch(H)

    # the tests run on the unit rows: a start that the sweep collapses to
    # round-off residue passes absolute tests, but not once it is normalized
    norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
    keep = norms > 1e-12
    np.divide(H, norms[:, None], out=H, where=keep[:, None])
    scale = 1e-7 * (1.0 + np.abs(H).max(axis=1))
    if cone.eq_rows:
        keep &= np.max(np.abs(H @ cone._eq_weighted.T), axis=1) <= scale * (
            1.0 + max(float(np.max(np.abs(r))) for r in cone.eq_rows)
        )
    for r in cone.ineq_rows:
        keep &= H @ (w * r) <= scale * (1.0 + float(np.max(np.abs(r))))
    if cone.objective_gradient is not None:
        fh = H @ (w * cone.objective_gradient)
        keep &= fh <= cone.eta + scale * (1.0 + float(np.max(np.abs(cone.objective_gradient))))
    return H[keep]


def _cut_reach(k: np.ndarray, a: np.ndarray, eta: float) -> np.ndarray:
    """Per row, the largest s in [0, 1] with (1 - s) c + s d on the cut
    f'(x).h <= eta ||h||, for unit c and d with f'(x).c = 0, f'(x).d = a and
    c.d = k.  With t = s / (1 - s) the cut reads t a <= eta ||c + t d||; for
    a > eta it is A t^2 - 2 eta^2 k t - eta^2 <= 0 with A = a^2 - eta^2 > 0,
    which holds up to the positive root.  Otherwise d meets the cut and s
    runs up to 1 (a middle stretch may still miss it when c and d point
    apart; the cut test on each row drops those draws)."""

    reach = np.ones(len(a))
    bounded = a > eta
    A = a[bounded] ** 2 - eta * eta
    kb = k[bounded]
    t = (eta * eta * kb + eta * np.sqrt(eta * eta * kb * kb + A)) / A
    reach[bounded] = t / (1.0 + t)
    return reach


def _random_section_batch(cone: CriticalCone, count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm combinations of the section generators with exponential
    weights, drawn in row blocks of about ``_BLOCK_ENTRIES`` weights.

    Every combination is a member of the section.  On a box cone with an
    objective cut, the generators split into G0 (f'(x).g = 0, spanning the
    eta = 0 face) and G+ (the rest), since combinations over all of them
    rarely meet the cut.  Each draw is then h = (1 - s) c + s d, with c and
    d unit combinations of G0 and G+ and s uniform on [0, reach), where
    reach is where the segment from c to d leaves the cut
    (``_cut_reach``): the draws cover the cut section up to its boundary.
    The cut is still tested on every row, so a generator put in the wrong
    group costs yield, never membership.  Hull sections, and box sections
    without a split (no cut, or an empty G0 or G+), draw plain
    combinations."""

    G, w, eta = cone.generators, cone.weights, cone.eta
    groups = [G]
    if cone.base_pattern is not None and cone.objective_gradient is not None:
        wf = w * cone.objective_gradient
        face = np.abs(G @ wf) <= 1e-9 * (1.0 + float(np.sum(np.abs(wf))))
        if face.any() and not face.all():
            groups = [G[face], G[~face]]

    def unit(M):
        norms = np.sqrt(np.maximum((M * M) @ w, 0.0))
        return np.divide(M, norms[:, None], out=np.zeros_like(M), where=norms[:, None] > 0.0)

    H = np.empty((count, cone.dim))
    rows = max(1, _BLOCK_ENTRIES // len(G))
    for start in range(0, count, rows):
        block = H[start:start + rows]
        if len(groups) == 1:
            np.matmul(rng.exponential(size=(len(block), len(G))), G, out=block)
            continue
        C = unit(rng.exponential(size=(len(block), len(groups[0]))) @ groups[0])
        D = unit(rng.exponential(size=(len(block), len(groups[1]))) @ groups[1])
        s = rng.random(len(block)) * _cut_reach((C * D) @ w, D @ wf, eta)
        np.multiply(D, s[:, None], out=block)
        block += (1.0 - s)[:, None] * C
    norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
    keep = (norms > 1e-12) & cone.objective_cut_holds(H)
    H = H[keep]
    H /= norms[keep, None]
    return H


def random_directions(
    cone: CriticalCone,
    count: int,
    rng: np.random.Generator,
    max_rounds: int = 10,
) -> np.ndarray:
    """Seeded unit-norm random members of the cone (deterministic given rng),
    at most ``count`` rows.  A round draws ``count`` starts and, unless they
    filled the request, ``count`` more; numpy fills arrays row by row, so
    for the clamp/project sweep and for plain combinations the halves are
    the stream of one ``2 * count`` batch.

    Box cones draw clamped and projected gaussian starts, kept when they
    meet the cuts (``_random_pattern_batch``).  When the first half round
    keeps fewer than ``count / (2 max_rounds)`` rows, too few for the
    rounds to fill the request, a box cone with listed generators
    (``has_generators``) draws the rest as combinations of them
    (``_random_section_batch``).  Ray-based cones draw combinations from
    the start.  A section with a single generator gives none: its
    combinations are copies of that one ray."""

    empty = np.empty((0, cone.dim))
    batch = _random_section_batch if cone.base_pattern is None else _random_pattern_batch
    chunks: list[np.ndarray] = []
    filled = 0
    while filled < count and len(chunks) < 2 * max_rounds:
        starved = len(chunks) == 1 and filled * 2 * max_rounds < count
        if batch is _random_pattern_batch and starved and cone.has_generators:
            batch = _random_section_batch
        if batch is _random_section_batch and len(cone.generators) <= 1:
            break
        chunks.append(batch(cone, count, rng)[: count - filled])
        filled += len(chunks[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate([empty, *chunks])
