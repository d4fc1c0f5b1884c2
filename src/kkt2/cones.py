"""Cone calculus at a feasible point.

Sign-pattern cones describe the radial/tangent/normal cones of a box and
their polars exactly.  The point object (``kkt.multiplier_set``) carries the
two tangent patterns every cone here starts from: the box's
(``tangent_cone_box``, built once per point) and K's at g(x) (=0 on
equalities, <=0 on active inequalities, free on inactive ones).  Critical
cones add linear cuts from the constraint derivatives and the objective.
Each cut r is tested by one formula, at tol (1 + max|h|) (1 + max|r|)
(``CriticalCone._cuts_hold``), in membership and in every sampler whose
draws can fail it.
Every box cone is read off the point object and never folded afterwards.
At a KKT point a box's critical cone (eta = 0) is the annihilator section
of one relative-interior multiplier (``MultiplierSet.annihilator``), so its
implicit equalities enter as =0 coordinates and equality rows, and random
draws land in it after one projection; other box cones keep K's rows and
the objective cut as plain rows.  A box cone lands its draws with one
in-place sweep (``_land_rows``): clamp, one projection onto the rows' null
space, then exact projections onto the section of the rows by each row's
face, each row stopping on its own; a subspace cone (free and =0
coordinates, equality rows only) draws in its basis instead
(``CriticalCone.subspace_basis``).  A hull's critical cone starts from its
tangent rays instead (``base_rays``): their facets (``linalg.cone_facets``)
decide membership, and random draws combine its section generators: the
facets plus the cuts, run through the double-description routine.  A box
cone with inequality rows, where landed gaussian starts rarely meet the
rows and the objective cut, lists the same generators with its sign
pattern read as rows, and draws from them once the starts stop landing.
``radial_density_gap`` measures the Euclidean distance from a direction to
the same kind of section, cut by equality and inequality row matrices, one
NNLS (``linalg.conic_distance``) per truncation; nothing here solves an LP.
Cut rows, rays, generators and direction lists are each one (k, n) array
(the "Polyhedral data" note of ``linalg``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InfeasiblePoint, PolytopeTooLarge, UsageError
from .linalg import PolytopeH, _as_rows, cone_facets, cone_is_trivial, conic_distance
from .model import BoxSet, GeneratedConeSet, as_entries

if TYPE_CHECKING:
    from .kkt import MultiplierSet

FREE, NONNEG, NONPOS, ZERO = 0, 1, 2, 3
_POLAR = np.array([ZERO, NONPOS, NONNEG, FREE], dtype=np.int8)  # the polar code of each code


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
        return SignPatternCone(_POLAR[self.codes])

    def contains(self, h, tol: float = 1e-9) -> bool:
        return bool(self.contains_rows(np.asarray(h, dtype=float)[None], tol)[0])

    def contains_rows(self, H: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Row mask of ``contains`` over the rows of H, each at the scale
        tol (1 + max|h|) of its row."""
        scale = tol * (1.0 + np.abs(H).max(axis=1, initial=0.0))
        return ((H[:, self._nonneg].min(axis=1, initial=0.0) >= -scale)
                & (H[:, self._nonpos].max(axis=1, initial=0.0) <= scale)
                & (np.abs(H[:, self._zero]).max(axis=1, initial=0.0) <= scale))

    def clamp(self, h) -> np.ndarray:
        """Euclidean projection onto the pattern (componentwise), of a copy
        of one vector or of the rows of a matrix."""
        v = np.array(h, dtype=float)
        self.clamp_rows(v)
        return v

    def clamp_rows(self, M: np.ndarray) -> None:
        """``clamp`` in place, on one vector or on the rows of a float
        matrix."""
        np.maximum(M, 0.0, out=M, where=self._nonneg)
        np.minimum(M, 0.0, out=M, where=self._nonpos)
        M[..., self._zero] = 0.0

    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal index-contiguous runs of equal code as (start, stop, code)."""
        c = self.codes
        cuts = [0, *(np.flatnonzero(c[1:] != c[:-1]) + 1).tolist(), self.dim]
        return [(i, j, int(c[i])) for i, j in zip(cuts, cuts[1:]) if i < j]


def _polar_rows(
    pattern: SignPatternCone, M: np.ndarray, rhs: Optional[np.ndarray] = None
) -> PolytopeH:
    """The system in y of "y . M[:, j] - rhs_j has the sign of the polar of
    code j" over the columns j (rhs defaults to 0): the =0 columns give the
    equality rows, the <=0 and >=0 columns (negated) the inequality rows,
    each block in column order."""
    polar = pattern.polar().codes
    sign = np.where(polar == NONPOS, 1.0, np.where(polar == NONNEG, -1.0, 0.0))
    eq, ineq = polar == ZERO, sign != 0.0
    b = np.zeros(M.shape[1]) if rhs is None else rhs
    return PolytopeH(np.vstack([M.T[eq], (M.T * sign[:, None])[ineq]]),
                     np.concatenate([b[eq], (b * sign)[ineq]]), int(np.count_nonzero(eq)))


def tangent_cone_box(box: BoxSet, x, tol: Tolerances = DEFAULT_TOLERANCES) -> SignPatternCone:
    """>=0 at lower-active, <=0 at upper-active, =0 where bounds coincide.
    ``kkt.multiplier_set`` builds it once per point (``c_pattern``), and
    every later check reads it there."""
    v = as_entries(x, box.dim)
    if not box.contains(v, tol.activity):
        raise InfeasiblePoint("point is outside the box")
    lo, up = box.classify(v, tol.activity)
    codes = np.full(box.dim, FREE, dtype=np.int8)
    codes[lo] = NONNEG
    codes[up] = NONPOS
    codes[lo & up] = ZERO
    return SignPatternCone(codes)


# --------------------------------------------------------------------------
# Critical cones
# --------------------------------------------------------------------------


def _rank(sv: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank from the singular values of a matrix of ``shape``."""
    return int(np.sum(sv > sv[0] * max(shape) * np.finfo(float).eps)) if len(sv) else 0


# Half the smallest threshold of the draws' cut test, 1e-7 (1 + max|r|); the
# rows of the two many-multiplier benchmark cones reach 4.9e-10 and 1.2e-9 of it.
_BASIS_CUT_FACTOR = 0.5e-7


@dataclass(frozen=True)
class CriticalCone:
    """Tangent directions kept first-order feasible with the objective cut.

    ``base_pattern`` (box problems) or ``base_rays`` (generated-cone
    problems, (0, n) on a box) carries the abstract-set geometry;
    ``eq_rows``/``ineq_rows`` are the functional cuts, applied through the
    weighted inner product.  All three are read-only (k, n) arrays (any
    sequence of rows is coerced, ``linalg._as_rows``).  The objective
    cut is f'(x).h <= eta ||h|| when ``objective_gradient`` is kept (eta = 0
    gives the plain critical cone).
    """

    weights: np.ndarray
    base_pattern: Optional[SignPatternCone]
    base_rays: np.ndarray
    eq_rows: np.ndarray
    ineq_rows: np.ndarray
    objective_gradient: Optional[np.ndarray]
    eta: float

    def __post_init__(self):
        for name in ("base_rays", "eq_rows", "ineq_rows"):
            object.__setattr__(self, name, _as_rows(getattr(self, name), self.dim))
        object.__setattr__(self, "_battery_cache", {})
        if len(self.eq_rows):
            # h -> h - (h @ A.T) @ B is the weighted projection onto the rows'
            # null space: with s = sqrt(w), the rows of Q are an orthonormal
            # basis of the rows of R * s, A = Q * s and B = Q / s
            R = self.eq_rows
            s = np.sqrt(self.weights)
            _, sv, Vt = np.linalg.svd(R * s, full_matrices=False)
            Q = Vt[:_rank(sv, R.shape)]
            object.__setattr__(self, "_eq_weighted", R * self.weights)
            object.__setattr__(self, "_eq_projector", (Q * s, Q / s))
        else:
            object.__setattr__(self, "_eq_weighted", None)
            object.__setattr__(self, "_eq_projector", None)

    @cached_property
    def subspace_basis(self) -> Optional[np.ndarray]:
        """A weighted-orthonormal basis (rows) of the cone when it is the
        linear subspace {h_Z = 0, <r, h>_w = 0 for every equality row r}: a
        box cone whose pattern has only free and =0 coordinates, with no
        inequality rows and no objective cut (a box's critical cone at a
        strictly complementary KKT point).  None for every other cone.  With
        s = sqrt(w), the rows are N / s for an orthonormal basis N of the
        null space of the rows R * s on the free coordinates (a full SVD),
        and exactly 0 on the =0 coordinates.  A unit draw's |<r, h>_w| is at
        most the 2-norm of the <r, b_i>_w over the basis rows b_i; a basis
        is kept only when that is within ``_BASIS_CUT_FACTOR`` (1 + max|r|)
        for every row r, so its draws pass ``_cuts_hold`` untested."""
        pattern = self.base_pattern
        if (pattern is None or len(self.ineq_rows) or self.objective_gradient is not None
                or (pattern._nonneg | pattern._nonpos).any()):
            return None
        free = ~pattern._zero
        s = np.sqrt(self.weights)
        M = (self.eq_rows * s)[:, free]
        _, sv, Vt = np.linalg.svd(M, full_matrices=True)
        basis = np.zeros((free.sum() - _rank(sv, M.shape), self.dim))
        basis[:, free] = Vt[len(Vt) - len(basis):] / s[free]
        A, bounds, _ = self._cuts
        if np.any(np.sqrt(np.sum((basis @ A.T) ** 2, axis=0)) > _BASIS_CUT_FACTOR * bounds):
            return None
        return basis

    @cached_property
    def ray_facets(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R) with cone(base_rays) = {h : L h = 0, R h <= 0}, computed on
        first use (ray-based cones only)."""
        return cone_facets(self.dim, self.base_rays)

    @cached_property
    def has_generators(self) -> bool:
        """Whether ``generators`` is listed: always for ray-based cones; for
        box cones with inequality rows unless the section has more than
        ``_MAX_GENERATORS`` generators (one mixed-sign row over p >= 0
        and q <= 0 coordinates alone adds p q rays).  Box cones without
        inequality rows need none: the landing sweep lands in them, and a
        subspace cone draws in its basis (``subspace_basis``)."""
        if self.base_pattern is None:
            return True
        if not len(self.ineq_rows):
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
        pattern as rows (``_polar_rows`` of its polar: e_j = 0, -e_j <= 0
        and e_j <= 0 on =0, >=0 and <=0 coordinates) and the weighted rows,
        run through the double description, laid out as ``cone_is_trivial``
        lays them out (each lineality vector l as l and -l, then the extreme
        rays).  The eta > 0 objective cut is not polyhedral; it stays a test
        on each direction (``_cuts_hold``).  Past ``_MAX_GENERATORS`` rays
        the double description raises ``PolytopeTooLarge``."""
        if self.base_pattern is None:
            L, R = self.ray_facets
        else:
            rows = _polar_rows(self.base_pattern.polar(), np.eye(self.dim))
            L, R = rows.eq_rows, rows.ineq_rows
        return cone_is_trivial(self.dim, np.vstack([L, self.weights * self.eq_rows]),
                               np.vstack([R, self.weights * self.ineq_rows]))[1]

    @cached_property
    def _cuts(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(A, bounds, k): the weighted cut rows w r, the k equality rows
        first, then the inequality rows and f'(x), with each row's bound
        1 + max|r|."""
        objective = () if self.objective_gradient is None else (self.objective_gradient,)
        R = np.vstack([self.eq_rows, self.ineq_rows, *objective])
        return R * self.weights, 1.0 + np.abs(R).max(axis=1, initial=0.0), len(self.eq_rows)

    def _cuts_hold(self, H: np.ndarray, tol: float) -> np.ndarray:
        """Row mask over the rows h of H: every cut holds within tol (1 +
        max|h|) (1 + max|r|), taken on |<r, h>_w| for an equality row r,
        <r, h>_w for an inequality row and f'(x).h - eta ||h|| for the
        objective cut."""
        A, bounds, k = self._cuts
        S = H @ A.T
        S[:, :k] = np.abs(S[:, :k])
        if self.objective_gradient is not None:
            S[:, -1] -= self.eta * np.sqrt(np.maximum((H * H) @ self.weights, 0.0))
        scale = tol * (1.0 + np.abs(H).max(axis=1, initial=0.0))
        return np.all(S <= scale[:, None] * bounds, axis=1)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def contains(self, h, tol: float = 1e-9) -> bool:
        return bool(self.contains_rows(np.asarray(h, dtype=float)[None], tol)[0])

    def contains_rows(self, H: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Row mask of ``contains`` over the rows of H: the base cone at the
        scale tol (1 + max|h|) of its row, then every cut (``_cuts_hold``)."""
        if self.base_pattern is not None:
            ok = self.base_pattern.contains_rows(H, tol)
        else:
            L, R = self.ray_facets
            scale = tol * (1.0 + np.abs(H).max(axis=1, initial=0.0))
            ok = ((np.abs(H @ L.T).max(axis=1, initial=0.0) <= scale)
                  & ((H @ R.T).max(axis=1, initial=0.0) <= scale))
        return ok & self._cuts_hold(H, tol)


def critical_cone(mset: "MultiplierSet", eta: float = 0.0) -> CriticalCone:
    """Critical cone (eta = 0) or extended critical cone (eta > 0) at the
    point of ``mset``, read with its tangent patterns, f'(x) and g'(x).

    On a box at eta = 0, a nonempty bounded multiplier set gives the
    annihilator section of its vertex barycenter mu: at a KKT point every
    multiplier gives C(x) = {h in T_C(x), <lambda, h>_w = 0 : g'(x)h in
    T_K(g(x)), mu . g'(x)h = 0}, and the objective row is implied.  The
    barycenter is a relative-interior point, so mu_i or lambda_j is nonzero
    wherever some multiplier's is (Goldman & Tucker 1956): every implicit
    equality of the cone becomes explicit.  The base pattern is the C
    section (``MultiplierSet.annihilator``), and the rows are the g_i'(x)
    with code =0 in the K section as equalities and those with code <=0 as
    inequalities.

    Otherwise the base is the tangent pattern (or the hull's tangent rays)
    with K's rows, and the objective cut is the row f'(x).h <= 0 at eta = 0
    or the non-polyhedral test f'(x).h <= eta ||h|| at eta > 0.  A box
    cone's rows are zeroed on its =0 coordinates, so one projection onto the
    equality rows keeps those coordinates at zero, and a row that is then
    exactly zero, implied by the pattern, is dropped.
    """

    if not 0.0 <= eta < np.inf:  # also rejects NaN, which no direction's cut test passes
        raise UsageError("eta must be nonnegative and finite")
    p, fgrad, grads = mset.problem, mset.f_grad, mset.g_grads
    base, k_pattern = mset.c_pattern, mset.k_pattern
    annihilator = base is not None and eta == 0.0 and mset.bounded and len(mset.vertices) > 0
    if annihilator:
        base, k_pattern, _ = mset.annihilator(np.mean(mset.vertices, axis=0))
    eq_rows, ineq_rows = grads[k_pattern.codes == ZERO], grads[k_pattern.codes == NONPOS]
    if eta == 0.0 and not annihilator:
        ineq_rows = np.vstack([ineq_rows, fgrad])
    objective = fgrad if eta > 0.0 else None

    if base is not None:
        eq_rows, ineq_rows = (np.where(base._zero, 0.0, R) for R in (eq_rows, ineq_rows))
        eq_rows, ineq_rows = (R[np.any(R != 0.0, axis=1)] for R in (eq_rows, ineq_rows))
        return CriticalCone(p.weights, base, (), eq_rows, ineq_rows, objective, eta)

    return CriticalCone(p.weights, None, p.abstract_set.tangent_rays(), eq_rows, ineq_rows,
                        objective, eta)


# --------------------------------------------------------------------------
# Radial-vs-tangent density evidence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    dense: bool
    distances: tuple[float, ...]
    witness: Optional[np.ndarray]


def radial_density_gap(
    descriptor: Union[BoxSet, Sequence[GeneratedConeSet]],
    eq=(),
    ineq=(),
    h=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DensityReport:
    """Evidence for/against density of the radial cone section in the tangent
    cone section {d : E d = 0, I d <= 0} cut by the functionals of the row
    matrices E = ``eq`` and I = ``ineq``.

    Boxes are polyhedral, so the radial and tangent cones agree and every
    section is dense.  For a generated-cone set, the candidate tangent
    direction ``h`` is tested against the radial sections of increasing
    truncations (the explicit rays only — adherent limit rays are exactly
    what radial directions cannot reach); a gap witness is reported when the
    Euclidean distance from h to the section stays at or above the threshold
    for every truncation.  Each section is listed by its double-description
    generators (``CriticalCone.generators``) and the distance is one NNLS
    (``linalg.conic_distance``).  This is numerical evidence, not a proof.
    """

    if isinstance(descriptor, BoxSet):
        return DensityReport(dense=True, distances=(), witness=None)
    cones = list(descriptor)
    if not cones:
        raise UsageError("need at least one truncation")
    if h is None:
        raise UsageError("a candidate tangent direction h is required for hull sets")
    hv = np.asarray(h, dtype=float)

    def distance(c: GeneratedConeSet) -> float:
        section = CriticalCone(np.ones(c.dim), None, c.rays, eq, ineq, None, 0.0)
        return conic_distance(section.generators, hv)

    distances = tuple(map(distance, cones))
    gap = all(d >= tol.density_gap for d in distances)
    return DensityReport(dense=not gap, distances=distances, witness=hv if gap else None)


# --------------------------------------------------------------------------
# Direction generation
# --------------------------------------------------------------------------


def _project_rows(cone: CriticalCone, W: np.ndarray, face: bool) -> None:
    """One projection of the rows of W onto the equality rows, in place.

    Without ``face`` it is the weighted projection onto the rows' null
    space.  With ``face`` it is exact on each row's face: S is the =0
    coordinates and the sign coordinates at 0, m masks the coordinates
    outside S, and v <- m (v - R^T lam) with (R diag(w m) R^T)
    lam = R (w v) is the weighted projection onto {R (w v) = 0, v = 0 on S}.
    One row is a division; more rows use a pseudo-inverse, since a face can
    make them dependent.  The temporaries are a few arrays the size of W and
    one k x k matrix per row."""
    if not face:
        A, B = cone._eq_projector
        W -= (W @ A.T) @ B
        return
    R, RW = cone.eq_rows, cone._eq_weighted
    m = W != 0.0
    m |= cone.base_pattern.codes == FREE
    rhs = W @ RW.T
    k = len(R)
    if k == 1:
        g = m @ (R[0] * RW[0])
        lam = np.divide(rhs, g[:, None], out=np.zeros_like(rhs), where=g[:, None] > 0.0)
    else:
        G = (m @ (R[:, None, :] * RW[None, :, :]).reshape(k * k, -1).T).reshape(-1, k, k)
        lam = (np.linalg.pinv(G, rcond=1e-12, hermitian=True) @ rhs[:, :, None])[:, :, 0]
    W -= lam @ R
    np.copyto(W, 0.0, where=~m)


# Projections a row of the landing sweep gets before it gives up.
_LAND_ITERATIONS = 60


def _land_rows(cone: CriticalCone, V: np.ndarray) -> None:
    """Land the rows of V in a pattern cone, in place: clamp them, then
    project each row that misses the equality rows and clamp it again.  The
    first projection is onto the rows' null space (``_project_rows``), so a
    cone whose starts land after one projection, every annihilator section
    among them, keeps those draws; later ones are exact on the row's face,
    so a step that clamps nothing lands, and each other step adds the
    coordinates it clamps to the face.  Each row stops on its own once its
    equality residual is within 1e-10 (1 + max|v|), or after
    ``_LAND_ITERATIONS`` projections, so it gets the steps it would get alone."""
    pattern = cone.base_pattern
    pattern.clamp_rows(V)
    if not len(cone.eq_rows):
        return
    RW = cone._eq_weighted
    moving, W = np.arange(len(V)), V  # W: the rows of V still moving
    for step in range(_LAND_ITERATIONS):
        off = np.abs(W @ RW.T).max(axis=1, initial=0.0) > 1e-10 * (
            1.0 + np.abs(W).max(axis=1, initial=0.0))
        if not off.all():
            if W is not V:  # until a first row stops, W is V, landed in place
                V[moving[~off]] = W[~off]
            moving, W = moving[off], W[off]
            if not len(moving):
                return
        _project_rows(cone, W, step > 0)
        pattern.clamp_rows(W)
    if W is not V:
        V[moving] = W


def _land(cone: CriticalCone, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_land_rows`` on a copy of the rows of H (pattern cones).  Returns
    the landed rows and the mask of those that are nonzero members at
    1e-7."""
    V = np.array(H, dtype=float)
    _land_rows(cone, V)
    return V, (np.abs(V).max(axis=1, initial=0.0) > 1e-12) & cone.contains_rows(V, 1e-7)


_SIGNS = {FREE: (1.0, -1.0), NONNEG: (1.0,), NONPOS: (-1.0,), ZERO: ()}


def structured_directions(cone: CriticalCone, limit: int) -> np.ndarray:
    """Canonical candidates, the rows of one read-only (k, n) array: run
    indicators for pattern cones (paper scaling, entries in {0, +-1}), then
    unit coordinates, up to ``4 limit`` candidates, each landed in the cone
    when needed (one ``_land`` sweep over the non-members; a landed row
    within 1e-12 of one kept before is dropped); the section generators that
    meet the objective cut for ray-based cones, and for box cones whose
    listed section is a single ray, which run indicators and gaussian starts
    can all miss."""

    if cone.base_pattern is None or (cone.has_generators and len(cone.generators) <= 1):
        G = cone.generators
        return _as_rows(G[cone._cuts_hold(G, 1e-7)][:limit], cone.dim)
    spans = [(start, stop, s) for start, stop, code in cone.base_pattern.runs()
             for s in _SIGNS[code]]
    for i, code in enumerate(cone.base_pattern.codes):
        spans += [(i, i + 1, s) for s in _SIGNS[code]]
        if len(spans) >= 4 * limit:
            break
    raw = np.zeros((len(spans), cone.dim))
    for k, (start, stop, _) in enumerate(spans):
        raw[k, start:stop] = 1.0
    raw *= np.array([s for _, _, s in spans])[:, None]  # -indicator, with its -0.0 entries

    member = cone.contains_rows(raw)
    V, landed = _land(cone, raw[~member])
    raw[~member] = V
    usable = member.copy()
    usable[~member] = landed
    out = np.empty((min(limit, len(raw)), cone.dim))
    kept = 0
    for k in np.flatnonzero(usable):
        if kept >= limit:
            break
        if member[k] or not np.any(np.abs(out[:kept] - raw[k]).max(axis=1) <= 1e-12):
            out[kept] = raw[k]
            kept += 1
    del raw, V  # freed before the copy: beside them it raised example1's peak RSS by 2 MB
    return _as_rows(out[:kept], cone.dim)


# Entries per row block of a battery, drawn or evaluated: 128 KB
# temporaries, which the allocator reuses; blocks of 1024 rows of example1 at
# grid 480 (4 MB) raised the benchmark's peak RSS by 0.5 MB.
_BLOCK_ENTRIES = 16384

# Blocks of section weights combined in one product.  The traced peak of
# check_ssc on a many-multiplier box with 16,448 directions
# (test_ssc_holds_one_battery_at_a_time, bound 9.0 MB) reads 7.87 MB with
# one block per product, 8.45 MB with 4 and 9.18 MB with 8.
_SUPER_BLOCKS = 4


def _random_pattern_batch(cone: CriticalCone, count: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian starts landed in one ``_land_rows`` sweep; returns the
    unit-norm rows that landed inside the cone.  The sweep ends with a
    clamp, so every row lies in the pattern, and the rows are kept on the
    cuts alone (``_cuts_hold``).  The sweep works in place, so it holds one
    count x n array and the rows still moving.

    A subspace cone (``subspace_basis``, d-dimensional) draws d normals per
    row instead and maps them through its basis, with no sweep and no cut
    test: the unit rows are uniform on the cone's unit sphere in the
    weighted norm.  With unit weights that is the law of the sweep's draws,
    one orthogonal projection of a gaussian onto the subspace; with other
    weights the sweep's weighted projection of a Euclidean gaussian is not
    isotropic in the weighted norm, and this draw is."""

    assert cone.base_pattern is not None
    w, basis = cone.weights, cone.subspace_basis
    if basis is None:
        H = rng.standard_normal((count, cone.dim))
        _land_rows(cone, H)
    else:
        H = rng.standard_normal((count, len(basis))) @ basis

    # the tests run on the unit rows: a start that the sweep collapses to
    # round-off residue passes absolute tests, but not once it is normalized
    norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
    keep = norms > 1e-12
    np.divide(H, norms[:, None], out=H, where=keep[:, None])
    if basis is None:  # a basis's unit draws pass the cuts (``subspace_basis``)
        keep &= cone._cuts_hold(H, 1e-7)
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
    combinations.  A split draws each block's weights and s in the same
    calls, order and sizes as a block alone, and normalizes, reaches and
    combines up to ``_SUPER_BLOCKS`` blocks at a time: the draws are the
    per-block ones up to the rounding of the larger products."""

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
    if len(groups) == 1:
        for start in range(0, count, rows):
            block = H[start:start + rows]
            np.matmul(rng.standard_exponential((len(block), len(G))), G, out=block)
    else:
        # each block draws its weights in its own calls, so the stream does
        # not depend on _SUPER_BLOCKS; the products run once per super-block
        span = _SUPER_BLOCKS * rows
        size = min(count, span)
        E0, E1 = (np.empty((size, len(g))) for g in groups)
        U = np.empty(size)
        for top in range(0, count, span):
            r = min(span, count - top)
            for start in range(0, r, rows):
                stop = min(start + rows, r)
                rng.standard_exponential(out=E0[start:stop])
                rng.standard_exponential(out=E1[start:stop])
                rng.random(out=U[start:stop])
            C = unit(E0[:r] @ groups[0])
            D = unit(E1[:r] @ groups[1])
            s = U[:r] * _cut_reach((C * D) @ w, D @ wf, eta)
            block = H[top:top + r]
            np.multiply(D, s[:, None], out=block)
            block += (1.0 - s)[:, None] * C
    norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
    keep = (norms > 1e-12) & cone._cuts_hold(H, 1e-7)
    H = H[keep]
    H /= norms[keep, None]
    return H


# Rounds of ``random_directions`` before it returns what it has.
_MAX_ROUNDS = 10

# Starts of the pilot that decides, before the rounds, whether a box cone
# with inequality rows is starved.
_PILOT_STARTS = 512


def random_directions(cone: CriticalCone, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded unit-norm random members of the cone (deterministic given rng),
    at most ``count`` rows.  A round draws ``count`` starts and, unless they
    filled the request, ``count`` more; numpy fills arrays row by row, so
    for the landing sweep, the basis draw and plain combinations the halves
    are the stream of one ``2 * count`` batch.

    Box cones draw gaussian starts landed by ``_land_rows``, or mapped
    through the basis of a subspace cone, kept when they meet the cuts
    (``_random_pattern_batch``).  A box cone with inequality rows first
    lands a pilot: the first ``min(count, _PILOT_STARTS)`` starts of the
    stream.  When it keeps fewer than ``1 / (2 _MAX_ROUNDS)`` of them, the
    rate at which the rounds cannot fill the request, and the cone lists
    its generators (``has_generators``), its rows come first and the
    rounds draw combinations of the generators (``_random_section_batch``).
    Else the pilot is the first half round, or, when the request is longer,
    the stream goes back to where it was and the rounds land starts as
    without a pilot.  Ray-based cones draw combinations from the start.  A
    section with a single generator gives none: its combinations are
    copies of that one ray."""

    empty = np.empty((0, cone.dim))
    batch = _random_section_batch if cone.base_pattern is None else _random_pattern_batch
    chunks: list[np.ndarray] = []
    if count > 0 and batch is _random_pattern_batch and len(cone.ineq_rows):
        starts = min(count, _PILOT_STARTS)
        state = rng.bit_generator.state
        chunks.append(batch(cone, starts, rng))
        if len(chunks[0]) * 2 * _MAX_ROUNDS < starts and cone.has_generators:
            batch = _random_section_batch
        elif starts < count:
            rng.bit_generator.state = state
            chunks.clear()
    filled = sum(map(len, chunks))
    while filled < count and len(chunks) < 2 * _MAX_ROUNDS:
        if batch is _random_section_batch and len(cone.generators) <= 1:
            break
        chunks.append(batch(cone, count, rng)[: count - filled])
        filled += len(chunks[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate([empty, *chunks])
