"""Cone calculus: patterns, polars, critical cones, density evidence."""

import numpy as np
import pytest

from kkt2 import cones
from kkt2.cones import (
    FREE,
    NONNEG,
    NONPOS,
    ZERO,
    CriticalCone,
    SignPatternCone,
    _land,
    critical_cone,
    into_cone,
    radial_density_gap,
    tangent_cone_box,
)
from kkt2.cones import random_directions, structured_directions
from kkt2.errors import InfeasiblePoint, UsageError
from kkt2.examples import build_example1, build_example2
from kkt2.examples.example2 import Example2Set
from kkt2.kkt import multiplier_set
from kkt2.model import BoxSet, ProblemSpec, quadratic

from helpers import many_multiplier_spec


def _unconstrained(box: BoxSet) -> ProblemSpec:
    return ProblemSpec(quadratic(0.0, np.zeros(box.dim), np.zeros((box.dim, box.dim))), (), 0,
                       box, np.ones(box.dim))


def example2_cones(truncs=(5, 10, 20)):
    return [Example2Set(N).cone_set() for N in truncs]


class TestBoxCones:
    def test_example1_tangent_pattern(self):
        ex = build_example1(12)
        pat = tangent_cone_box(ex.problem.abstract_set, ex.xbar)
        codes = pat.codes
        assert all(codes[i] == NONNEG for i in range(4))       # (0, 1/3)
        assert all(codes[i] == FREE for i in range(4, 8))      # (1/3, 2/3)
        assert all(codes[i] == NONPOS for i in range(8, 12))   # (2/3, 1)

    def test_interior_point_free_and_normal_zero(self):
        box = BoxSet(np.full(3, -1.0), np.full(3, 1.0))
        pat = multiplier_set(_unconstrained(box), np.zeros(3)).c_pattern
        assert all(c == FREE for c in pat.codes)
        assert all(c == ZERO for c in pat.polar().codes)

    def test_fixed_component(self):
        box = BoxSet(np.array([0.0, -1.0]), np.array([0.0, 1.0]))
        pat = tangent_cone_box(box, np.array([0.0, 0.5]))
        assert pat.codes[0] == ZERO and pat.codes[1] == FREE

    def test_outside_box_raises(self):
        box = BoxSet(np.zeros(1), np.ones(1))
        with pytest.raises(InfeasiblePoint):
            tangent_cone_box(box, np.array([2.0]))

    def test_example1_normal_pattern(self):
        """<=0 at lower-active, =0 on the free middle, >=0 at upper-active."""
        ex = build_example1(12)
        codes = multiplier_set(ex.problem, ex.xbar).c_pattern.polar().codes
        assert all(codes[i] == NONPOS for i in range(4))
        assert all(codes[i] == ZERO for i in range(4, 8))
        assert all(codes[i] == NONNEG for i in range(8, 12))

    def test_polar_of_polar_is_tangent(self):
        ex = build_example1(12)
        pat = tangent_cone_box(ex.problem.abstract_set, ex.xbar)
        assert np.array_equal(pat.polar().polar().codes, pat.codes)

    def test_bipolar_on_random_patterns(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            codes = rng.integers(0, 4, size=rng.integers(1, 12)).astype(np.int8)
            pat = SignPatternCone(codes)
            assert np.array_equal(pat.polar().polar().codes, codes)

    def test_membership_consistency(self):
        """h and -h both tangent forces box-active components to vanish."""
        ex = build_example1(12)
        pat = tangent_cone_box(ex.problem.abstract_set, ex.xbar)
        rng = np.random.default_rng(19)
        for _ in range(50):
            h = rng.standard_normal(12)
            if pat.contains(h) and pat.contains(-h):
                active = list(range(4)) + list(range(8, 12))
                assert np.max(np.abs(h[active])) <= 1e-9


class TestKTangent:
    """K's tangent pattern on the point object, and C's beside it."""

    def test_all_equalities(self):
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.zeros((2, 2))),
            tuple(quadratic(0.0, np.eye(2)[i], np.zeros((2, 2))) for i in range(2)),
            2, BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        assert multiplier_set(p, np.zeros(2)).k_pattern.codes.tolist() == [ZERO, ZERO]

    def test_single_active_inequality(self):
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.zeros((2, 2))),
            (quadratic(0.0, np.array([1.0, 0.0]), np.zeros((2, 2))),
             quadratic(-1.0, np.array([0.0, 1.0]), np.zeros((2, 2)))),
            0, BoxSet(np.full(2, -2.0), np.full(2, 2.0)), np.ones(2))
        assert multiplier_set(p, np.zeros(2)).k_pattern.codes.tolist() == [NONPOS, FREE]

    def test_example2_single_equality_row(self):
        ex = build_example2(4)
        assert multiplier_set(ex.problem, ex.xbar).k_pattern.codes.tolist() == [ZERO]

    def test_hull_has_no_box_pattern(self):
        ex = build_example2(4)
        assert multiplier_set(ex.problem, ex.xbar).c_pattern is None

    @pytest.mark.parametrize("seed", range(3))
    def test_box_pattern_is_the_tangent_pattern(self, seed):
        p, x = many_multiplier_spec(seed)
        pattern = multiplier_set(p, x).c_pattern
        assert np.array_equal(pattern.codes, tangent_cone_box(p.abstract_set, x).codes)
        assert set(pattern.codes.tolist()) == {FREE, NONNEG}


class TestCriticalCone:
    def test_example1_display_cone_members(self):
        ex = build_example1(12)
        cone = ex.display_critical_cone(multiplier_set(ex.problem, ex.xbar))
        assert cone.contains(ex.direction_lower_indicator())
        assert cone.contains(ex.direction_upper_indicator())
        codes = cone.base_pattern.codes
        assert all(codes[i] == ZERO for i in range(8, 9))   # (2/3, 3/4) pinned
        assert all(codes[i] == NONPOS for i in range(9, 12))

    def test_example1_full_cone_excludes_h1(self):
        """With the constraint row, chi_(0,1/3) is no longer critical."""
        ex = build_example1(12)
        cone = critical_cone(multiplier_set(ex.problem, ex.xbar), 0.0)
        assert not cone.contains(ex.direction_lower_indicator())
        assert cone.contains(ex.direction_upper_indicator())

    def test_example2_member(self):
        ex = build_example2(6)
        cone = critical_cone(multiplier_set(ex.problem, ex.xbar), 0.0)
        assert cone.contains(np.array([0.0, 1.0, 0.0]))
        assert not cone.contains(np.array([0.0, 0.0, -1.0]))

    def test_zero_objective_gradient(self):
        """With f'(x)=0 the objective cut is vacuous: K = tangent cap rows."""
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.eye(2)),
            (quadratic(0.0, np.array([1.0, 1.0]), np.zeros((2, 2))),),
            1, BoxSet(np.zeros(2), np.ones(2)), np.ones(2))
        cone = critical_cone(multiplier_set(p, np.zeros(2)), 0.0)
        assert cone.contains(np.array([1.0, -1.0])) is False  # pattern >=0
        assert cone.contains(np.array([0.0, 0.0]))
        h = np.array([1.0, 1.0])
        assert not cone.contains(h)  # violates g' row
        # direction in the pattern with g'.h = 0
        assert cone.contains(np.zeros(2))

    def test_infeasible_point_rejected(self):
        """The cone's point object, the multiplier set, refuses the point."""
        ex = build_example1(12)
        with pytest.raises(InfeasiblePoint):
            critical_cone(multiplier_set(ex.problem, np.full(12, 2.0)), 0.0)

    @pytest.mark.parametrize("eta", [-0.1, float("nan")])
    @pytest.mark.parametrize("build, size", [(build_example1, 12), (build_example2, 4)])
    def test_eta_must_be_nonnegative(self, build, size, eta):
        """A NaN eta would keep an objective cut that no direction passes,
        so check-ssc on a hull found no direction and reported a vacuous
        "holds"."""
        ex = build(size)
        with pytest.raises(UsageError):
            critical_cone(multiplier_set(ex.problem, ex.xbar), eta)

    def test_eta_zero_contained_in_eta_positive(self):
        ex = build_example1(12)
        mset = multiplier_set(ex.problem, ex.xbar)
        cone0, cone_eta = critical_cone(mset, 0.0), critical_cone(mset, 0.5)
        rng = np.random.default_rng(23)
        members = random_directions(cone0, 40, rng)
        assert len(members)
        for h in members:
            assert cone_eta.contains(h, 1e-7)

    def test_objective_annihilated_on_display_cone(self):
        """Stationary point, strictly positive multiplier: critical
        directions have zero objective derivative."""
        ex = build_example1(12)
        cone = ex.display_critical_cone(multiplier_set(ex.problem, ex.xbar))
        rng = np.random.default_rng(29)
        fgrad = ex.f_grad
        for h in random_directions(cone, 60, rng):
            assert abs(ex.problem.inner(fgrad, h)) <= 1e-9


class TestOneCutFormula:
    """Every cut of a critical cone is tested at tol (1 + max|h|) (1 +
    max|r|) per row r, the objective cut f'(x).h <= eta ||h|| included."""

    F, ETA, TOL = np.array([100.0, 0.0]), 0.5, 1e-7

    def _cone(self):
        return CriticalCone(np.ones(2), SignPatternCone(np.array([FREE, FREE])), (), (), (),
                            self.F, self.ETA)

    def _rows_at(self, excess):
        """Rows h = (a, b) with f'(x).h = eta ||h|| + excess s, s = tol (1 +
        max|h|) (1 + max|f'(x)|), by bisection on a for each b."""
        rows = []
        for b in (-2.0, -1.0, -0.25, 0.25, 1.0, 2.0):
            def gap(a):
                h = np.array([a, b])
                s = self.TOL * (1.0 + np.abs(h).max()) * (1.0 + np.abs(self.F).max())
                return self.F @ h - self.ETA * np.linalg.norm(h) - excess * s
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
            rows.append([hi, b])
        return np.array(rows)

    def test_objective_cut_scales_with_the_gradient(self):
        cone = self._cone()
        assert cone.contains_rows(self._rows_at(0.5), self.TOL).all()
        assert not cone.contains_rows(self._rows_at(2.0), self.TOL).any()

    def test_every_random_draw_passes_the_same_test(self):
        cone = self._cone()
        H = random_directions(cone, 2000, np.random.default_rng(5))
        assert len(H) > 100
        assert cone.contains_rows(H, self.TOL).all()


class TestRadialDensityGap:
    def test_box_always_dense(self):
        box = BoxSet(np.zeros(2), np.ones(2))
        rep = radial_density_gap(box, np.empty((0, 2)), np.empty((0, 2)))
        assert rep.dense

    def test_two_functional_gap(self):
        """Cutting with both derivative rows leaves only the zero radial
        direction, distance 1 from the tangent direction at every
        truncation."""
        h = np.array([0.0, 1.0, 0.0])
        rep = radial_density_gap(example2_cones(), np.array([[1.0, 0.0, 0.0]]),
                                 np.array([[0.0, 0.0, -1.0]]), h)
        assert not rep.dense
        assert rep.witness is not None
        assert all(d >= 0.1 for d in rep.distances)
        assert rep.distances == pytest.approx((1.0, 1.0, 1.0), abs=1e-8)

    def test_single_functional_dense(self):
        """One row keeps mixed generator combinations available; the
        distance decays with the truncation."""
        h = np.array([0.0, 1.0, 0.0])
        rep = radial_density_gap(example2_cones(), np.array([[1.0, 0.0, 0.0]]),
                                 np.empty((0, 3)), h)
        assert rep.dense
        assert rep.distances[0] > rep.distances[1] > rep.distances[2]
        assert rep.distances[-1] < 0.05


def _serial_structured(cone, limit):
    """Reference for ``structured_directions`` on pattern cones: one
    candidate at a time, a member kept as it is, any other landed by
    ``into_cone`` and kept unless within 1e-12 of a row kept before."""
    n, raw = cone.dim, []
    signs = {FREE: (1.0, -1.0), NONNEG: (1.0,), NONPOS: (-1.0,), ZERO: ()}
    for start, stop, code in cone.base_pattern.runs():
        ind = np.zeros(n)
        ind[start:stop] = 1.0
        raw += [s * ind for s in signs[code]]
    for i in range(n):
        raw += [s * np.eye(n)[i] for s in signs[int(cone.base_pattern.codes[i])]]
        if len(raw) >= 4 * limit:
            break
    out = []
    for h in raw:
        if len(out) >= limit:
            break
        if cone.contains(h):
            out.append(h)
            continue
        fixed = into_cone(cone, h)
        if fixed is not None and not any(np.max(np.abs(fixed - o)) <= 1e-12 for o in out):
            out.append(fixed)
    return out


def _sweep_cones():
    for grid in (120, 480):
        ex = build_example1(grid)
        mset = multiplier_set(ex.problem, ex.xbar)
        for eta in (0.0, 0.1):
            yield f"example1 {grid} eta {eta}", critical_cone(mset, eta)
    for seed in (0, 1):
        p, x = many_multiplier_spec(seed)
        mset = multiplier_set(p, x)
        for eta in (0.0, 0.1):
            yield f"many {seed} eta {eta}", critical_cone(mset, eta)


class TestStructuredSweep:
    """``structured_directions`` lands its candidates in one sweep with
    per-row stopping; it keeps the rows, order and selection of landing them
    one at a time."""

    @pytest.mark.parametrize("limit", [4, 64])
    def test_matches_the_serial_reference(self, limit):
        for name, cone in _sweep_cones():
            assert cone.base_pattern is not None
            batch = structured_directions(cone, limit)
            serial = _serial_structured(cone, limit)
            assert len(batch) == len(serial), name
            assert len(batch) or limit < 64, name
            for h, ref in zip(batch, serial):
                assert np.max(np.abs(h - ref)) <= 1e-12, name
                assert cone.contains(h, 1e-7), name

    def test_rows_stop_on_their_own(self):
        """Gaussian starts on example1's eta = 0.1 cone need different
        numbers of projections; each landed row matches its one-row case."""
        ex = build_example1(120)
        cone = critical_cone(multiplier_set(ex.problem, ex.xbar), 0.1)
        H = np.random.default_rng(8).standard_normal((40, ex.grid))
        V, ok = _land(cone, H)
        for h, v, landed in zip(H, V, ok):
            single = into_cone(cone, h)
            assert landed == (single is not None)
            if landed:
                assert np.max(np.abs(v - single)) <= 1e-12
        assert ok.any()

    def test_landing_moves_a_row(self):
        """The eta = 0.1 cone of example1 keeps an equality row, so some
        candidates are not members and need the sweep."""
        ex = build_example1(120)
        cone = critical_cone(multiplier_set(ex.problem, ex.xbar), 0.1)
        assert len(cone.eq_rows)
        rows = structured_directions(cone, 64)
        assert any(not set(np.unique(h)) <= {-1.0, 0.0, 1.0} for h in rows)


def _landing_cones():
    """Pattern cones with equality rows: example1's eta = 0.1 cones (one
    row; at eta = 0 that row is zero off the =0 coordinates and is dropped)
    and the annihilator sections of the many-multiplier problems (eight
    rows)."""
    for grid in (120, 480):
        ex = build_example1(grid)
        mset = multiplier_set(ex.problem, ex.xbar)
        for eta in (0.0, 0.1):
            cone = critical_cone(mset, eta)
            assert bool(len(cone.eq_rows)) == (eta > 0.0)
            yield f"example1 {grid} eta {eta}", cone
    for seed in range(4):
        p, x = many_multiplier_spec(seed)
        yield f"many {seed}", critical_cone(multiplier_set(p, x), 0.0)


def _singular_face_cone():
    """{h in R^5 : h0, h1, h4 >= 0, <r, h>_w = 0 for three rows r}.  On a
    face with h0 = h1 = 0 the first two rows agree, so the face step's Gram
    matrix is singular there."""
    pattern = SignPatternCone(np.array([NONNEG, NONNEG, FREE, FREE, NONNEG]))
    rows = (np.array([1.0, 0.0, 1.0, -1.0, 0.0]), np.array([0.0, 1.0, 1.0, -1.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 1.0, -1.0]))
    return CriticalCone(np.array([1.0, 2.0, 0.5, 1.5, 1.0]), pattern, (), rows, (), None, 0.0)


def _assert_landed(name, cone, V):
    """Every row meets the sign pattern exactly and the equality rows to
    1e-10 (1 + max|v|)."""
    codes = cone.base_pattern.codes
    assert np.all(V[:, codes == NONNEG] >= 0.0), name
    assert np.all(V[:, codes == NONPOS] <= 0.0), name
    assert np.all(V[:, codes == ZERO] == 0.0), name
    if len(cone.eq_rows):
        residual = np.abs(V @ cone._eq_weighted.T).max(axis=1)
        assert np.all(residual <= 1e-10 * (1.0 + np.abs(V).max(axis=1))), name


class TestLandingSweep:
    """``_land_rows``: one projection onto the rows' null space, then exact
    projections onto each row's face, every row stopping on its own."""

    def test_landed_rows_meet_pattern_and_rows(self):
        for k, (name, cone) in enumerate(_landing_cones()):
            V, ok = _land(cone, np.random.default_rng(k).standard_normal((300, cone.dim)))
            _assert_landed(name, cone, V)
            assert ok.sum() >= 150, name

    def test_singular_face_gram_lands(self, monkeypatch):
        """Starts that the first projection leaves with h0 = h1 < 0 are
        clamped onto the face where the Gram matrix is singular; the
        pseudo-inverse step still lands them exactly."""
        cone = _singular_face_cone()
        faces = []
        project = cones._project_rows

        def recording(cone, W, face):
            if face:
                faces.append(np.array(W))
            project(cone, W, face)

        monkeypatch.setattr(cones, "_project_rows", recording)
        V, ok = _land(cone, np.random.default_rng(5).standard_normal((400, 5)))
        _assert_landed("singular face", cone, V)
        singular = [h for W in faces for h in W if h[0] == h[1] == 0.0]
        assert len(singular) >= 20
        assert ok.sum() >= 200
