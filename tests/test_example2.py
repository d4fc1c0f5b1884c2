"""Construction checks for the builtin example2 problem."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kkt2 import stages
from kkt2.config import DEFAULT_SEED, DEFAULT_TOLERANCES, SearchBudget
from kkt2.curvature import q_of_h
from kkt2.errors import UsageError
from kkt2.examples import DELTA, GAMMA, build_example2, point_p, point_q, point_r
from kkt2.examples import example2
from kkt2.examples.example1 import verify_matrix_property
from kkt2.examples.example2 import (
    _section_coordinates,
    verify_halfspace_representation,
    verify_section_membership,
)
from kkt2.kkt import multiplier_set
from kkt2.linalg import PolytopeH
from kkt2.model import GeneratedConeSet
from kkt2.report import new_report

from helpers import (
    halfspace_checks_per_point,
    point_r_scalar,
    section_membership_per_point,
    section_sampler_per_sample,
)


class TestConstants:
    def test_gamma_and_delta_relation(self):
        assert GAMMA == pytest.approx((1 + math.sqrt(3)) / 2, abs=0.0)
        assert DELTA == pytest.approx((GAMMA**3 + 1) / (GAMMA * (GAMMA + 1) ** 2), abs=0.0)
        assert DELTA == pytest.approx(0.46410, abs=1e-5)

    def test_diagonal_mixture_weight(self):
        lam = 1.0 / (1.0 + (1.0 / GAMMA) ** 3)
        r = point_r(3, 3)
        assert r[2] == pytest.approx(-lam * 3.0**-4, abs=1e-16)


class TestGeometry:
    def test_scaled_generator_limit(self):
        """n^2 P_n = (1/n, 1, -1/n^2): at n=10 this is (0.1, 1, -0.01)."""
        val = 100.0 * point_p(10)
        assert np.allclose(val, [0.1, 1.0, -0.01], atol=1e-15)

    def test_first_facet_equality_at_p1(self):
        """x.(2k+1, -1, k(k+1)) at k=1 vanishes on P1 = (1, 1, -1)."""
        coef = np.array([3.0, -1.0, 2.0])
        assert coef @ point_p(1) == pytest.approx(0.0, abs=0.0)

    def test_top_facet_annotations(self):
        """x3 <= 0 is tight on O and every Q_n and strictly slack on P_n."""
        for n in range(1, 10):
            assert point_q(n)[2] == 0.0
            assert point_p(n)[2] < -1e-10 * 0 - 1e-16

    def test_halfspace_representation(self):
        rows, _, _, result = _halfspace_check(12)
        assert result[0]
        assert len(rows.A) == 2 + 3 * 10  # k = 1..10 at trunc 12

    def test_halfspace_representation_at_trunc_320(self):
        """P_n sits n^-4 off its boundaries, under 1e-10 from n = 317 on;
        relative to the termwise size of each dot product the slacks of
        unannotated points stay above 3e-9, so none reads as on a boundary."""
        rows, _, _, result = _halfspace_check(320)
        assert result[0]
        assert len(rows.A) == 2 + 3 * 318

    def test_halfspace_verdict_stable_in_truncation(self):
        """Rows with k <= N - 2 keep passing as N grows."""
        for N in (2, 3, 6, 9, 12):
            assert _halfspace_check(N)[3][0]

    def test_halfspace_rows_and_mask_at_trunc_2(self):
        """Two rows and no k-family: x3 <= 0 tight at O, Q_1, Q_2, and
        -x.(1, gamma, 1 + gamma) <= 0 tight at O, P_1, Q_1."""
        rows, on = build_example2(2).geometry.halfspace_rows()
        assert rows.A.shape == (2, 3) and rows.n_eq == 0
        assert on.tolist() == [[True, False, False, True, True],
                               [True, True, False, True, False]]

    def test_section_membership(self):
        ok, worst_member, worst_diag = verify_section_membership(30, 30)
        assert ok
        assert worst_member <= 1e-10
        assert worst_diag <= 1e-10

    def test_offdiagonal_point_strictly_inside(self):
        x = point_r(1, 2)
        assert x[2] + DELTA * x[1] ** 2 < -1e-3

    def test_section_hull_containment_both_ways(self):
        """The plane section of the truncated hull equals the hull of the
        origin and the crossing points, verified structurally one way and by
        sampled membership the other."""
        assert _section_hull_holds(5, samples=100, seed=3)


def _halfspace_check(trunc: int):
    """The half-space rows, their boundary mask, the hull points of the
    problem's set, and the check of the rows against those points."""
    ex = build_example2(trunc)
    rows, on = ex.geometry.halfspace_rows()
    points = ex.problem.abstract_set.hull_points
    return rows, on, points, verify_halfspace_representation(rows, on, points)


def _section_hull_holds(trunc: int, samples: int, seed: int, tol: float = 1e-8) -> bool:
    """Both containments between the plane section of the hull and the
    convex hull of the origin and the R_(k,n), at the given truncation.

    One direction is structural (each R_(k,n) lies on a generator segment
    and on the plane); the other is sampled: random plane points of the
    hull, built as plane crossings of segments between hull samples with
    opposite first coordinates, must lie in conv({O} u {R_(k,n)})."""

    for k in range(1, trunc + 1):
        for n in range(1, trunc + 1):
            r = point_r(k, n)
            lam = 1.0 / (1.0 + (n / (k * GAMMA)) ** 3)
            on_segment = lam * point_p(k) + (1.0 - lam) * point_q(n)
            if abs(r[0]) > tol or float(np.max(np.abs(r - on_segment))) > tol:
                return False

    section_pts = np.array([np.zeros(3)] + [point_r(k, n) for k in range(1, trunc + 1)
                                            for n in range(1, trunc + 1)])
    section = GeneratedConeSet(base=np.zeros(3), rays=(), hull_points=section_pts)
    gens = build_example2(trunc).problem.abstract_set.hull_points
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < samples:
        wa = rng.exponential(size=len(gens))
        wb = rng.exponential(size=len(gens))
        a, b = (wa / wa.sum()) @ gens, (wb / wb.sum()) @ gens
        if a[0] * b[0] >= 0:
            continue
        x = a + a[0] / (a[0] - b[0]) * (b - a)  # hull point with x1 = 0
        if not section.contains(x, tol):
            return False
        checked += 1
    return True


class TestFormulaChecksMatchPerPoint:
    """The one-pass formula checks against the per-point loops."""

    @staticmethod
    def _assert_same_rows(got, want):
        assert got[0] == want[0]
        for g, w in zip(got[1:3], want[1:3]):  # satisfied, exact
            assert np.array_equal(g, w)
        for g, w in zip(got[3:], want[3:]):  # worst slack, worst boundary residual
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("trunc", range(2, 41))
    def test_halfspace_representation(self, trunc):
        rows, on, points, got = _halfspace_check(trunc)
        self._assert_same_rows(got, halfspace_checks_per_point(rows, on, points))

    @pytest.mark.parametrize("trunc", range(2, 41))
    def test_section_membership(self, trunc):
        """Square and lopsided grids up to trunc; the worst values are the
        scalar formula's bit for bit."""
        for k_max, n_max in ((trunc, trunc), (2, trunc), (trunc, 2)):
            got = verify_section_membership(k_max, n_max)
            assert got == section_membership_per_point(k_max, n_max)

    def test_section_coordinates_are_the_scalar_formula(self):
        x2, x3 = _section_coordinates(np.arange(1, 41)[:, None], np.arange(1, 41))
        want = np.array([[point_r_scalar(k, n) for n in range(1, 41)] for k in range(1, 41)])
        assert np.array_equal(x2, want[:, :, 1]) and np.array_equal(x3, want[:, :, 2])
        assert np.array_equal(point_r(7, 3), point_r_scalar(7, 3))

    def test_points_are_the_scalar_formula(self):
        """The array P_n and Q_n rows are the scalar formulas' bit for bit."""
        n = np.arange(1, 41)
        want_p = [[k**-3.0, k**-2.0, -(k**-4.0)] for k in range(1, 41)]
        want_q = [[-((k / GAMMA) ** -3.0), (k / GAMMA) ** -2.0, 0.0] for k in range(1, 41)]
        assert np.array_equal(point_p(n), want_p) and np.array_equal(point_q(n), want_q)

    def test_tampered_row_coefficient_fails(self):
        rows, on, points, _ = _halfspace_check(8)
        A = rows.A.copy()
        A[5, 1] += 1e-6
        tampered = PolytopeH(A, rows.b)
        got = verify_halfspace_representation(tampered, on, points)
        assert not got[0]
        assert not (got[1][5] and got[2][5])
        self._assert_same_rows(got, halfspace_checks_per_point(tampered, on, points))

    def test_unannotated_boundary_point_fails(self):
        """The midpoint of O and Q1 lies on the rows tight at O and Q1."""
        rows, on, points, _ = _halfspace_check(8)
        points = np.vstack([points, 0.5 * point_q(1)])
        on = np.column_stack([on, np.zeros(len(on), dtype=bool)])
        got = verify_halfspace_representation(rows, on, points)
        assert not got[0]
        assert got[2][:2].tolist() == [False, False]
        assert np.all(got[1])
        self._assert_same_rows(got, halfspace_checks_per_point(rows, on, points))

    def test_wrong_delta_fails(self, monkeypatch):
        """A parabola 1% steeper puts the diagonal points above it."""
        monkeypatch.setattr(example2, "DELTA", 1.01 * DELTA)
        got = verify_section_membership(30, 30)
        assert not got[0]
        assert got == section_membership_per_point(30, 30, delta=1.01 * DELTA)


class TestSectionSampler:
    """example2's growth sampler, drawn in row blocks, against the per-sample
    reference: feasibility sample by sample, and the same distribution."""

    COUNT, EPS = 20_000, 0.05

    @pytest.mark.parametrize("trunc", [8, 40])
    def test_samples_feasible_and_distributed_as_per_sample(self, trunc):
        ex = build_example2(trunc)
        S = ex.problem.feasible_sampler(np.random.default_rng(5), ex.xbar, self.EPS, self.COUNT)
        assert isinstance(S, np.ndarray) and S.shape == (self.COUNT, 3) and S.dtype == float
        assert np.all(S[:, 0] == 0.0)
        norms = np.linalg.norm(S - ex.xbar, axis=1)
        assert np.all(norms <= self.EPS * (1.0 + 1e-12))
        cone = ex.geometry.cone_set()
        assert all(cone.contains(x) for x in S)

        ref = np.array(section_sampler_per_sample(trunc)(
            np.random.default_rng(6), ex.xbar, self.EPS, self.COUNT))
        for got, want in [*zip(S.T, ref.T), (norms, np.linalg.norm(ref - ex.xbar, axis=1))]:
            se = math.sqrt((got.var() + want.var()) / self.COUNT)
            assert abs(got.mean() - want.mean()) <= 5.0 * se

    def test_stream_order_of_a_block(self):
        """A block draws its weights, then one radius per row: the first
        sample is the first weight row, normalized, times the vertices."""
        ex = build_example2(3)
        S = ex.problem.feasible_sampler(np.random.default_rng(9), ex.xbar, 10.0, 4)
        rng = np.random.default_rng(9)
        W = rng.standard_exponential((4, 10))
        V = np.array([np.zeros(3)] + [point_r(k, n) for k in range(1, 4) for n in range(1, 4)])
        np.testing.assert_allclose(S, (W / W.sum(axis=1, keepdims=True)) @ V, rtol=0, atol=1e-15)


class TestMatrixProperty:
    def test_unit_vectors_and_hand_values(self):
        from kkt2.examples.example1 import MATRIX_A1, MATRIX_A2

        e1 = np.array([1.0, 0.0])
        assert max(e1 @ MATRIX_A1 @ e1, e1 @ MATRIX_A2 @ e1) == pytest.approx(1.0)
        x = np.array([1.0, 1.0])
        assert x @ MATRIX_A1 @ x == pytest.approx(2.0)
        assert x @ MATRIX_A2 @ x == pytest.approx(1.0)
        assert max(2.0, 1.0) >= 0.5 * 2.0

    def test_property_and_noncoercive_mixtures(self):
        ok, worst, combos = verify_matrix_property(n_samples=2000, seed=0)
        assert ok
        assert worst >= -1e-9
        lam_half = [d for lam, d in combos if abs(lam - 0.5) < 1e-12]
        assert lam_half and lam_half[0] == pytest.approx(-0.5)
        assert all(d < 0 for _, d in combos)


class TestProblem:
    def test_truncation_minimum(self):
        with pytest.raises(UsageError):
            build_example2(1)

    @pytest.mark.parametrize("trunc", [2, 5, 10])
    def test_negative_curvature_independent_of_truncation(self, trunc):
        ex = build_example2(trunc)
        mset = multiplier_set(ex.problem, ex.xbar)
        val, _ = q_of_h(mset, np.array([0.0, 1.0, 0.0]))
        assert val == pytest.approx(-2.0 * DELTA, abs=1e-12)

    def test_objective_closed_form(self):
        ex = build_example2(3)
        x = np.array([0.0, 0.4, -0.2])
        assert ex.problem.objective.value(x) == pytest.approx(-DELTA * 0.16 + 0.2, abs=1e-15)

    def test_feasibility_of_generators(self):
        ex = build_example2(5)
        for n in range(1, 6):
            assert ex.problem.abstract_set.contains(point_p(n), 1e-9)
            assert ex.problem.abstract_set.contains(point_q(n), 1e-9)
        assert not ex.problem.abstract_set.contains(np.array([0.0, 1.0, 0.0]), 1e-9)


class TestRayScaling:
    """A cone does not change when one of its rays is scaled by a positive
    number, and scaling by a power of two is exact: example2's verdicts,
    achieved cones and witness directions (up to a positive scale) do not
    change when every ray, limit ray and deep ray is scaled by its own 2^k,
    k in [-40, 40].  The hull points stay as they are."""

    STAGES = [stages.feasibility, stages.rzkcq, stages.weaker_cq, stages.stationarity,
              stages.strict_cq, stages.snc_sup, lambda c: stages.ssc(c, 0.1, 0.5)]

    @classmethod
    def _records(cls, problem) -> list:
        report = new_report("example2", "", DEFAULT_SEED, np.zeros(3))
        ctx = stages.RunContext(problem, np.zeros(3), DEFAULT_TOLERANCES, SearchBudget(),
                                report, 0.0)
        return stages.run(ctx, cls.STAGES).checks

    @pytest.mark.parametrize("trunc", [4, 8, 40])
    def test_verdicts_do_not_change(self, trunc):
        problem = build_example2(trunc).problem
        want = self._records(problem)
        assert [r.verdict for r in want] == ["pass", "holds", "holds", "holds", "violated",
                                             "violated", "violated"]
        cone = problem.abstract_set
        for draw in range(4):
            rng = np.random.default_rng(draw)
            scaled = replace(cone, **{
                name: np.ldexp(getattr(cone, name),
                               rng.integers(-40, 41, len(getattr(cone, name)))[:, None])
                for name in ("rays", "limit_rays", "deep_rays")})
            got = self._records(replace(problem, abstract_set=scaled))
            assert [r.name for r in got] == [r.name for r in want]
            for g, w in zip(got, want):
                assert g.verdict == w.verdict, (draw, g.name)
                assert g.numbers.get("achieved_cone") == w.numbers.get("achieved_cone")
                assert (g.witness is None) == (w.witness is None), (draw, g.name)
                for key in ("witness", "direction"):
                    if w.witness is not None and key in w.witness:
                        a, b = np.asarray(g.witness[key]), np.asarray(w.witness[key])
                        np.testing.assert_allclose(a / np.linalg.norm(a), b / np.linalg.norm(b),
                                                   rtol=0.0, atol=1e-9)
