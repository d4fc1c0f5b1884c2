"""LP kernel, vertex enumeration, and weighted-vector tests."""

import numpy as np
import pytest

from kkt2 import linalg
from kkt2.errors import DimensionMismatch, IterationLimit, PolytopeTooLarge, UnboundedPolytope
from kkt2.linalg import (
    LinearProgram,
    PolytopeH,
    WeightedVector,
    conic_distance,
    enumerate_vertices,
    solve_lp,
)

from helpers import random_bounded_polytope


def unit_interval() -> PolytopeH:
    return PolytopeH(1, (), ((np.array([-1.0]), 0.0), (np.array([1.0]), 1.0)))


class TestSolveLP:
    def test_box_endpoint(self):
        """min mu over [0,1] -> 0 at mu=0."""
        res = solve_lp(LinearProgram(np.array([1.0]), (), unit_interval().ineq_rows))
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)

    def test_unbounded_halfline(self):
        """max mu over mu >= 0 -> unbounded with an improving feasible ray."""
        res = solve_lp(LinearProgram(np.array([1.0]), (), ((np.array([-1.0]), 0.0),), sense="max"))
        assert res.status == "unbounded"
        assert res.ray is not None and res.ray[0] > 0  # improves the max
        assert -res.ray[0] <= 1e-12  # feasible for the recession system

    def test_affine_objective_over_interval(self):
        """max (1 - 3 mu) over [0,1] -> 1 at mu = 0."""
        res = solve_lp(LinearProgram(
            np.array([-3.0]), (), unit_interval().ineq_rows, sense="max", constant=1.0,
        ))
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible(self):
        res = solve_lp(LinearProgram(
            np.array([1.0]), ((np.array([1.0]), 2.0),), ((np.array([1.0]), 1.0),),
        ))
        assert res.status == "infeasible"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LinearProgram(np.array([1.0]), ((np.array([1.0, 2.0]), 0.0),))

    def test_iteration_limit(self):
        lp = LinearProgram(np.ones(3), (), tuple(
            (np.eye(3)[i] * s, 1.0) for i in range(3) for s in (1.0, -1.0)
        ))
        with pytest.raises(IterationLimit):
            solve_lp(lp, max_pivots=1)

    def test_no_rows_unbounded(self):
        res = solve_lp(LinearProgram(np.array([1.0, 0.0])))
        assert res.status == "unbounded"

    def test_point_satisfies_rows(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            poly = random_bounded_polytope(rng)
            obj = rng.standard_normal(poly.dim)
            res = solve_lp(LinearProgram(obj, poly.eq_rows, poly.ineq_rows))
            assert res.status == "optimal"
            assert poly.contains(res.point)

    def test_strong_duality_spot_check(self):
        """min c.x st Ax <= b equals its dual max -b.y st A^T y = -c, y >= 0."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            poly = random_bounded_polytope(rng)
            c = rng.standard_normal(poly.dim)
            primal = solve_lp(LinearProgram(c, (), poly.ineq_rows))
            assert primal.status == "optimal"
            A = np.array([a for a, _ in poly.ineq_rows])
            b = np.array([t for _, t in poly.ineq_rows])
            k = len(b)
            eq = tuple((A.T[j], -c[j]) for j in range(poly.dim))
            sign = tuple((-np.eye(k)[i], 0.0) for i in range(k))
            dual = solve_lp(LinearProgram(-b, eq, sign, sense="max"))
            assert dual.status == "optimal"
            assert dual.value == pytest.approx(primal.value, abs=1e-8)


class TestVertexEnumeration:
    def test_unit_interval(self):
        verts = sorted(float(v[0]) for v in enumerate_vertices(unit_interval()))
        assert verts == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_single_point_from_tight_inequalities(self):
        p = PolytopeH(1, (), ((np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)))
        verts = enumerate_vertices(p)
        assert len(verts) == 1
        assert verts[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_unit_simplex(self):
        rows = tuple((-np.eye(3)[i], 0.0) for i in range(3))
        p = PolytopeH(3, ((np.ones(3), 1.0),), rows)
        verts = sorted(tuple(np.round(v, 9)) for v in enumerate_vertices(p))
        assert verts == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(PolytopeH(1, (), ((np.array([-1.0]), 0.0),)))

    def test_dimension_limit(self, monkeypatch):
        """The bound is on the generator count: a cube has 8 vertices."""
        cube = PolytopeH(3, (), tuple((s * np.eye(3)[i], 1.0) for i in range(3) for s in (1, -1)))
        assert len(enumerate_vertices(cube)) == 8
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", 6)
        with pytest.raises(PolytopeTooLarge):
            enumerate_vertices(cube)

    def test_no_duplicates(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            poly = random_bounded_polytope(rng, max_dim=3)
            verts = enumerate_vertices(poly)
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    assert np.max(np.abs(verts[i] - verts[j])) > 1e-8

    def test_wide_box_keeps_its_four_vertices(self):
        """[0, 1e12] x [0, 1]: unscaled, the vertices at x0 = 1e12 read as
        recession rays, and one common scale of 1e12 reads x1 = 1 as tight on
        x1 >= 0; each coordinate shrunk by its own bound keeps all four."""
        I = np.eye(2)
        box = PolytopeH(2, (), ((-I[0], 0.0), (I[0], 1e12), (-I[1], 0.0), (I[1], 1.0)))
        verts = enumerate_vertices(box)
        assert [v.tolist() for v in verts] == [[0.0, 0.0], [0.0, 1.0], [1e12, 0.0],
                                               [1e12, pytest.approx(1.0, rel=1e-12)]]

    def test_wide_box_with_a_coupling_row(self):
        """The same box cut by x0 + 1e12 x1 <= 1.5e12, which couples the
        two scales: five vertices."""
        I = np.eye(2)
        p = PolytopeH(2, (), ((-I[0], 0.0), (I[0], 1e12), (-I[1], 0.0), (I[1], 1.0),
                              (np.array([1.0, 1e12]), 1.5e12)))
        verts = enumerate_vertices(p)
        expected = [[0.0, 0.0], [0.0, 1.0], [5e11, 1.0], [1e12, 0.0], [1e12, 0.5]]
        assert [v.tolist() for v in verts] == [pytest.approx(e, rel=1e-12) for e in expected]

    def test_wide_interval_above_one(self):
        """[1, 1e12]: the smallest bound of x is its lower bound 1, so the
        common scale of the rows finds the vertices."""
        p = PolytopeH(1, (), ((np.array([-1.0]), -1.0), (np.array([1.0]), 1e12)))
        assert [v.tolist() for v in enumerate_vertices(p)] == [[1.0], [pytest.approx(1e12)]]

    def test_lp_matches_vertex_extremes(self):
        """Oracle equivalence: LP optimum equals the extreme over vertices."""
        rng = np.random.default_rng(5)
        for _ in range(25):
            poly = random_bounded_polytope(rng)
            verts = enumerate_vertices(poly)
            assert verts, "bounded nonempty polytope must have vertices"
            obj = rng.standard_normal(poly.dim)
            lo = solve_lp(LinearProgram(obj, poly.eq_rows, poly.ineq_rows))
            hi = solve_lp(LinearProgram(obj, poly.eq_rows, poly.ineq_rows, sense="max"))
            vals = [float(obj @ v) for v in verts]
            assert lo.value == pytest.approx(min(vals), abs=1e-8)
            assert hi.value == pytest.approx(max(vals), abs=1e-8)


class TestRecessionCone:
    """Boundedness through ``enumerate_vertices``: it raises on a nontrivial
    recession cone."""

    def test_bounded_box(self):
        assert len(enumerate_vertices(unit_interval())) == 2

    def test_halfline(self):
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(PolytopeH(1, (), ((np.array([-1.0]), 0.0),)))

    def test_truncated_family_system(self):
        """Rows -n*mu <= 1 (n <= N) plus mu <= 0 have trivial recession."""
        rows = [(np.array([-float(n)]), 1.0) for n in range(1, 9)]
        rows.append((np.array([1.0]), 0.0))
        verts = enumerate_vertices(PolytopeH(1, (), tuple(rows)))
        assert sorted(float(v[0]) for v in verts) == pytest.approx([-1.0 / 8.0, 0.0], abs=1e-12)


class TestWeightedVector:
    def test_positive_weights_required(self):
        with pytest.raises(DimensionMismatch):
            WeightedVector(np.ones(2), np.array([1.0, 0.0]))

    def test_norm_zero_iff_zero(self):
        v = WeightedVector(np.zeros(3), np.array([0.5, 1.0, 2.0]))
        assert v.norm() == 0.0
        w = WeightedVector(np.array([0.0, 1e-8, 0.0]), np.array([0.5, 1.0, 2.0]))
        assert w.norm() > 0.0

    def test_parallelogram_law(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            weights = rng.uniform(0.1, 3.0, n)
            a = WeightedVector(rng.standard_normal(n), weights)
            b = WeightedVector(rng.standard_normal(n), weights)
            apb = WeightedVector(a.entries + b.entries, weights)
            amb = WeightedVector(a.entries - b.entries, weights)
            lhs = apb.norm2() + amb.norm2()
            rhs = 2.0 * (a.norm2() + b.norm2())
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conic_distance_basic():
    rays = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert conic_distance(rays, np.array([2.0, 3.0])) == pytest.approx(0.0, abs=1e-9)
    assert conic_distance(rays, np.array([-1.0, 0.0])) == pytest.approx(1.0, abs=1e-8)
