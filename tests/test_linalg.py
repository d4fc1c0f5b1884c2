"""LP kernel, vertex enumeration, and weighted inner-product tests."""

import numpy as np
import pytest

from kkt2 import linalg
from kkt2.config import DEFAULT_TOLERANCES
from kkt2.errors import DimensionMismatch, IterationLimit, PolytopeTooLarge, UnboundedPolytope
from kkt2.linalg import (
    LinearProgram,
    PolytopeH,
    conic_distance,
    enumerate_vertices,
    solve_lp,
    weighted_norm,
)
from kkt2.model import BoxSet, ProblemSpec, quadratic

from helpers import random_bounded_polytope


def unit_interval() -> PolytopeH:
    return PolytopeH(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]))


def halfline() -> PolytopeH:
    """mu >= 0."""
    return PolytopeH(np.array([[-1.0]]), np.array([0.0]))


class TestSolveLP:
    def test_box_endpoint(self):
        """min mu over [0,1] -> 0 at mu=0."""
        res = solve_lp(LinearProgram(np.array([1.0]), unit_interval()))
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)

    def test_unbounded_halfline(self):
        """max mu over mu >= 0 -> unbounded with an improving feasible ray."""
        res = solve_lp(LinearProgram(np.array([1.0]), halfline(), sense="max"))
        assert res.status == "unbounded"
        assert res.ray is not None and res.ray[0] > 0  # improves the max
        assert -res.ray[0] <= 1e-12  # feasible for the recession system

    def test_affine_objective_over_interval(self):
        """max (1 - 3 mu) over [0,1] -> 1 at mu = 0."""
        res = solve_lp(LinearProgram(np.array([-3.0]), unit_interval(), sense="max", constant=1.0))
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.point[0] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible(self):
        res = solve_lp(LinearProgram(
            np.array([1.0]), PolytopeH(np.array([[1.0], [1.0]]), np.array([2.0, 1.0]), n_eq=1),
        ))
        assert res.status == "infeasible"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LinearProgram(np.array([1.0]), PolytopeH(np.array([[1.0, 2.0]]), np.zeros(1), 1))
        with pytest.raises(DimensionMismatch):
            PolytopeH(np.array([[1.0, 2.0]]), np.zeros(2))

    def test_iteration_limit(self):
        lp = LinearProgram(np.ones(3), PolytopeH(np.kron(np.eye(3), [[1.0], [-1.0]]), np.ones(6)))
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
            res = solve_lp(LinearProgram(obj, poly))
            assert res.status == "optimal"
            assert poly.contains(res.point)

    def test_strong_duality_spot_check(self):
        """min c.x st Ax <= b equals its dual max -b.y st A^T y = -c, y >= 0."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            poly = random_bounded_polytope(rng)
            c = rng.standard_normal(poly.dim)
            primal = solve_lp(LinearProgram(c, poly))
            assert primal.status == "optimal" and poly.n_eq == 0
            A, b, k = poly.A, poly.b, len(poly.b)
            dual_rows = PolytopeH(np.vstack([A.T, -np.eye(k)]), np.concatenate([-c, np.zeros(k)]),
                                  n_eq=poly.dim)
            dual = solve_lp(LinearProgram(-b, dual_rows, sense="max"))
            assert dual.status == "optimal"
            assert dual.value == pytest.approx(primal.value, abs=1e-8)


class TestVertexEnumeration:
    def test_unit_interval(self):
        verts = sorted(float(v[0]) for v in enumerate_vertices(unit_interval()))
        assert verts == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_single_point_from_tight_inequalities(self):
        p = PolytopeH(np.array([[1.0], [-1.0]]), np.zeros(2))
        verts = enumerate_vertices(p)
        assert len(verts) == 1
        assert verts[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_unit_simplex(self):
        p = PolytopeH(np.vstack([np.ones(3), -np.eye(3)]), np.array([1.0, 0.0, 0.0, 0.0]), 1)
        verts = sorted(tuple(np.round(v, 9)) for v in enumerate_vertices(p))
        assert verts == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(halfline())

    def test_dimension_limit(self, monkeypatch):
        """The bound is on the generator count: a cube has 8 vertices."""
        cube = PolytopeH(np.kron(np.eye(3), [[1.0], [-1.0]]), np.ones(6))
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
        box = PolytopeH(np.kron(np.eye(2), [[-1.0], [1.0]]), np.array([0.0, 1e12, 0.0, 1.0]))
        verts = enumerate_vertices(box)
        assert [v.tolist() for v in verts] == [[0.0, 0.0], [0.0, 1.0], [1e12, 0.0],
                                               [1e12, pytest.approx(1.0, rel=1e-12)]]

    def test_wide_box_with_a_coupling_row(self):
        """The same box cut by x0 + 1e12 x1 <= 1.5e12, which couples the
        two scales: five vertices."""
        p = PolytopeH(np.vstack([np.kron(np.eye(2), [[-1.0], [1.0]]), [1.0, 1e12]]),
                      np.array([0.0, 1e12, 0.0, 1.0, 1.5e12]))
        verts = enumerate_vertices(p)
        expected = [[0.0, 0.0], [0.0, 1.0], [5e11, 1.0], [1e12, 0.0], [1e12, 0.5]]
        assert [v.tolist() for v in verts] == [pytest.approx(e, rel=1e-12) for e in expected]

    def test_wide_interval_above_one(self):
        """[1, 1e12]: the smallest bound of x is its lower bound 1, so the
        common scale of the rows finds the vertices."""
        p = PolytopeH(np.array([[-1.0], [1.0]]), np.array([-1.0, 1e12]))
        assert [v.tolist() for v in enumerate_vertices(p)] == [[1.0], [pytest.approx(1e12)]]

    def test_lp_matches_vertex_extremes(self):
        """Oracle equivalence: LP optimum equals the extreme over vertices."""
        rng = np.random.default_rng(5)
        for _ in range(25):
            poly = random_bounded_polytope(rng)
            verts = enumerate_vertices(poly)
            assert len(verts), "bounded nonempty polytope must have vertices"
            obj = rng.standard_normal(poly.dim)
            lo = solve_lp(LinearProgram(obj, poly))
            hi = solve_lp(LinearProgram(obj, poly, sense="max"))
            vals = [float(obj @ v) for v in verts]
            assert lo.value == pytest.approx(min(vals), abs=1e-8)
            assert hi.value == pytest.approx(max(vals), abs=1e-8)


class TestMembership:
    @staticmethod
    def _row_loop(p, x, tol=DEFAULT_TOLERANCES):
        """The per-row loop that ``contains_rows`` replaced: the reference."""
        def within(r, b):
            return r <= tol.feasibility * (1.0 + abs(b))
        k = p.n_eq
        return (all(within(abs(a @ x - b), b) for a, b in zip(p.eq_rows, p.b[:k]))
                and all(within(a @ x - b, b) for a, b in zip(p.ineq_rows, p.b[k:])))

    def test_one_array_pass_matches_the_row_loop(self):
        """Random polytopes cut by one equality row through a vertex, at their
        vertices, at points near them and at random points."""
        rng = np.random.default_rng(7)
        hits = misses = 0
        for _ in range(40):
            q = random_bounded_polytope(rng)
            v = enumerate_vertices(q)[0]
            a = rng.standard_normal(q.dim)
            p = PolytopeH(np.vstack([a, q.A]), np.concatenate([[a @ v], q.b]), 1)
            X = np.vstack([enumerate_vertices(p), v + 1e-8 * rng.standard_normal((5, p.dim)),
                           rng.uniform(-3.0, 3.0, (5, p.dim))])
            mask = p.contains_rows(X)
            assert mask.tolist() == [self._row_loop(p, x) for x in X]
            assert [p.contains(x) for x in X] == mask.tolist()
            hits, misses = hits + int(mask.sum()), misses + int((~mask).sum())
        assert hits > 40 and misses > 40

    def test_the_polytope_of_no_coordinates(self):
        """m = 0: {()} without rows, empty with the row 0 <= -1."""
        assert PolytopeH(np.zeros((0, 0)), np.zeros(0)).contains(np.zeros(0))
        assert not PolytopeH(np.zeros((1, 0)), np.array([-1.0])).contains(np.zeros(0))


class TestRecessionCone:
    """Boundedness through ``enumerate_vertices``: it raises on a nontrivial
    recession cone."""

    def test_bounded_box(self):
        assert len(enumerate_vertices(unit_interval())) == 2

    def test_halfline(self):
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(halfline())

    def test_truncated_family_system(self):
        """Rows -n*mu <= 1 (n <= N) plus mu <= 0 have trivial recession."""
        rows = np.vstack([-np.arange(1.0, 9.0)[:, None], [[1.0]]])
        verts = enumerate_vertices(PolytopeH(rows, np.append(np.ones(8), 0.0)))
        assert sorted(float(v[0]) for v in verts) == pytest.approx([-1.0 / 8.0, 0.0], abs=1e-12)


def weighted_space(weights) -> ProblemSpec:
    """A problem that only carries the weighted inner product."""
    n = len(weights)
    return ProblemSpec(quadratic(0.0, np.zeros(n), np.zeros((n, n))), (), 0,
                       BoxSet(np.full(n, -1.0), np.full(n, 1.0)), np.asarray(weights))


class TestWeightedVector:
    """Vectors under a problem's weighted inner product: ``ProblemSpec.inner``
    and ``norm``, and ``weighted_norm``."""

    def test_positive_weights_required(self):
        with pytest.raises(DimensionMismatch):
            weighted_space(np.array([1.0, 0.0]))

    def test_norm_zero_iff_zero(self):
        weights = np.array([0.5, 1.0, 2.0])
        assert weighted_space(weights).norm(np.zeros(3)) == 0.0
        assert weighted_norm(weights, np.array([0.0, 1e-8, 0.0])) > 0.0

    def test_parallelogram_law(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            space = weighted_space(rng.uniform(0.1, 3.0, n))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            lhs = space.norm(a + b) ** 2 + space.norm(a - b) ** 2
            rhs = 2.0 * (space.inner(a, a) + space.inner(b, b))
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conic_distance_basic():
    rays = np.eye(2)
    assert conic_distance(rays, np.array([2.0, 3.0])) == pytest.approx(0.0, abs=1e-9)
    assert conic_distance(rays, np.array([-1.0, 0.0])) == pytest.approx(1.0, abs=1e-8)
