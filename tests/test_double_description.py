"""Differential tests of the double-description routine behind
``cone_is_trivial`` and ``enumerate_vertices``, against the dense LP kernel
and, where scipy is installed, against HiGHS.

Cones are the polar systems the CQ probes build: a seeded random sign
pattern seen through a random matrix, with lineality, all-equality and zero
rows among them.  Polytopes are seeded random ones, with lower-dimensional,
empty and unbounded cases.
"""

import itertools

import numpy as np
import pytest

from kkt2.cones import FREE, NONNEG, NONPOS, ZERO, SignPatternCone
from kkt2 import linalg
from kkt2.errors import PolytopeTooLarge, UnboundedPolytope
from kkt2.kkt import _polar_rows
from kkt2.linalg import (LinearProgram, PolytopeH, _double_description, cone_is_trivial,
                         enumerate_vertices, solve_lp)

from helpers import random_bounded_polytope

TOL = 1e-7


# --------------------------------------------------------------------------
# Cones {nu : nu . M[:, j] has the polar sign of code j}
# --------------------------------------------------------------------------


def random_polar_system(seed):
    """(dim, eq_rows, ineq_rows) from a random pattern and matrix; some
    matrices are integer (degenerate), some columns are zero."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 5)), int(rng.integers(0, 8))
    if seed % 3 == 0:
        M = rng.integers(-1, 2, (m, k)).astype(float)
    else:
        M = rng.standard_normal((m, k))
    M[:, rng.random(k) < 0.15] = 0.0
    codes = rng.choice([FREE, NONNEG, NONPOS, ZERO], size=k, p=[0.15, 0.4, 0.3, 0.15])
    if seed % 7 == 0:
        codes[:] = FREE  # all-equality rows
    eq, ineq = _polar_rows(SignPatternCone(codes), M)
    return m, eq, ineq


def lp_cone_is_trivial(dim, eq, ineq):
    """The reference: maximize each +-coordinate over the cone and the unit box."""
    box = [(s * np.eye(dim)[i], 1.0) for i in range(dim) for s in (1.0, -1.0)]
    for i in range(dim):
        for s in (1.0, -1.0):
            res = solve_lp(LinearProgram(s * np.eye(dim)[i], tuple(eq), tuple(ineq) + tuple(box),
                                         sense="max"))
            if res.value > 1e-7:
                return False
    return True


def lp_polar_contains(eq, ineq, target):
    """Is target = E^T u + A^T v with v >= 0, i.e. in the polar of the cone?"""
    n_u, n_v = len(eq), len(ineq)
    cols = [a for a, _ in eq] + [a for a, _ in ineq]
    if not cols:
        return not np.any(target)
    C = np.array(cols).T
    signs = tuple((-np.eye(n_u + n_v)[n_u + j], 0.0) for j in range(n_v))
    rows = tuple((C[i], float(target[i])) for i in range(len(target)))
    return solve_lp(LinearProgram(np.zeros(n_u + n_v), rows, signs)).is_optimal


def assert_in_cone(g, eq, ineq):
    for a, _ in eq:
        assert abs(float(a @ g)) <= TOL * (1.0 + np.max(np.abs(a)))
    for a, _ in ineq:
        assert float(a @ g) <= TOL * (1.0 + np.max(np.abs(a)))


SEEDS = range(120)


class TestConeGenerators:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_triviality_matches_the_lp_kernel(self, seed):
        dim, eq, ineq = random_polar_system(seed)
        trivial, gens = cone_is_trivial(dim, eq, ineq)
        assert trivial == lp_cone_is_trivial(dim, eq, ineq)
        assert trivial == (len(gens) == 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generators_are_cone_members_of_unit_scale(self, seed):
        dim, eq, ineq = random_polar_system(seed)
        _, gens = cone_is_trivial(dim, eq, ineq)
        for g in gens:
            assert np.max(np.abs(g)) == pytest.approx(1.0, abs=1e-12)
            assert_in_cone(g, eq, ineq)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_axis_reachability_matches_the_lp_kernel(self, seed):
        """+-e_i lies in the polar cone iff every generator has a
        nonpositive (nonnegative) entry i."""
        dim, eq, ineq = random_polar_system(seed)
        _, gens = cone_is_trivial(dim, eq, ineq)
        for i in range(dim):
            for s in (1.0, -1.0):
                by_signs = bool(np.all(s * gens[:, i] <= 1e-9))
                assert by_signs == lp_polar_contains(eq, ineq, s * np.eye(dim)[i])

    def test_lineality_comes_as_opposite_pairs(self):
        """One row in R^3 leaves a plane of lineality plus a ray."""
        trivial, gens = cone_is_trivial(3, [], [(np.array([1.0, 2.0, 0.0]), 0.0)])
        assert not trivial and len(gens) == 5
        for g in gens[:2]:
            assert any(np.allclose(-g, h) for h in gens)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeated_rows_change_nothing(self, seed):
        """Each row followed by copies at scales 1, 2 and 1/4, which repeat it
        after the max-abs scaling, and the whole list once more: the same
        lineality basis and rays, array for array."""
        dim, eq, ineq = random_polar_system(seed)
        eq, ineq = [a for a, _ in eq], [a for a, _ in ineq]
        L, R = _double_description(dim, eq, ineq, 1e-9)

        def repeated(rows):
            return [c * a for a in rows for c in (1.0, 2.0, 0.25)] + list(rows)

        L2, R2 = _double_description(dim, repeated(eq), repeated(ineq), 1e-9)
        assert np.array_equal(L, L2) and np.array_equal(R, R2)

    def test_zero_rows_change_nothing(self):
        zero = (np.zeros(2), 0.0)
        assert cone_is_trivial(2, [zero], [zero])[1].shape == (4, 2)  # the plane: +-e0, +-e1
        rows = [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0)]
        assert cone_is_trivial(2, [zero], rows + [zero])[1].tolist() == \
            cone_is_trivial(2, [], rows)[1].tolist()


# --------------------------------------------------------------------------
# Polytopes
# --------------------------------------------------------------------------


def brute_force_vertices(p):
    """Every feasible point on dim linearly independent rows."""
    rows = list(p.eq_rows) + list(p.ineq_rows)
    out = []
    for combo in itertools.combinations(range(len(rows)), p.dim):
        A = np.array([rows[i][0] for i in combo]).reshape(len(combo), p.dim)
        if np.linalg.matrix_rank(A, tol=1e-10) < p.dim:
            continue
        x = np.linalg.solve(A, [rows[i][1] for i in combo])
        if p.contains(x) and all(abs(a @ x - b) <= 1e-9 for a, b in p.eq_rows) and \
                not any(np.max(np.abs(x - v)) <= 1e-8 for v in out):
            out.append(x)
    return out


def random_polytope(seed):
    """Bounded, lower-dimensional (an equality row or a slab of width 0),
    empty (two contradicting rows) or unbounded (no box rows, and only rows
    that +e_0 does not violate)."""
    rng = np.random.default_rng(100 + seed)
    p = random_bounded_polytope(rng, max_dim=4)
    eq, ineq = list(p.eq_rows), list(p.ineq_rows)
    kind = seed % 5
    c = rng.standard_normal(p.dim)
    x0 = sum(solve_lp(LinearProgram(c, (), p.ineq_rows, sense=s)).point for s in ("min", "max")) / 2
    a = rng.standard_normal(p.dim)
    if kind == 1:
        eq.append((a, float(a @ x0)))
    elif kind == 2:
        ineq += [(a, float(a @ x0)), (-a, -float(a @ x0))]
    elif kind == 3:
        ineq += [(a, -100.0), (-a, -100.0)]
    elif kind == 4:
        ineq = [(a, b) for a, b in ineq[: len(ineq) - 2 * p.dim] if a[0] <= 0.0]
    return PolytopeH(p.dim, tuple(eq), tuple(ineq)), kind


def lp_status(p):
    """'empty', 'unbounded' or 'bounded' from the LP kernel."""
    if not solve_lp(LinearProgram(np.zeros(p.dim), p.eq_rows, p.ineq_rows)).is_optimal:
        return "empty"
    for i in range(p.dim):
        for sense in ("min", "max"):
            res = solve_lp(LinearProgram(np.eye(p.dim)[i], p.eq_rows, p.ineq_rows, sense=sense))
            if res.status == "unbounded":
                return "unbounded"
    return "bounded"


def dd_status(p):
    try:
        verts = enumerate_vertices(p)
    except UnboundedPolytope:
        return "unbounded", []
    return ("bounded" if verts else "empty"), verts


POLYTOPES = range(60)


class TestSizeGuard:
    """Past ``_MAX_GENERATORS`` rays the routine raises.  On a pointed cone
    with linearly independent rays every pair of rays is adjacent, so the
    p q combinations of a row over p rays on its wrong side and q on its
    right side all become rays: the routine raises before building them."""

    @staticmethod
    def _orthant_cut(p, q, zeros=1):
        """The nonnegative orthant cut by a row with p entries +1, q entries
        -1 and ``zeros`` entries 0: q + zeros + p q extreme rays."""
        dim = p + q + zeros
        signs = -np.eye(dim)
        row = np.concatenate([np.ones(p), -np.ones(q), np.zeros(zeros)])
        return dim, [*signs, row], q + zeros + p * q

    @pytest.mark.parametrize("p, q, zeros", [(3, 4, 1), (5, 5, 0), (1, 6, 2)])
    def test_simplicial_cut_at_its_exact_count(self, monkeypatch, p, q, zeros):
        dim, ineq, count = self._orthant_cut(p, q, zeros)
        L, R = _double_description(dim, [], ineq, TOL)
        assert len(L) == 0 and len(R) == count
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", count)
        L2, R2 = _double_description(dim, [], ineq, TOL)
        assert np.array_equal(L2, L) and np.array_equal(R2, R)
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", count - 1)
        with pytest.raises(PolytopeTooLarge):
            _double_description(dim, [], ineq, TOL)

    def test_non_adjacent_rays_keep_the_loop(self, monkeypatch):
        """A square pyramid cut through two opposite edges: the bound is
        2 + 2 x 2 = 6, but only 2 of the 4 pairs are adjacent, so the cut
        has 4 rays and a guard of 4 or 5 must not raise."""
        pyramid = [np.array(r) for r in ([1.0, 0, -1], [-1.0, 0, -1], [0, 1.0, -1], [0, -1.0, -1])]
        ineq = [*pyramid, np.array([1.0, 0.0, 0.0])]
        L, R = _double_description(3, [], ineq, TOL)
        assert len(L) == 0 and len(R) == 4
        for guard in (4, 5):
            monkeypatch.setattr(linalg, "_MAX_GENERATORS", guard)
            assert np.array_equal(_double_description(3, [], ineq, TOL)[1], R)
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", 3)
        with pytest.raises(PolytopeTooLarge):
            _double_description(3, [], ineq, TOL)


class TestPolytopes:
    @pytest.mark.parametrize("seed", POLYTOPES)
    def test_status_and_vertices_match_the_lp_kernel(self, seed):
        p, kind = random_polytope(seed)
        status, verts = dd_status(p)
        assert status == lp_status(p)
        assert status == {3: "empty", 4: "unbounded"}.get(kind, "bounded")
        if status == "bounded":
            expected = brute_force_vertices(p)
            assert len(verts) == len(expected)
            for v in verts:
                assert min(np.max(np.abs(v - e)) for e in expected) <= 1e-8

    def test_tight_sign_rows_hold_exactly(self):
        """The segment mu0 + mu1 = 1, mu >= 0 has the vertices e0 and e1
        with exact zeros, whatever the round-off of the other rows."""
        third = 1.0 / 3.0
        p = PolytopeH(2, ((np.array([third, third]), third),),
                      ((np.array([-1.0, 0.0]), 0.0), (np.array([0.0, -1.0]), 0.0)))
        verts = enumerate_vertices(p)
        assert sorted(v.tolist() for v in verts) == [[0.0, pytest.approx(1.0)],
                                                     [pytest.approx(1.0), 0.0]]
        assert all(0.0 in v for v in verts)

    @pytest.mark.parametrize("eq, ineq, expected", [
        *(pytest.param([([1.0, 1.0], c)], [([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0)],
                       [[0.0, c], [c, 0.0]], id=f"sum={c:g}") for c in 10.0 ** np.arange(6, 13)),
        pytest.param([([1e10], 1e10)], [([-1.0], 0.0)], [[1.0]], id="scaled-row"),
        pytest.param([([1e10, 1e10], 1e10)], [([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0)],
                     [[0.0, 1.0], [1.0, 0.0]], id="scaled-row-2d"),
        pytest.param([([1.0, 1.0], 1.0)],
                     [([-1.0, 0.0], 0.0), ([0.0, -1.0], 0.0), ([1.0, 0.0], 1e12)],
                     [[0.0, 1.0], [1.0, 0.0]], id="redundant-bound"),
        pytest.param([], [([1.0], 1e12), ([-1.0], 0.0)], [[0.0], [1e12]], id="wide-interval"),
        pytest.param([], [([-1.0], -1e-3), ([1.0], 0.0), ([1.0], 1e12)], [], id="empty"),
    ])
    def test_large_scaled_and_redundant_rows(self, eq, ineq, expected):
        """{mu >= 0, mu0 + mu1 = c}: t = 1/c of a vertex must not fall under
        the tightness tolerance of t >= 0.  A row's scale and a far
        redundant bound leave unit vertices alone, and a wide interval or an
        empty set keeps its answer."""
        p = PolytopeH(len((eq or ineq)[0][0]), tuple(eq), tuple(ineq))
        verts = enumerate_vertices(p)
        assert [v.tolist() for v in verts] == [pytest.approx(e, rel=1e-12) for e in expected]


class TestHiGHS:
    """The same answers from an independent solver."""

    @pytest.fixture(autouse=True)
    def linprog(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        self.solve = scipy_optimize.linprog

    def highs(self, c, eq, ineq, dim):
        A_eq = np.array([a for a, _ in eq]).reshape(len(eq), dim) if eq else None
        A_ub = np.array([a for a, _ in ineq]).reshape(len(ineq), dim) if ineq else None
        return self.solve(c, A_ub=A_ub, b_ub=[b for _, b in ineq] or None, A_eq=A_eq,
                          b_eq=[b for _, b in eq] or None, bounds=[(None, None)] * dim,
                          method="highs")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cone_triviality(self, seed):
        dim, eq, ineq = random_polar_system(seed)
        box = [(s * np.eye(dim)[i], 1.0) for i in range(dim) for s in (1.0, -1.0)]
        nontrivial = any(-self.highs(-s * np.eye(dim)[i], eq, list(ineq) + box, dim).fun > 1e-7
                         for i in range(dim) for s in (1.0, -1.0))
        assert cone_is_trivial(dim, eq, ineq)[0] == (not nontrivial)

    @pytest.mark.parametrize("seed", POLYTOPES)
    def test_polytope_status_and_extremes(self, seed):
        p, _ = random_polytope(seed)
        status, verts = dd_status(p)
        feas = self.highs(np.zeros(p.dim), p.eq_rows, p.ineq_rows, p.dim)
        assert (status == "empty") == (feas.status == 2)
        if status == "empty":
            return
        c = np.random.default_rng(seed).standard_normal(p.dim)
        res = self.highs(c, p.eq_rows, p.ineq_rows, p.dim)
        if status == "unbounded":
            rays = [self.highs(s * np.eye(p.dim)[i], p.eq_rows, p.ineq_rows, p.dim).status
                    for i in range(p.dim) for s in (1.0, -1.0)]
            assert 3 in rays
        else:
            assert res.status == 0
            assert res.fun == pytest.approx(min(float(c @ v) for v in verts), abs=1e-8)
