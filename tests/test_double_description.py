"""Differential tests of the double-description routine behind
``cone_is_trivial`` and ``enumerate_vertices``, against the dense LP kernel
and, where scipy is installed, against HiGHS, and of its blocked loop against
the one-row-at-a-time reference (``helpers.double_description_per_pair``).

Cones are the polar systems the CQ probes build: a seeded random sign
pattern seen through a random matrix, with lineality, all-equality and zero
rows among them.  Polytopes are seeded random ones, with lower-dimensional,
empty and unbounded cases.
"""

import itertools
import json

import numpy as np
import pytest

from kkt2.cones import FREE, NONNEG, NONPOS, ZERO, SignPatternCone, _polar_rows
from kkt2 import linalg
from kkt2.errors import PolytopeTooLarge, UnboundedPolytope
from kkt2.linalg import (LinearProgram, PolytopeH, _double_description, cone_is_trivial,
                         enumerate_vertices, solve_lp)

from kkt2.cli import main
from kkt2.examples import run_example1_certification, run_example2_certification

from helpers import double_description_per_pair, many_multiplier_problem, random_bounded_polytope

TOL = 1e-7


# --------------------------------------------------------------------------
# Cones {nu : nu . M[:, j] has the polar sign of code j}
# --------------------------------------------------------------------------


def random_polar_system(seed):
    """(dim, eq_rows, ineq_rows), the row matrices of the polar system of a
    random pattern and matrix; some matrices are integer (degenerate), some
    columns are zero."""
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
    polar = _polar_rows(SignPatternCone(codes), M)
    assert not np.any(polar.b)  # a cone: no right-hand sides
    return m, polar.eq_rows, polar.ineq_rows


def boxed_cone(eq, ineq):
    """The cone's rows cut by the unit box |y_i| <= 1, as one system."""
    dim = eq.shape[1]
    box = np.kron(np.eye(dim), [[1.0], [-1.0]])
    return PolytopeH(np.vstack([eq, ineq, box]),
                     np.concatenate([np.zeros(len(eq) + len(ineq)), np.ones(2 * dim)]), len(eq))


def lp_cone_is_trivial(dim, eq, ineq):
    """The reference: maximize each +-coordinate over the cone and the unit box."""
    boxed = boxed_cone(eq, ineq)
    for i in range(dim):
        for s in (1.0, -1.0):
            res = solve_lp(LinearProgram(s * np.eye(dim)[i], boxed, sense="max"))
            if res.value > 1e-7:
                return False
    return True


def lp_polar_contains(eq, ineq, target):
    """Is target = E^T u + A^T v with v >= 0, i.e. in the polar of the cone?"""
    n_u, n_v = len(eq), len(ineq)
    if not n_u + n_v:
        return not np.any(target)
    C = np.vstack([eq, ineq]).T
    signs = -np.eye(n_u + n_v)[n_u:]
    rows = PolytopeH(np.vstack([C, signs]), np.concatenate([target, np.zeros(n_v)]), len(C))
    return solve_lp(LinearProgram(np.zeros(n_u + n_v), rows)).is_optimal


def assert_in_cone(g, eq, ineq):
    for a in eq:
        assert abs(float(a @ g)) <= TOL * (1.0 + np.max(np.abs(a)))
    for a in ineq:
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
        trivial, gens = cone_is_trivial(3, np.empty((0, 3)), np.array([[1.0, 2.0, 0.0]]))
        assert not trivial and len(gens) == 5
        for g in gens[:2]:
            assert any(np.allclose(-g, h) for h in gens)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeated_rows_change_nothing(self, seed):
        """Each row followed by copies at scales 1, 2 and 1/4, which repeat it
        after the max-abs scaling, and the whole list once more: the same
        lineality basis and rays, array for array."""
        dim, eq, ineq = random_polar_system(seed)
        L, R = _double_description(dim, eq, ineq, 1e-9)

        def repeated(rows):
            return np.vstack([np.kron(rows, [[1.0], [2.0], [0.25]]), rows])

        L2, R2 = _double_description(dim, repeated(eq), repeated(ineq), 1e-9)
        assert np.array_equal(L, L2) and np.array_equal(R, R2)

    def test_zero_rows_change_nothing(self):
        zero = np.zeros((1, 2))
        assert cone_is_trivial(2, zero, zero)[1].shape == (4, 2)  # the plane: +-e0, +-e1
        rows = np.eye(2)
        assert cone_is_trivial(2, zero, np.vstack([rows, zero]))[1].tolist() == \
            cone_is_trivial(2, np.empty((0, 2)), rows)[1].tolist()


# --------------------------------------------------------------------------
# Polytopes
# --------------------------------------------------------------------------


def brute_force_vertices(p):
    """Every feasible point on dim linearly independent rows."""
    out = []
    for combo in itertools.combinations(range(len(p.b)), p.dim):
        A = p.A[list(combo)]
        if np.linalg.matrix_rank(A, tol=1e-10) < p.dim:
            continue
        x = np.linalg.solve(A, p.b[list(combo)])
        if p.contains(x) and np.all(np.abs(p.eq_rows @ x - p.b[: p.n_eq]) <= 1e-9) and \
                not any(np.max(np.abs(x - v)) <= 1e-8 for v in out):
            out.append(x)
    return out


def random_polytope(seed):
    """Bounded, lower-dimensional (an equality row or a slab of width 0),
    empty (two contradicting rows) or unbounded (no box rows, and only rows
    that +e_0 does not violate)."""
    rng = np.random.default_rng(100 + seed)
    p = random_bounded_polytope(rng, max_dim=4)
    A, b = p.A, p.b  # no equality rows
    kind = seed % 5
    c = rng.standard_normal(p.dim)
    x0 = sum(solve_lp(LinearProgram(c, p, sense=s)).point for s in ("min", "max")) / 2
    a = rng.standard_normal(p.dim)
    if kind == 1:
        return PolytopeH(np.vstack([a, A]), np.append(a @ x0, b), 1), kind
    if kind == 2:
        A, b = np.vstack([A, a, -a]), np.append(b, [a @ x0, -(a @ x0)])
    elif kind == 3:
        A, b = np.vstack([A, a, -a]), np.append(b, [-100.0, -100.0])
    elif kind == 4:
        cut = len(A) - 2 * p.dim  # the rows before the box rows
        keep = A[:cut, 0] <= 0.0
        A, b = A[:cut][keep], b[:cut][keep]
    return PolytopeH(A, b), kind


def lp_status(p):
    """'empty', 'unbounded' or 'bounded' from the LP kernel."""
    if not solve_lp(LinearProgram(np.zeros(p.dim), p)).is_optimal:
        return "empty"
    for i in range(p.dim):
        for sense in ("min", "max"):
            res = solve_lp(LinearProgram(np.eye(p.dim)[i], p, sense=sense))
            if res.status == "unbounded":
                return "unbounded"
    return "bounded"


def dd_status(p):
    try:
        verts = enumerate_vertices(p)
    except UnboundedPolytope:
        return "unbounded", []
    return ("bounded" if len(verts) else "empty"), verts


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
        return dim, np.vstack([signs, row]), q + zeros + p * q

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
        pyramid = np.array([[1.0, 0, -1], [-1.0, 0, -1], [0, 1.0, -1], [0, -1.0, -1]])
        ineq = np.vstack([pyramid, [1.0, 0.0, 0.0]])
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
        p = PolytopeH(np.array([[third, third], [-1.0, 0.0], [0.0, -1.0]]),
                      np.array([third, 0.0, 0.0]), 1)
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
        rows = eq + ineq
        p = PolytopeH(np.array([a for a, _ in rows]), np.array([b for _, b in rows]), len(eq))
        verts = enumerate_vertices(p)
        assert [v.tolist() for v in verts] == [pytest.approx(e, rel=1e-12) for e in expected]


class TestHiGHS:
    """The same answers from an independent solver."""

    @pytest.fixture(autouse=True)
    def linprog(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        self.solve = scipy_optimize.linprog

    def highs(self, c, p):
        k = p.n_eq
        return self.solve(c, A_ub=p.ineq_rows if len(p.ineq_rows) else None,
                          b_ub=p.b[k:] if len(p.ineq_rows) else None,
                          A_eq=p.eq_rows if k else None, b_eq=p.b[:k] if k else None,
                          bounds=[(None, None)] * p.dim, method="highs")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cone_triviality(self, seed):
        dim, eq, ineq = random_polar_system(seed)
        boxed = boxed_cone(eq, ineq)
        nontrivial = any(-self.highs(-s * np.eye(dim)[i], boxed).fun > 1e-7
                         for i in range(dim) for s in (1.0, -1.0))
        assert cone_is_trivial(dim, eq, ineq)[0] == (not nontrivial)

    @pytest.mark.parametrize("seed", POLYTOPES)
    def test_polytope_status_and_extremes(self, seed):
        p, _ = random_polytope(seed)
        status, verts = dd_status(p)
        feas = self.highs(np.zeros(p.dim), p)
        assert (status == "empty") == (feas.status == 2)
        if status == "empty":
            return
        c = np.random.default_rng(seed).standard_normal(p.dim)
        res = self.highs(c, p)
        if status == "unbounded":
            rays = [self.highs(s * np.eye(p.dim)[i], p).status
                    for i in range(p.dim) for s in (1.0, -1.0)]
            assert 3 in rays
        else:
            assert res.status == 0
            assert res.fun == pytest.approx(min(float(c @ v) for v in verts), abs=1e-8)


# --------------------------------------------------------------------------
# The blocked loop against the one-row-at-a-time reference
# --------------------------------------------------------------------------


def random_dd_system(seed):
    """(dim, eq_rows, ineq_rows) in dimension seed % 9 (0 to 8): Gaussian or
    small-integer (degenerate) rows, among them zero rows, rows with one
    nonzero entry, and repeats of an earlier row at scales 1, 2 and 1/4."""
    rng = np.random.default_rng(seed)
    dim = seed % 9
    n_eq, n_ineq = int(rng.integers(0, 3)), int(rng.integers(0, dim + 6))
    k = n_eq + n_ineq
    A = rng.integers(-2, 3, (k, dim)).astype(float) if seed % 2 else rng.standard_normal((k, dim))
    for i in range(k):
        u = rng.random()
        if u < 0.1:
            A[i] = 0.0
        elif u < 0.25 and dim:
            A[i] = 0.0
            A[i, rng.integers(dim)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        elif u < 0.4 and i:
            A[i] = A[rng.integers(i)] * rng.choice([1.0, 2.0, 0.25])
    return dim, A[:n_eq], A[n_eq:]


def dd_outcome(routine, dim, eq, ineq, tol):
    """L and R as bytes and shapes, up to the sign of zero, or the name of
    the exception raised."""
    try:
        L, R = routine(dim, eq, ineq, tol)
    except PolytopeTooLarge as err:
        return type(err).__name__
    return (L + 0.0).tobytes(), L.shape, (R + 0.0).tobytes(), R.shape


def assert_same_as_reference(dim, eq, ineq, tol):
    got = dd_outcome(_double_description, dim, eq, ineq, tol)
    assert got == dd_outcome(double_description_per_pair, dim, eq, ineq, tol)


def recorded_inputs(monkeypatch, run):
    """Every (dim, eq, ineq, tol) that ``run()`` hands the double
    description."""
    calls = []

    def spy(dim, eq, ineq, tol):
        calls.append((dim, np.array(eq, dtype=float).reshape(len(eq), dim),
                      np.array(ineq, dtype=float).reshape(len(ineq), dim), tol))
        return _double_description(dim, eq, ineq, tol)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_double_description", spy)
        run()
    return calls


class TestMatchesPerPairReference:
    """The blocked loop returns the reference's L and R bit for bit (up to
    the sign of zero) and raises where it raises."""

    @pytest.mark.parametrize("seed", range(300))
    def test_random_systems(self, seed):
        assert_same_as_reference(*random_dd_system(seed), 1e-9)

    @pytest.mark.parametrize("seed", range(0, 300, 3))
    def test_random_systems_in_one_pair_blocks(self, monkeypatch, seed):
        monkeypatch.setattr(linalg, "_PAIR_BLOCK_ENTRIES", 1)
        assert_same_as_reference(*random_dd_system(seed), 1e-9)

    def test_polar_systems(self):
        for seed in SEEDS:
            assert_same_as_reference(*random_polar_system(seed), TOL)

    def test_dimension_zero(self):
        for eq, ineq in [((), ()), (np.zeros((2, 0)), np.zeros((3, 0))), ([], np.zeros((1, 0)))]:
            L, R = _double_description(0, eq, ineq, TOL)
            assert L.shape == R.shape == (0, 0)
            assert_same_as_reference(0, eq, ineq, TOL)

    @pytest.mark.parametrize("run", [
        pytest.param(lambda: run_example1_certification(12), id="repro example1 grid 12"),
        pytest.param(lambda: run_example2_certification(8), id="repro example2 trunc 8"),
    ])
    def test_repro_chain_inputs(self, monkeypatch, run):
        calls = recorded_inputs(monkeypatch, run)
        assert calls
        for call in calls:
            assert_same_as_reference(*call)

    def test_many_multiplier_check_ssc_inputs(self, monkeypatch, tmp_path, capsys):
        problem, point = many_multiplier_problem(np.random.default_rng(0), 24, 8, 6, 3, 0.01)
        ppath, xpath = tmp_path / "p.json", tmp_path / "x.json"
        ppath.write_text(json.dumps(problem))
        xpath.write_text(json.dumps({"point": point}))
        calls = recorded_inputs(monkeypatch, lambda: main(
            ["check-ssc", str(ppath), "--at", str(xpath), "--eta", "0.1", "--alpha", "0.5"]))
        capsys.readouterr()
        assert any(dim == 24 for dim, *_ in calls)  # the critical cones themselves
        for call in calls:
            assert_same_as_reference(*call)


class TestPairBlocks:
    """The homogenized unit cube [0, 1]^4 in R^5 (16 rays, not simplicial)
    cut by x1 + x2 + x3 + x4 <= 1.5 t: 11 vertices lie on the wrong side and
    5 on the right one, so 55 pairs cross the row, but only the 12 cube
    edges from a sum of 1 to a sum of 2 are adjacent pairs: 5 + 12 = 17
    rays after the cut."""

    CAP = 48

    @staticmethod
    def cut_cube():
        dim = 5
        t = np.eye(dim)[-1]
        ineq = [*(-np.eye(dim)[:4]), *(np.eye(dim)[:4] - t), -t, [1.0, 1.0, 1.0, 1.0, -1.5]]
        return dim, np.zeros((0, dim)), np.array(ineq)

    def blocks(self, monkeypatch, guard):
        """The shapes (pairs, earlier inequalities, rays) of every pair
        block, under the given guard and CAP; None when the guard raised."""
        seen = []

        def spy(common, Z):
            seen.append((*common.shape, len(Z)))
            return adjacent(common, Z)

        adjacent = linalg._adjacent_pairs
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_adjacent_pairs", spy)
            patch.setattr(linalg, "_PAIR_BLOCK_ENTRIES", self.CAP)
            patch.setattr(linalg, "_MAX_GENERATORS", guard)
            try:
                _double_description(*self.cut_cube(), TOL)
            except PolytopeTooLarge:
                return None, seen
        return seen, seen

    def test_the_cut_has_17_rays_and_no_rank_shortcut(self):
        dim, eq, ineq = self.cut_cube()
        L, R = _double_description(dim, eq, ineq, TOL)
        assert len(L) == 0 and len(R) == 17
        cube = _double_description(dim, eq, ineq[:-1], TOL)[1]
        assert len(cube) == 16 and np.linalg.matrix_rank(cube) == 5
        s = cube @ ineq[-1]
        assert np.sum(s > TOL) * np.sum(s < -TOL) == 55

    @pytest.mark.parametrize("guard", range(10, 24))
    def test_raises_where_the_reference_raises(self, monkeypatch, guard):
        completed, _ = self.blocks(monkeypatch, guard)
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", guard)
        reference = dd_outcome(double_description_per_pair, *self.cut_cube(), TOL)
        assert (completed is None) == (reference == "PolytopeTooLarge") == (guard < 17)
        assert dd_outcome(_double_description, *self.cut_cube(), TOL) == reference

    def test_no_block_passes_the_entry_cap(self, monkeypatch):
        seen, _ = self.blocks(monkeypatch, 17)
        cut = [b for b in seen if b[1] == 9]  # the cut row comes after 9 inequalities
        assert sum(b[0] for b in cut) == 55 and len(cut) > 1
        for pairs, earlier, rays in seen:
            assert pairs * max(earlier, rays) <= self.CAP

    def test_the_guard_is_checked_after_each_block(self, monkeypatch):
        """Under a guard of 16 the cut row raises at its twelfth new ray,
        before its last block."""
        full, _ = self.blocks(monkeypatch, 17)
        raised, seen = self.blocks(monkeypatch, 16)
        assert raised is None and 0 < len(seen) < len(full)
