"""A box's critical cone as the annihilator section of a relative-interior
multiplier: the same set as the cut description, every implicit equality
explicit, a projector that lands in one step, and a battery that is not
empty on a many-multiplier problem."""

import json

import numpy as np
import pytest

from kkt2.cli import main
from kkt2.cones import FREE, NONNEG, NONPOS, ZERO, critical_cone, random_directions
from kkt2.errors import UsageError
from kkt2.kkt import multiplier_set
from kkt2.linalg import cone_is_trivial
from kkt2.problem_file import parse_problem

from helpers import many_multiplier_problem, random_stationary_problem

TIGHT = 1e-9


def _generators(cone) -> np.ndarray:
    """Generators of a box critical cone (pattern and rows, eta = 0)."""
    eq, ineq = [], []
    for j, code in enumerate(cone.base_pattern.codes):
        e = np.eye(cone.dim)[j]
        if code == ZERO:
            eq.append((e, 0.0))
        elif code == NONNEG:
            ineq.append((-e, 0.0))
        elif code == NONPOS:
            ineq.append((e, 0.0))
    eq += [(cone.weights * r, 0.0) for r in cone.eq_rows]
    ineq += [(cone.weights * r, 0.0) for r in cone.ineq_rows]
    return cone_is_trivial(cone.dim, eq, ineq)[1]


def _loose_inequalities(cone, gens) -> list[str]:
    """The inequalities of the cone that every generator is tight on."""
    out = []
    for j, code in enumerate(cone.base_pattern.codes):
        if code in (NONNEG, NONPOS) and np.all(np.abs(gens[:, j]) <= TIGHT):
            out.append(f"coordinate {j}")
    for k, r in enumerate(cone.ineq_rows):
        if np.all(np.abs(gens @ (cone.weights * r)) <= TIGHT):
            out.append(f"row {k}")
    return out


def _box_instances(count: int):
    """Seeded stationary box problems with a nonempty bounded multiplier set."""
    rng = np.random.default_rng(2024)
    found = 0
    while found < count:
        p, xbar, _, _ = random_stationary_problem(rng, max_dim=5, max_constraints=4)
        mset = multiplier_set(p, xbar)
        if not mset.empty and mset.bounded:
            found += 1
            yield p, xbar, mset


@pytest.fixture(scope="module")
def instances():
    return [(p, xbar, mset, critical_cone(p, xbar, 0.0),
             critical_cone(p, xbar, 0.0, mset=mset)) for p, xbar, mset in _box_instances(60)]


class TestPromotion:
    def test_same_set(self, instances):
        for _, _, _, plain, promoted in instances:
            for a, b in ((plain, promoted), (promoted, plain)):
                for g in _generators(a):
                    assert b.contains(g, 1e-7)

    def test_every_implicit_equality_is_explicit(self, instances):
        """Goldman-Tucker: after promotion no inequality is tight on the
        whole cone, while the plain description keeps some."""
        loose_before = 0
        for _, _, _, plain, promoted in instances:
            gens = _generators(plain)
            assert _loose_inequalities(promoted, gens) == []
            loose_before += bool(_loose_inequalities(plain, gens))
        assert loose_before >= 10

    def test_rows_vanish_on_zero_coordinates(self, instances):
        for _, _, _, _, cone in instances:
            zero = cone.base_pattern.codes == ZERO
            for r in (*cone.eq_rows, *cone.ineq_rows):
                assert np.all(r[zero] == 0.0)

    def test_eta_positive_and_display_cones_are_unchanged(self, instances):
        p, xbar, mset, _, _ = instances[0]
        for eta, rows in ((0.3, True), (0.0, False)):
            a = critical_cone(p, xbar, eta, constraint_rows=rows)
            b = critical_cone(p, xbar, eta, constraint_rows=rows, mset=mset)
            assert np.array_equal(a.base_pattern.codes, b.base_pattern.codes)
            assert len(a.eq_rows) == len(b.eq_rows) and len(a.ineq_rows) == len(b.ineq_rows)

    def test_multiplier_set_of_another_point_is_rejected(self, instances):
        p, xbar, mset, _, _ = instances[0]
        with pytest.raises(UsageError):
            critical_cone(p, xbar + 1e-3, 0.0, mset=mset)


def _many_multiplier_spec(seed: int, n=24, m=8, n_lower=6, rank=3, scale=0.01):
    problem, point = many_multiplier_problem(np.random.default_rng(seed), n, m, n_lower,
                                             rank, scale)
    return parse_problem(json.dumps(problem)).build()[0], np.array(point)


class TestProjector:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_deficient_rows_land_in_one_step(self, seed):
        """Eight equality rows of rank three at scale 0.01, as in the
        many-multiplier benchmark problems."""
        p, x = _many_multiplier_spec(seed)
        cone = critical_cone(p, x, 0.0, mset=multiplier_set(p, x))
        assert len(cone.eq_rows) == 8 and not cone.ineq_rows
        assert np.linalg.matrix_rank(np.array(cone.eq_rows)) == 3
        codes = cone.base_pattern.codes
        assert set(codes[:18]) == {FREE} and set(codes[18:]) == {ZERO}
        H = cone.base_pattern.clamp(np.random.default_rng(seed).standard_normal((50, 24)))
        P = cone.project_eq_rows(H)
        RW = np.array(cone.eq_rows) * cone.weights
        assert np.abs(P @ RW.T).max() <= 1e-12 * np.abs(H).max()
        assert np.array_equal(cone.base_pattern.clamp(P), P)  # no second step needed
        assert np.allclose(cone.project_eq_rows(P), P, rtol=0.0, atol=1e-14)

    def test_battery_accepts_every_draw(self):
        p, x = _many_multiplier_spec(0)
        cone = critical_cone(p, x, 0.0, mset=multiplier_set(p, x))
        draws = random_directions(cone, 200, np.random.default_rng(5), max_rounds=1)
        assert draws.shape == (200, 24)
        assert all(cone.contains(h, 1e-9) for h in draws)


class TestNoVacuousSNC:
    def test_check_snc_evaluates_directions(self, tmp_path, capsys):
        """Before the promotion every draw missed the 7-dimensional critical
        subspace: "holds" after 0 directions, sampled_min inf."""
        problem, point = many_multiplier_problem(np.random.default_rng(7), n=12, m=5,
                                                 n_lower=3, rank=2, scale=0.01)
        ppath, xpath = tmp_path / "p.json", tmp_path / "x.json"
        ppath.write_text(json.dumps(problem))
        xpath.write_text(json.dumps({"point": point}))
        assert main(["check-snc", str(ppath), "--at", str(xpath), "--format", "json"]) == 0
        record = next(r for r in json.loads(capsys.readouterr().out)["checks"]
                      if r["name"] == "snc_sup")
        assert record["verdict"] == "holds"
        assert record["numbers"]["directions"] > 0
        assert record["numbers"]["sampled_min"] >= 1.0
