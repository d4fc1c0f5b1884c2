"""A box's critical cone as the annihilator section of a relative-interior
multiplier: the same set as the cut description, every implicit equality
explicit, a projector that lands in one step, and a battery that is not
empty on a many-multiplier problem."""

import json

import numpy as np
import pytest

from kkt2.cli import main
from kkt2.cones import FREE, NONNEG, NONPOS, ZERO, critical_cone, random_directions
from kkt2.kkt import multiplier_set

from helpers import (many_multiplier_problem, many_multiplier_spec, plain_critical_cone,
                     random_stationary_problem)

TIGHT = 1e-9


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
    return [(p, xbar, mset, plain_critical_cone(p, mset), critical_cone(p, mset, 0.0))
            for p, xbar, mset in _box_instances(60)]


class TestPromotion:
    def test_same_set(self, instances):
        for _, _, _, plain, promoted in instances:
            for a, b in ((plain, promoted), (promoted, plain)):
                for g in a.generators:
                    assert b.contains(g, 1e-7)

    def test_every_implicit_equality_is_explicit(self, instances):
        """Goldman-Tucker: after promotion no inequality is tight on the
        whole cone, while the plain description keeps some."""
        loose_before = 0
        for _, _, _, plain, promoted in instances:
            gens = plain.generators
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
            a = plain_critical_cone(p, mset, eta, constraint_rows=rows)
            b = critical_cone(p, mset, eta, constraint_rows=rows)
            assert np.array_equal(a.base_pattern.codes, b.base_pattern.codes)
            assert len(a.eq_rows) == len(b.eq_rows) and len(a.ineq_rows) == len(b.ineq_rows)


class TestProjector:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_deficient_rows_land_in_one_step(self, seed):
        """Eight equality rows of rank three at scale 0.01, as in the
        many-multiplier benchmark problems."""
        p, x = many_multiplier_spec(seed)
        cone = critical_cone(p, multiplier_set(p, x), 0.0)
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
        p, x = many_multiplier_spec(0)
        cone = critical_cone(p, multiplier_set(p, x), 0.0)
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
