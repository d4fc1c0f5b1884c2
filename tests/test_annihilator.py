"""A box's critical cone as the annihilator section of a relative-interior
multiplier: the sections of ``MultiplierSet.annihilator`` against row
absorption, the same set as the cut description, every implicit equality
explicit, a projector that lands in one step, and a battery that is not
empty on a many-multiplier problem."""

import json

import numpy as np
import pytest

from kkt2.cli import main
from kkt2 import cones
from kkt2.cones import (FREE, NONNEG, NONPOS, ZERO, _project_rows, absorb_rows,
                        critical_cone, random_directions)
from kkt2.kkt import multiplier_set

from helpers import (many_multiplier_problem, many_multiplier_spec, plain_critical_cone,
                     random_hull, random_stationary_problem)

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
    return [(p, xbar, mset, plain_critical_cone(mset), critical_cone(mset, 0.0))
            for p, xbar, mset in _box_instances(60)]


def _absorbed_sections(mset, mu):
    """The annihilator sections by row absorption: lambda(mu) and mu with
    their entries within the residual tolerance zeroed, each absorbed as an
    equality row into its tangent pattern, which must leave no row."""
    tol = mset.tol
    lam = mset.lam_of(mu)
    lam = np.where(np.abs(lam) <= tol.residual * (1.0 + np.max(np.abs(lam))), 0.0, lam)
    mu = np.where(np.abs(mu) <= tol.residual, 0.0, mu)
    k_section, left, _ = absorb_rows(mset.k_pattern, [mu], [])
    assert not left
    c_section = None
    if mset.c_pattern is not None:
        c_section, left, _ = absorb_rows(mset.c_pattern, [lam], [])
        assert not left
    return c_section, k_section, lam


def _section_instances():
    """(label, multiplier set): the many-multiplier boxes of seeds 0-3, 50
    seeded stationary boxes and 20 seeded hulls, each with vertices."""
    out = [(f"many{s}", multiplier_set(*many_multiplier_spec(s))) for s in range(4)]
    rng = np.random.default_rng(1956)
    for k in range(50):
        p, xbar, _, _ = random_stationary_problem(rng, max_dim=5, max_constraints=4)
        out.append((f"box{k}", multiplier_set(p, xbar)))
    for seed in range(20):
        p = random_hull(seed)
        out.append((f"hull{seed}", multiplier_set(p, np.zeros(p.dim))))
    return [(label, mset) for label, mset in out if mset.vertices]


class TestAnnihilatorSections:
    def test_same_sections_as_row_absorption(self):
        """At every vertex and at the vertex barycenter."""
        boxes = hulls = 0
        for label, mset in _section_instances():
            for mu in (*mset.vertices, np.mean(mset.vertex_matrix, axis=0)):
                c_section, k_section, lam = mset.annihilator(mu)
                c_ref, k_ref, lam_ref = _absorbed_sections(mset, mu)
                assert np.array_equal(k_section.codes, k_ref.codes), label
                assert np.array_equal(lam, lam_ref), label
                if c_ref is None:
                    assert c_section is None
                    hulls += 1
                else:
                    assert np.array_equal(c_section.codes, c_ref.codes), label
                    boxes += 1
        assert boxes >= 300 and hulls >= 20


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
            a = plain_critical_cone(mset, eta, constraint_rows=rows)
            b = critical_cone(mset, eta, constraint_rows=rows)
            assert np.array_equal(a.base_pattern.codes, b.base_pattern.codes)
            assert len(a.eq_rows) == len(b.eq_rows) and len(a.ineq_rows) == len(b.ineq_rows)


class TestProjector:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_deficient_rows_land_in_one_step(self, seed):
        """Eight equality rows of rank three at scale 0.01, as in the
        many-multiplier benchmark problems."""
        p, x = many_multiplier_spec(seed)
        cone = critical_cone(multiplier_set(p, x), 0.0)
        assert len(cone.eq_rows) == 8 and not cone.ineq_rows
        assert np.linalg.matrix_rank(np.array(cone.eq_rows)) == 3
        codes = cone.base_pattern.codes
        assert set(codes[:18]) == {FREE} and set(codes[18:]) == {ZERO}
        H = cone.base_pattern.clamp(np.random.default_rng(seed).standard_normal((50, 24)))
        P = H.copy()
        _project_rows(cone, P, face=False)
        RW = np.array(cone.eq_rows) * cone.weights
        assert np.abs(P @ RW.T).max() <= 1e-12 * np.abs(H).max()
        assert np.array_equal(cone.base_pattern.clamp(P), P)  # no second step needed
        Q = P.copy()
        _project_rows(cone, Q, face=False)
        assert np.allclose(Q, P, rtol=0.0, atol=1e-14)

    def test_battery_accepts_every_draw(self, monkeypatch):
        p, x = many_multiplier_spec(0)
        cone = critical_cone(multiplier_set(p, x), 0.0)
        monkeypatch.setattr(cones, "_MAX_ROUNDS", 1)
        draws = random_directions(cone, 200, np.random.default_rng(5))
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
