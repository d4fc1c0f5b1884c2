"""A box's critical cone as the annihilator section of a relative-interior
multiplier: the sections of ``MultiplierSet.annihilator`` against row
absorption, the same set as the cut description (also at eta > 0, and as
example1's display cone), every implicit equality explicit, a projector
that lands in one step, and a battery that is not empty on a
many-multiplier problem."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kkt2.cli import main
from kkt2.examples import build_example1
from kkt2 import cones
from kkt2.cones import (FREE, NONNEG, NONPOS, ZERO, _project_rows, critical_cone,
                        random_directions)
from kkt2.kkt import multiplier_set
from kkt2.problem_file import parse_problem

from helpers import (absorb_rows, many_multiplier_problem, many_multiplier_spec,
                     plain_critical_cone, random_hull, random_stationary_problem)

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
    return [(label, mset) for label, mset in out if len(mset.vertices)]


class TestAnnihilatorSections:
    def test_same_sections_as_row_absorption(self):
        """At every vertex and at the vertex barycenter."""
        boxes = hulls = 0
        for label, mset in _section_instances():
            for mu in (*mset.vertices, np.mean(mset.vertices, axis=0)):
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

    def test_eta_positive_cone_is_the_cut_description(self, instances):
        """At eta = 0.3 both describe T_C cut by K's rows and f'(x).h <= 0.3
        ||h||; the objective test is the same on both, so the rest must be
        the same set: each contains the other's generators."""
        checked = 0
        for _, _, mset, _, _ in instances:
            a, b = (replace(c, objective_gradient=None, eta=0.0)
                    for c in (plain_critical_cone(mset, 0.3), critical_cone(mset, 0.3)))
            for c, d in ((a, b), (b, a)):
                for g in c.generators:
                    assert d.contains(g, 1e-7)
                    checked += 1
        assert checked >= 100


@pytest.mark.parametrize("grid", [12, 120, 480])
def test_example1_display_cone_is_the_objective_cut(grid):
    """The display cone, the C section of lambda(0), is T_C ∩ {f'(x).h <=
    0} with the cut absorbed: the same pattern, and no rows on either."""
    ex = build_example1(grid)
    mset = multiplier_set(ex.problem, ex.xbar)
    display = ex.display_critical_cone(mset)
    absorbed = plain_critical_cone(mset, 0.0, constraint_rows=False)
    for cone in (display, absorbed):
        assert not len(cone.eq_rows) and not len(cone.ineq_rows)
        assert cone.objective_gradient is None
    assert np.array_equal(display.base_pattern.codes, absorbed.base_pattern.codes)


@pytest.mark.parametrize("grid", [12, 120, 480, 1920])
def test_example1_zero_is_a_multiplier(grid):
    """What the display cone rests on: -f'(x) lies in the normal cone."""
    ex = build_example1(grid)
    assert multiplier_set(ex.problem, ex.xbar).contains_mu(np.zeros(1))


class TestProjector:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_deficient_rows_land_in_one_step(self, seed):
        """Eight equality rows of rank three at scale 0.01, as in the
        many-multiplier benchmark problems."""
        p, x = many_multiplier_spec(seed)
        cone = critical_cone(multiplier_set(p, x), 0.0)
        assert len(cone.eq_rows) == 8 and not len(cone.ineq_rows)
        assert np.linalg.matrix_rank(cone.eq_rows) == 3
        codes = cone.base_pattern.codes
        assert set(codes[:18]) == {FREE} and set(codes[18:]) == {ZERO}
        H = cone.base_pattern.clamp(np.random.default_rng(seed).standard_normal((50, 24)))
        P = H.copy()
        _project_rows(cone, P, face=False)
        RW = cone.eq_rows * cone.weights
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

    @pytest.mark.parametrize("constraints", [0, 1])
    def test_zero_subspace_holds_after_no_directions(self, tmp_path, capsys, constraints):
        """Both bounds active with positive multipliers: the critical cone is
        the zero subspace, whose basis has no rows.  ``check-snc`` reports
        "holds" after 0 directions, with or without an inactive constraint,
        and no warning."""
        problem = {"dimension": 2, "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                   "objective": {"constant": 0.0, "linear": [1.0, 1.0],
                                 "quadratic": [[0, 0, -1.0]]},
                   "constraints": [{"constant": -1.0, "linear": [1.0, 1.0]}] * constraints,
                   "m1": 0}
        ppath, xpath = tmp_path / "p.json", tmp_path / "x.json"
        ppath.write_text(json.dumps(problem))
        xpath.write_text(json.dumps({"point": [0.0, 0.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-snc", str(ppath), "--at", str(xpath), "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)["checks"][-1]
        assert (record["name"], record["verdict"]) == ("snc_sup", "holds")
        assert record["numbers"]["directions"] == 0
        p = parse_problem(json.dumps(problem)).build()[0]
        assert critical_cone(multiplier_set(p, np.zeros(2)), 0.0).subspace_basis.shape == (0, 2)
