"""Section generators of ray-based critical cones and the battery built on them."""

import numpy as np
import pytest

from kkt2 import cones
from kkt2.cones import CriticalCone, critical_cone, random_directions, structured_directions
from kkt2.config import SearchBudget
from kkt2.curvature import check_snc, check_ssc
from kkt2.errors import PolytopeTooLarge
from kkt2.examples import DELTA, build_example2, point_r, run_example2_certification
from kkt2.kkt import multiplier_set
from kkt2.linalg import conic_distance, conic_membership


def _ray_cone(rays, ineq_rows):
    """A ray-based cone with inequality rows only and no objective cut."""
    n = len(rays[0])
    return CriticalCone(np.ones(n), None, tuple(rays), (), tuple(ineq_rows), None, 0.0)


def _random_ray_cones():
    """Seeded random ray sets in R^3 and R^4, each cut by one to three rows."""
    out = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 2
        rays = [rng.standard_normal(n) + np.eye(n)[0] * 1.5 for _ in range(6 + seed % 5)]
        rows = [rng.standard_normal(n) for _ in range(1 + seed % 3)]
        out.append(_ray_cone(rays, rows))
    return out


class TestExample2Sections:
    def test_equality_row_gives_the_paper_section_points(self):
        """x1 = 0 alone cuts the rays into the R(k, n) points and (0,1,0)."""
        trunc = 6
        ex = build_example2(trunc)
        cone = critical_cone(ex.problem, ex.xbar, 0.1)  # objective stays a cut, not a row
        assert len(cone.eq_rows) == 1 and not cone.ineq_rows
        gens = cone.generators
        expected = [point_r(k, n) for k in range(1, trunc + 1) for n in range(1, trunc + 1)]
        expected.append(np.array([0.0, 1.0, 0.0]))
        assert len(gens) == len(expected)
        for e in expected:
            assert min(float(np.max(np.abs(g - e))) for g in gens) <= 1e-12

    @pytest.mark.parametrize("trunc", [2, 8, 32])
    def test_critical_cone_is_the_limit_ray(self, trunc):
        ex = build_example2(trunc)
        gens = critical_cone(ex.problem, ex.xbar, 0.0).generators
        assert len(gens) == 1
        assert gens[0].tolist() == [0.0, 1.0, 0.0]  # verbatim, not rescaled

    def test_generators_are_computed_on_first_use(self):
        ex = build_example2(8)
        cone = critical_cone(ex.problem, ex.xbar, 0.0)
        assert "generators" not in vars(cone)
        structured_directions(cone, 64)
        assert "generators" in vars(cone)

    def test_size_guard(self, monkeypatch):
        ex = build_example2(8)
        monkeypatch.setattr(cones, "_MAX_SECTION_GENERATORS", 10)
        with pytest.raises(PolytopeTooLarge):
            critical_cone(ex.problem, ex.xbar, 0.1).generators


class TestRandomSections:
    @pytest.mark.parametrize("k", range(12))
    def test_generators_meet_rows_and_lie_in_the_ray_cone(self, k):
        cone = _random_ray_cones()[k]
        for g in cone.generators:
            scale = 1e-9 * (1.0 + float(np.max(np.abs(g))))
            for r in cone.ineq_rows:
                assert float(r @ g) <= scale * (1.0 + float(np.max(np.abs(r))))
            assert conic_membership(list(cone.base_rays), g)

    @pytest.mark.parametrize("k", range(12))
    def test_rejection_sampled_members_lie_in_the_generated_cone(self, k):
        """Differential check against the former sampler: exponential
        combinations of the rays, kept when the conic-membership LP and the
        rows accept them."""
        cone = _random_ray_cones()[k]
        rng = np.random.default_rng(100 + k)
        accepted = []
        for _ in range(200):
            h = rng.exponential(size=len(cone.base_rays)) @ np.array(cone.base_rays)
            if cone.contains(h, 1e-7):
                accepted.append(h / np.linalg.norm(h))
        if not len(cone.generators):
            assert not accepted
        for h in accepted:
            assert conic_distance(list(cone.generators), h) <= 1e-7

    def test_some_rejection_draws_are_accepted(self):
        """The differential check above is not vacuous."""
        hits = 0
        for cone in _random_ray_cones():
            rng = np.random.default_rng(7)
            for _ in range(50):
                h = rng.exponential(size=len(cone.base_rays)) @ np.array(cone.base_rays)
                hits += cone.contains(h, 1e-7)
        assert hits >= 50

    @pytest.mark.parametrize("k", range(12))
    def test_random_directions_need_no_membership_lp(self, k):
        cone = _random_ray_cones()[k]
        draws = random_directions(cone, 40, np.random.default_rng(k))
        if len(cone.generators) <= 1:
            assert draws == []
            return
        assert len(draws) == 40
        for h in draws:
            assert np.linalg.norm(h) == pytest.approx(1.0)
            assert cone.contains(h, 1e-7)


class TestBattery:
    def test_two_dimensional_section_gets_the_full_budget(self):
        """Example 2's eta > 0 cone is the whole plane section x1 = 0."""
        ex = build_example2(8)
        budget = SearchBudget()
        v = check_ssc(ex.problem, ex.xbar, multiplier_set(ex.problem, ex.xbar), eta=0.1,
                      alpha_target=0.5, budget=budget)
        assert v.directions_evaluated == budget.structured + budget.random
        assert v.section_generators == 8 * 8 + 1 and not v.exact
        assert v.witness.tolist() == [0.0, 1.0, 0.0]
        assert v.witness_value == pytest.approx(-2.0 * DELTA, abs=1e-12)

    def test_single_ray_section_is_exact(self):
        ex = build_example2(8)
        v = check_snc(ex.problem, ex.xbar, multiplier_set(ex.problem, ex.xbar))
        assert v.directions_evaluated == 1  # the ray itself, no copies of it
        assert v.section_generators == 1 and v.exact
        assert v.violated and v.witness.tolist() == [0.0, 1.0, 0.0]

    def test_report_records_section_size(self):
        _, report = run_example2_certification(4)
        snc = next(r for r in report.checks if r.name == "snc_sup")
        assert snc.numbers["section_generators"] == 1
        assert snc.numbers["exact"] is True
        assert snc.numbers["directions"] == 1
