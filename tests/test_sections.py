"""Section generators of ray-based critical cones and the battery built on them."""

import numpy as np
import pytest

from kkt2 import linalg
from kkt2.cones import CriticalCone, critical_cone, random_directions, structured_directions
from kkt2.config import SearchBudget
from kkt2.curvature import check_snc, check_ssc
from kkt2.errors import PolytopeTooLarge
from kkt2.examples import DELTA, build_example2, point_r, run_example2_certification
from kkt2.kkt import multiplier_set
from kkt2.linalg import conic_distance

from helpers import random_ray_cone


# Twelve small cones (ids 0-11: R^3 and R^4, 6-10 rays) and 62 wider ones
# (ids w<seed>: R^3..R^5, 6-12 rays), checked against ``conic_distance``.
RAY_CONES = [pytest.param(k, 2, 5, id=str(k)) for k in range(12)] + [
    pytest.param(seed, 3, 7, id=f"w{seed}") for seed in (*range(0, 300, 5), 104, 209)]


class TestExample2Sections:
    def test_equality_row_gives_the_paper_section_points(self):
        """x1 = 0 alone cuts the rays into the cone over the R(k, n) points
        and (0,1,0): each generator is an extreme ray among them, and every
        one of them lies in the cone the generators span."""
        trunc = 6
        ex = build_example2(trunc)
        # eta > 0: the objective stays a cut, not a row
        cone = critical_cone(ex.problem, multiplier_set(ex.problem, ex.xbar), 0.1)
        assert len(cone.eq_rows) == 1 and not cone.ineq_rows
        gens = cone.generators
        expected = [point_r(k, n) for k in range(1, trunc + 1) for n in range(1, trunc + 1)]
        expected.append(np.array([0.0, 1.0, 0.0]))
        unit = [e / np.linalg.norm(e) for e in expected]
        for g in gens:
            u = g / np.linalg.norm(g)
            assert min(float(np.max(np.abs(u - e))) for e in unit) <= 1e-12
        for e in expected:
            assert conic_distance(gens, e) <= 1e-9 * (1.0 + float(np.max(np.abs(e))))

    @pytest.mark.parametrize("trunc", [2, 8, 32])
    def test_critical_cone_is_the_limit_ray(self, trunc):
        ex = build_example2(trunc)
        gens = critical_cone(ex.problem, multiplier_set(ex.problem, ex.xbar), 0.0).generators
        assert len(gens) == 1
        assert gens[0].tolist() == [0.0, 1.0, 0.0]  # verbatim, not rescaled

    def test_generators_are_computed_on_first_use(self):
        ex = build_example2(8)
        cone = critical_cone(ex.problem, multiplier_set(ex.problem, ex.xbar), 0.0)
        assert "generators" not in vars(cone)
        structured_directions(cone, 64)
        assert "generators" in vars(cone)

    def test_size_guard(self, monkeypatch):
        ex = build_example2(8)
        cone = critical_cone(ex.problem, multiplier_set(ex.problem, ex.xbar), 0.1)
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", 6)  # the ray cone has 10 facets
        with pytest.raises(PolytopeTooLarge):
            cone.generators


class TestRandomSections:
    @pytest.mark.parametrize("seed, dims, counts", RAY_CONES)
    def test_generators_meet_rows_and_lie_in_the_ray_cone(self, seed, dims, counts):
        cone = random_ray_cone(seed, dims, counts)
        for g in cone.generators:
            scale = 1e-9 * (1.0 + float(np.max(np.abs(g))))
            for r in cone.ineq_rows:
                assert float(r @ g) <= scale * (1.0 + float(np.max(np.abs(r))))
            assert conic_distance(cone.base_rays, g) <= scale

    @pytest.mark.parametrize("seed, dims, counts", RAY_CONES)
    def test_rejection_sampled_members_lie_in_the_generated_cone(self, seed, dims, counts):
        """Rejection sampling as a differential check: exponential
        combinations of the rays, kept when the cone's membership test and
        the rows accept them."""
        cone = random_ray_cone(seed, dims, counts)
        rng = np.random.default_rng(100 + seed)
        accepted = []
        for _ in range(200):
            h = rng.exponential(size=len(cone.base_rays)) @ np.array(cone.base_rays)
            if cone.contains(h, 1e-7):
                accepted.append(h / np.linalg.norm(h))
        if not len(cone.generators):
            assert not accepted
        for h in accepted:
            assert conic_distance(cone.generators, h) <= 1e-7

    @pytest.mark.parametrize("seed", [104, 209])
    def test_sections_a_per_row_step_could_not_build(self, seed):
        """n = 5, 12 rays, 3 rows: one double-description step per row
        without an adjacency test piles up 33,250 (seed 104) and 40,860
        (seed 209) generators, over the 20,000 size guard; the cones are
        checked like the others above (ids w104 and w209)."""
        cone = random_ray_cone(seed, 3, 7)
        assert (cone.dim, len(cone.base_rays), len(cone.ineq_rows)) == (5, 12, 3)
        assert 0 < len(cone.generators) < 100

    def test_some_rejection_draws_are_accepted(self):
        """The differential check above is not vacuous."""
        hits = 0
        for cone in map(random_ray_cone, range(12)):
            rng = np.random.default_rng(7)
            for _ in range(50):
                h = rng.exponential(size=len(cone.base_rays)) @ np.array(cone.base_rays)
                hits += cone.contains(h, 1e-7)
        assert hits >= 50

    @pytest.mark.parametrize("k", range(12))
    def test_random_directions_need_no_membership_lp(self, k):
        cone = random_ray_cone(k)
        draws = random_directions(cone, 40, np.random.default_rng(k))
        if len(cone.generators) <= 1:
            assert draws.shape == (0, cone.dim)
            return
        assert len(draws) == 40
        for h in draws:
            assert np.linalg.norm(h) == pytest.approx(1.0)
            assert cone.contains(h, 1e-7)


class TestBattery:
    def test_two_dimensional_section_gets_the_full_budget(self):
        """Example 2's eta > 0 cone is the whole plane section x1 = 0: two
        extreme rays, (0,1,0) among them."""
        ex = build_example2(8)
        budget = SearchBudget()
        v = check_ssc(ex.problem, multiplier_set(ex.problem, ex.xbar), eta=0.1,
                      alpha_target=0.5, budget=budget)
        assert v.directions_evaluated == budget.structured + budget.random
        assert v.section_generators == 2 and not v.exact
        assert v.witness.tolist() == [0.0, 1.0, 0.0]
        assert v.witness_value == pytest.approx(-2.0 * DELTA, abs=1e-12)

    def test_single_ray_section_is_exact(self):
        ex = build_example2(8)
        v = check_snc(ex.problem, multiplier_set(ex.problem, ex.xbar))
        assert v.directions_evaluated == 1  # the ray itself, no copies of it
        assert v.section_generators == 1 and v.exact
        assert v.violated and v.witness.tolist() == [0.0, 1.0, 0.0]

    def test_report_records_section_size(self):
        _, report = run_example2_certification(4)
        snc = next(r for r in report.checks if r.name == "snc_sup")
        assert snc.numbers["section_generators"] == 1
        assert snc.numbers["exact"] is True
        assert snc.numbers["directions"] == 1
