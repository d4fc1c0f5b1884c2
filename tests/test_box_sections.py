"""Box critical cones with leftover inequality rows: their section
generators (the sign pattern read as rows), the switch from the landing
sweep to generator combinations when the sweep starves, the size guard, the
half rounds, and the landing sweep of the pattern batch."""

import json

import numpy as np
import pytest

from kkt2 import cones, linalg
from kkt2.cli import main
from kkt2.cones import (NONNEG, ZERO, CriticalCone, SignPatternCone, _land,
                        _random_pattern_batch, _random_section_batch, critical_cone, into_cone,
                        random_directions, structured_directions)
from kkt2.config import SearchBudget
from kkt2.curvature import _section_size, check_ssc
from kkt2.examples import build_example1, build_example2
from kkt2.kkt import multiplier_set

from helpers import (many_multiplier_problem, many_multiplier_spec, plain_critical_cone,
                     random_ray_cone, random_stationary_problem)


def _stationary_cones(eta: float):
    """Box critical cones by their cut description (constraint and objective
    cuts, no annihilator rows) with leftover inequality rows, from seeded
    stationary problems."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        p, xbar, _, _ = random_stationary_problem(rng, max_dim=5, max_constraints=4)
        cone = plain_critical_cone(multiplier_set(p, xbar), eta)
        if cone.ineq_rows and p.dim >= 2:
            yield cone


def _rows_hold(cone: CriticalCone, h: np.ndarray, tol: float = 1e-9) -> bool:
    """Pattern and rows, without the objective cut."""
    scale = tol * (1.0 + float(np.max(np.abs(h))))
    return (cone.base_pattern.contains(h, tol)
            and all(abs(float((cone.weights * r) @ h)) <= scale for r in cone.eq_rows)
            and all(float((cone.weights * r) @ h) <= scale for r in cone.ineq_rows))


def _cut_slack(cone: CriticalCone, H: np.ndarray) -> np.ndarray:
    """eta ||h|| - f'(x).h over the rows h of H: >= 0 on the cut."""
    w = cone.weights
    return cone.eta * np.sqrt((H * H) @ w) - H @ (w * cone.objective_gradient)


class TestManyMultiplierCones:
    @pytest.mark.parametrize("seed, size", [(0, 125), (1, 207)])
    def test_benchmark_shaped_cones_fill_one_round(self, seed, size, monkeypatch):
        """The eta = 0.1 cones of the two many-multiplier benchmark problems:
        the sweep keeps about 1 in 700 starts, so the round's second half
        combines the section generators, and every combination lands."""
        p, x = many_multiplier_spec(seed)
        cone = critical_cone(multiplier_set(p, x), 0.1)
        assert cone.has_generators and len(cone.generators) == size
        monkeypatch.setattr(cones, "_MAX_ROUNDS", 1)
        draws = random_directions(cone, 2000, np.random.default_rng(3))
        assert draws.shape == (2000, 24)
        assert all(cone.contains(h, 1e-7) for h in draws)

    @pytest.mark.parametrize("seed", range(4))
    def test_small_many_multiplier_cones_fill_one_round(self, seed, monkeypatch):
        p, x = many_multiplier_spec(seed, n=10, m=4, n_lower=3, rank=2, scale=0.05)
        cone = critical_cone(multiplier_set(p, x), 0.1)
        assert cone.has_generators
        monkeypatch.setattr(cones, "_MAX_ROUNDS", 1)
        draws = random_directions(cone, 500, np.random.default_rng(seed))
        assert draws.shape == (500, 10)
        assert all(cone.contains(h, 1e-7) for h in draws)

    def test_check_ssc_reports_the_section(self):
        p, x = many_multiplier_spec(0)
        v = check_ssc(multiplier_set(p, x), eta=0.1, alpha_target=0.5)
        assert v.kind == "ssc_holds" and v.alpha_est >= 1.0
        assert v.section_generators == 125 and not v.exact
        assert v.directions_evaluated > 512

    @pytest.mark.parametrize("seed, n, rejection_alpha", [(41, 10, 1.3105858), (43, 14, 1.3238367)])
    def test_falsifier_is_no_weaker_than_rejection(self, seed, n, rejection_alpha):
        """At eta = 1 the sweep keeps 3.9% and 17% of its starts on these two
        cones; ``rejection_alpha`` is what sampling them by rejection alone
        found (--seed 7).  The sampled minimum is no higher."""
        p, x = many_multiplier_spec(seed, n=n, m=4, n_lower=2, rank=2, scale=0.05)
        v = check_ssc(multiplier_set(p, x), eta=1.0, alpha_target=0.1,
                      budget=SearchBudget(seed=7))
        assert v.alpha_est <= rejection_alpha + 1e-7


class TestStationaryBoxSections:
    @pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
    def test_generators_meet_pattern_and_rows(self, eta):
        checked = 0
        for cone in _stationary_cones(eta):
            for g in cone.generators:
                assert _rows_hold(cone, g)
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
    def test_rejection_sampled_members_lie_in_the_generated_cone(self, eta):
        """Differential check: gaussian starts clamped and projected into the
        pattern and equality rows, kept when the cone's membership test
        accepts them, lie in cone(generators), up to the membership test's
        1e-7 tolerance."""
        accepted = 0
        for k, cone in enumerate(_stationary_cones(eta)):
            rng = np.random.default_rng(100 + k)
            for _ in range(300):
                h = into_cone(cone, rng.standard_normal(cone.dim))
                if h is None or np.linalg.norm(h) <= 1e-6:  # not round-off residue
                    continue
                accepted += 1
                assert linalg.conic_distance(cone.generators, h) <= 1e-6 * np.linalg.norm(h)
        assert accepted >= 50

    @pytest.mark.parametrize("eta", [0.05, 1.0])
    def test_random_directions_are_members(self, eta):
        for k, cone in enumerate(_stationary_cones(eta)):
            for h in random_directions(cone, 50, np.random.default_rng(k)):
                assert cone.contains(h, 1e-7)


def _wedge(objective, eta):
    """{h in R^3 : h0, h1 >= 0, h2 = 0, h0 <= h1}, with generators
    (0, 1, 0) and (1, 1, 0), cut by f'(x).h <= eta ||h||."""
    pattern = SignPatternCone(np.array([NONNEG, NONNEG, ZERO]))
    return CriticalCone(np.ones(3), pattern, (), (), (np.array([1.0, -1.0, 0.0]),),
                        np.asarray(objective, dtype=float), eta)


class TestSectionDraws:
    def _plain(self, cone, count, seed):
        """Plain exponential combinations, kept when they meet the cut."""
        H = np.random.default_rng(seed).exponential(size=(count, len(cone.generators)))
        H = H @ cone.generators
        H = H[cone._cuts_hold(H, 1e-7)]
        return H / np.linalg.norm(H, axis=1)[:, None]

    def test_empty_positive_group_draws_plain_combinations(self):
        """f'(x) = e_2 is zero on both generators: no G+, every draw meets
        the cut."""
        cone = _wedge([0.0, 0.0, 1.0], 0.1)
        assert len(cone.generators) == 2
        draws = _random_section_batch(cone, 300, np.random.default_rng(4))
        assert len(draws) == 300
        assert np.allclose(draws, self._plain(cone, 300, 4), rtol=0.0, atol=1e-15)

    def test_empty_face_group_draws_plain_combinations(self):
        """f'(x) = (1, 1, 0) is positive on both generators: no G0, and
        the cut rejects some plain combinations at eta = 1.2."""
        cone = _wedge([1.0, 1.0, 0.0], 1.2)
        draws = _random_section_batch(cone, 300, np.random.default_rng(4))
        assert 0 < len(draws) < 300
        assert np.allclose(draws, self._plain(cone, 300, 4), rtol=0.0, atol=1e-15)
        assert all(cone.contains(h, 1e-7) for h in draws)

    def test_split_draws_reach_the_cut_boundary(self):
        """f'(x) = (1, 0, 0): (0, 1, 0) spans the face and (1, 1, 0) does
        not; at eta = 0.01 the cut section is the thin wedge
        0 <= h0 <= 0.01 ||h||.  Every draw meets the cut, and the draws
        come within 3e-3 eta of its boundary (the triangle-inequality bound
        t <= eta ||c|| / (f'(x).d + eta ||d||) stops them 2.4e-2 eta away)."""
        cone = _wedge([1.0, 0.0, 0.0], 0.01)
        draws = _random_section_batch(cone, 3000, np.random.default_rng(4))
        assert len(draws) == 3000
        assert all(cone.contains(h, 1e-9) for h in draws)
        slack = _cut_slack(cone, draws)
        assert slack.min() >= -1e-12 and slack.min() <= 3e-3 * cone.eta

    def test_split_draws_reach_the_positive_group(self):
        """At eta = 0.8 the ray (1, 1, 0) meets the cut itself
        (f'(x).d = 0.71 ||d||), so the whole section is cut section: the
        draws come within 1e-2 of that ray, where G+ dominates."""
        cone = _wedge([1.0, 0.0, 0.0], 0.8)
        draws = _random_section_batch(cone, 300, np.random.default_rng(4))
        assert len(draws) == 300
        ray = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.min(np.linalg.norm(draws - ray, axis=1)) <= 1e-2

    def test_hull_draws_reach_the_cut_boundary(self):
        """Example 2's eta = 0.1 section has the rays (0, 1, 0) and
        (0, 1, -1/sqrt 3), and f'(x) = (0, 0, -1) gives f'(x).g = 0.5 ||g||
        on the second, over the cut's 0.1 ||g||: plain combinations, kept
        when they meet the cut, come up to its boundary."""
        ex = build_example2(8)
        cone = critical_cone(multiplier_set(ex.problem, ex.xbar), 0.1)
        assert cone.base_pattern is None and len(cone.generators) == 2
        draws = random_directions(cone, 2000, np.random.default_rng(0))
        assert draws.shape == (2000, 3)
        slack = _cut_slack(cone, draws)
        assert slack.min() >= -1e-12 and slack.min() <= 1e-3 * cone.eta


class TestSingleRaySection:
    def test_the_ray_is_the_structured_direction(self):
        """h0 >= 0, h1 free, h0 - 2 h1 <= 0 and 2 h1 - h0 <= 0: the section
        is the ray (1, 0.5), which no run indicator reaches and no gaussian
        start meets, so the one generator is the battery and the search is
        exact."""
        pattern = SignPatternCone(np.array([NONNEG, 0]))
        cone = CriticalCone(np.ones(2), pattern, (), (), (np.array([1.0, -2.0]),
                            np.array([-1.0, 2.0])), None, 0.0)
        assert cone.has_generators and cone.generators.tolist() == [[1.0, 0.5]]
        assert [h.tolist() for h in structured_directions(cone, 64)] == [[1.0, 0.5]]
        assert random_directions(cone, 100, np.random.default_rng(0)).shape == (0, 2)
        assert _section_size(cone) == 1


def _write_problem(tmp_path, problem, point):
    ppath, xpath = tmp_path / "p.json", tmp_path / "x.json"
    ppath.write_text(json.dumps(problem))
    xpath.write_text(json.dumps({"point": point}))
    return str(ppath), str(xpath)


class TestSizeGuard:
    def test_wide_box_section_falls_back_to_the_sweep(self, tmp_path, capsys):
        """300 coordinates at their lower bounds and one active row with 150
        entries +1 and 150 entries -1: the section has over 22,500 extreme
        rays, past ``_MAX_GENERATORS``, so the eta > 0 cone is sampled by the
        sweep and its inequality-row test, and check-ssc still answers."""
        n = 300
        a = [1.0] * (n // 2) + [-1.0] * (n // 2)
        problem = {
            "dimension": n,
            "box": {"lower": [0.0] * n, "upper": [1.0] * n},
            "objective": {"constant": 0.0, "linear": [-v for v in a],
                          "quadratic": [[i, i, 1.0] for i in range(n)]},
            "constraints": [{"constant": 0.0, "linear": a, "quadratic": []}],
            "m1": 0,
        }
        ppath, xpath = _write_problem(tmp_path, problem, [0.0] * n)
        assert main(["check-ssc", ppath, "--at", xpath, "--eta", "0.1", "--alpha", "0.5",
                     "--format", "json"]) == 0
        ssc = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                   if c["name"] == "ssc")
        assert ssc["verdict"] == "holds" and ssc["numbers"]["directions"] > 0
        assert "section_generators" not in ssc["numbers"]

    def test_box_section_over_the_guard_is_swept(self, tmp_path, monkeypatch, capsys):
        """The section has 24 generators; with the guard at 8 the cone lists
        none and check-ssc samples it by the sweep alone."""
        problem, point = many_multiplier_problem(np.random.default_rng(0), 10, 4, 3, 2, 0.05)
        ppath, xpath = _write_problem(tmp_path, problem, point)
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", 8)
        p, x = many_multiplier_spec(0, n=10, m=4, n_lower=3, rank=2, scale=0.05)
        cone = critical_cone(multiplier_set(p, x), 0.1)
        assert cone.ineq_rows and not cone.has_generators
        draws = random_directions(cone, 200, np.random.default_rng(1))
        assert all(cone.contains(h, 1e-7) for h in draws)
        assert main(["check-ssc", ppath, "--at", xpath, "--eta", "0.1", "--alpha", "0.5"]) == 0
        assert "section_generators" not in capsys.readouterr().out

    def test_hull_section_over_the_guard_exits_3(self, tmp_path, monkeypatch, capsys):
        """Ray-based cones have no other sampler: over the guard the command
        exits 3 with a message."""
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"builtin": "example2", "trunc": 8}))
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", 6)
        assert main(["check-ssc", str(ppath), "--eta", "0.1", "--alpha", "0.5"]) == 3
        assert "over 6 rays" in capsys.readouterr().err


def _one_round_before_halves(batch, cone, count, seed):
    """One round as drawn before half rounds: a single 2 x count batch."""
    return batch(cone, 2 * count, np.random.default_rng(seed))[:count]


class TestHalfRounds:
    def test_yield_one_pattern_cone_is_the_first_half_of_the_old_round(self):
        p, x = many_multiplier_spec(0)
        cone = critical_cone(multiplier_set(p, x), 0.0)
        assert not cone.has_generators
        new = random_directions(cone, 300, np.random.default_rng(9))
        old = _one_round_before_halves(_random_pattern_batch, cone, 300, 9)
        assert new.shape == (300, 24) and np.array_equal(new, old)

    def test_yield_one_section_cone_is_the_first_half_of_the_old_round(self):
        cone = random_ray_cone(3)
        new = random_directions(cone, 300, np.random.default_rng(9))
        old = _one_round_before_halves(_random_section_batch, cone, 300, 9)
        assert new.shape == (300, cone.dim) and np.array_equal(new, old)

    def test_rejecting_pattern_cone_keeps_the_landed_rows_of_the_old_round(self, monkeypatch):
        """Only the eta > 0 objective cut is tested, and about half the
        draws miss it, so the second half is drawn."""
        pattern = SignPatternCone(np.array([NONNEG, 0, 0, NONNEG]))
        cone = CriticalCone(np.ones(4), pattern, (), (), (), np.array([1.0, 0.0, 0.0, 0.0]),
                            0.5)
        assert not cone.has_generators
        first = _random_pattern_batch(cone, 300, np.random.default_rng(9))
        assert 150 < len(first) < 300
        monkeypatch.setattr(cones, "_MAX_ROUNDS", 1)
        new = random_directions(cone, 300, np.random.default_rng(9))
        old = _one_round_before_halves(_random_pattern_batch, cone, 300, 9)
        assert len(new) == len(old) > len(first)
        assert np.array_equal(new, old)


class TestStarvedSweep:
    def test_a_landing_sweep_keeps_its_rounds(self):
        """The wedge's row h0 <= h1 keeps about 40% of the starts, enough
        for ten rounds: the sweep is not starved, so the directions are its
        half rounds, as for a cone without generators."""
        cone = _wedge([0.0, 0.0, 1.0], 0.1)
        assert cone.has_generators
        new = random_directions(cone, 300, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        halves = [_random_pattern_batch(cone, 300, rng)]
        assert 15 <= len(halves[0]) < 300
        while sum(map(len, halves)) < 300:
            halves.append(_random_pattern_batch(cone, 300, rng))
        assert np.array_equal(new, np.concatenate(halves)[:300])

    def test_a_starved_sweep_continues_with_generators(self):
        """On a benchmark-shaped eta = 0.1 cone the first half round keeps
        fewer than count / (2 _MAX_ROUNDS) rows; they come first, and
        combinations of the section generators, drawn from the same stream,
        fill the rest."""
        p, x = many_multiplier_spec(1)
        cone = critical_cone(multiplier_set(p, x), 0.1)
        new = random_directions(cone, 4000, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        first = _random_pattern_batch(cone, 4000, rng)
        assert 0 < len(first) * 20 < 4000
        rest = _random_section_batch(cone, 4000, rng)[:4000 - len(first)]
        assert np.array_equal(new, np.concatenate([first, rest]))


def _example1_cone(grid: int, eta: float) -> CriticalCone:
    ex = build_example1(grid)
    return critical_cone(multiplier_set(ex.problem, ex.xbar), eta)


class TestPatternBatchSweep:
    """``_random_pattern_batch`` lands its starts with the per-row sweep of
    ``_land``."""

    @pytest.mark.parametrize("case", ["example1 120", "example1 480", "many 0", "many 3"])
    def test_each_row_is_its_one_row_landing(self, case):
        if case.startswith("example1"):
            cone = _example1_cone(int(case.split()[1]), 0.1)
        else:
            p, x = many_multiplier_spec(int(case.split()[1]))
            cone = critical_cone(multiplier_set(p, x), 0.0)
        count = 64
        starts = np.random.default_rng(21).standard_normal((count, cone.dim))
        batch = _random_pattern_batch(cone, count, np.random.default_rng(21))
        singles = np.array([_land(cone, h[None])[0][0] for h in starts])
        singles /= np.sqrt((singles * singles) @ cone.weights)[:, None]
        assert len(batch) >= count - 4  # the eta = 0.1 cut drops a few at grid 120
        rest = iter(singles)  # the kept rows, in order, among the single landings
        for h in batch:
            assert any(np.max(np.abs(single - h)) <= 1e-12 for single in rest)

    def test_row_projection_count(self, monkeypatch):
        """The 512-row battery on example1's eta = 0.1 cone at grid 480: the
        first projection moves every row, later ones only the rows still
        off; at most 3,000 row projections (32 passes over every row took
        16,384)."""
        cone = _example1_cone(480, 0.1)
        rows = []
        project = cones._project_rows

        def counting(cone, W, face):
            rows.append(len(W))
            project(cone, W, face)

        monkeypatch.setattr(cones, "_project_rows", counting)
        H = _random_pattern_batch(cone, 512, np.random.default_rng(1))
        assert len(H) == 512
        assert rows[0] == 512 and rows == sorted(rows, reverse=True)
        assert len(rows) > 1  # one projection does not land them all
        assert sum(rows) <= 3000
