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
        if len(cone.ineq_rows) and p.dim >= 2:
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
        assert len(cone.ineq_rows) and not cone.has_generators
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
        """On a benchmark-shaped eta = 0.1 cone the pilot, the first 512
        starts, keeps fewer than 512 / (2 _MAX_ROUNDS) rows; they come first,
        and combinations of the section generators, drawn from the same
        stream, fill the rest."""
        p, x = many_multiplier_spec(1)
        cone = critical_cone(multiplier_set(p, x), 0.1)
        new = random_directions(cone, 4000, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        first = _random_pattern_batch(cone, cones._PILOT_STARTS, rng)
        assert len(first) * 20 < cones._PILOT_STARTS
        rest = _random_section_batch(cone, 4000, rng)[:4000 - len(first)]
        assert np.array_equal(new, np.concatenate([first, rest]))


def _batch_counts(monkeypatch) -> list[int]:
    """The ``count`` of every ``_random_pattern_batch`` call from now on."""
    counts, batch = [], cones._random_pattern_batch

    def counted(cone, count, rng):
        counts.append(count)
        return batch(cone, count, rng)

    monkeypatch.setattr(cones, "_random_pattern_batch", counted)
    return counts


class TestPilot:
    def test_a_fed_pilot_leaves_the_stream_as_it_was(self, monkeypatch):
        """The wedge keeps about 40% of its starts: over a request longer
        than the pilot, the stream goes back and the directions are the
        rounds' (``test_a_landing_sweep_keeps_its_rounds`` for one that is
        not), and the double description behind ``has_generators`` never
        runs."""
        cone = _wedge([0.0, 0.0, 1.0], 0.1)
        rng = np.random.default_rng(9)
        halves = [_random_pattern_batch(cone, 2000, rng) for _ in range(3)]
        calls = []
        monkeypatch.setattr(cones, "cone_is_trivial", lambda *a: calls.append(a))
        counts = _batch_counts(monkeypatch)
        new = random_directions(cone, 2000, np.random.default_rng(9))
        assert counts[0] == cones._PILOT_STARTS and counts[1:] == [2000] * (len(counts) - 1)
        assert not calls
        assert np.array_equal(new, np.concatenate(halves)[:2000])

    def test_a_short_request_pilots_its_first_half_round(self):
        """Under ``_PILOT_STARTS`` starts the pilot is the first half round,
        and the starved cone's combinations follow it in the stream."""
        cone = critical_cone(multiplier_set(*many_multiplier_spec(1)), 0.1)
        new = random_directions(cone, 300, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        first = _random_pattern_batch(cone, 300, rng)
        assert len(first) * 20 < 300
        rest = _random_section_batch(cone, 300, rng)[:300 - len(first)]
        assert np.array_equal(new, np.concatenate([first, rest]))

    def test_a_starved_pilot_without_generators_lands_its_rounds(self, monkeypatch):
        """Over the generator guard a starved cone has nothing else to draw:
        its pilot is its first half round, and the rounds land starts."""
        p, x = many_multiplier_spec(0, n=10, m=4, n_lower=3, rank=2, scale=0.05)
        monkeypatch.setattr(linalg, "_MAX_GENERATORS", 8)
        cone = critical_cone(multiplier_set(p, x), 0.1)
        assert len(cone.ineq_rows) and not cone.has_generators
        rng = np.random.default_rng(1)
        halves = [_random_pattern_batch(cone, 200, rng) for _ in range(2 * cones._MAX_ROUNDS)]
        assert len(halves[0]) * 20 < 200
        new = random_directions(cone, 200, np.random.default_rng(1))
        assert np.array_equal(new, np.concatenate(halves)[:200])

    @pytest.mark.parametrize("case", ["ray", "example1 0.1", "many 0.0"])
    def test_no_pilot_without_inequality_rows(self, monkeypatch, case):
        """Ray-based cones draw combinations at once, and box cones without
        inequality rows land their starts or draw in their basis, a whole
        half round at a time."""
        if case == "ray":
            cone = random_ray_cone(3)
        elif case == "example1 0.1":
            cone = _example1_cone(120, 0.1)
        else:
            cone = critical_cone(multiplier_set(*many_multiplier_spec(0)), 0.0)
        counts = _batch_counts(monkeypatch)
        random_directions(cone, 2000, np.random.default_rng(9))
        if case == "ray":
            assert counts == []
        else:
            assert counts and set(counts) == {2000}


def _example1_cone(grid: int, eta: float) -> CriticalCone:
    ex = build_example1(grid)
    return critical_cone(multiplier_set(ex.problem, ex.xbar), eta)


class TestPatternBatchSweep:
    """``_random_pattern_batch`` lands its starts with the per-row sweep of
    ``_land``, or, on a subspace cone, maps them through its basis."""

    @pytest.mark.parametrize("case", ["example1 120", "example1 480", "many 0", "many 3"])
    def test_each_row_is_its_one_row_landing(self, case):
        """On the many-multiplier eta = 0 cones, subspaces of dimension d,
        a start is d normals and its landing the one-row map through the
        basis."""
        if case.startswith("example1"):
            cone = _example1_cone(int(case.split()[1]), 0.1)
        else:
            p, x = many_multiplier_spec(int(case.split()[1]))
            cone = critical_cone(multiplier_set(p, x), 0.0)
        basis = cone.subspace_basis
        assert (basis is None) == case.startswith("example1")
        count = 64
        starts = np.random.default_rng(21).standard_normal(
            (count, cone.dim if basis is None else len(basis)))
        batch = _random_pattern_batch(cone, count, np.random.default_rng(21))
        if basis is None:
            singles = np.array([_land(cone, h[None])[0][0] for h in starts])
        else:
            singles = np.array([z @ basis for z in starts])
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


def _within_sampling_error(H: np.ndarray, expected: np.ndarray, sigmas: float = 5.0) -> bool:
    """Whether the second moment of the rows of H matches ``expected``
    entry by entry within ``sigmas`` standard errors of its mean."""
    mean = H.T @ H / len(H)
    squares = H * H
    error = np.sqrt(np.maximum(squares.T @ squares / len(H) - mean * mean, 0.0) / len(H))
    return bool(np.all(np.abs(mean - expected) <= sigmas * error + 1e-12))


def _weighted_plane() -> CriticalCone:
    """{h in R^5 : h2 = 0, <r, h>_w = 0}, a 3-dimensional subspace."""
    pattern = SignPatternCone(np.array([0, 0, ZERO, 0, 0]))
    return CriticalCone(np.array([1.0, 4.0, 0.25, 2.0, 1.0]), pattern, (),
                        (np.array([1.0, 1.0, 0.0, -1.0, 2.0]),), (), None, 0.0)


class TestSubspaceDraws:
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_are_members_zero_on_the_zero_coordinates(self, seed):
        """18 free and 6 =0 coordinates and 8 equality rows of rank 3 (the
        constraint gradients' rank on the free coordinates): a
        15-dimensional subspace, each draw a unit member exactly 0 on the
        =0 coordinates."""
        cone = critical_cone(multiplier_set(*many_multiplier_spec(seed)), 0.0)
        assert len(cone.eq_rows) == 8 and np.linalg.matrix_rank(cone.eq_rows) == 3
        assert cone.subspace_basis.shape == (15, 24)
        draws = random_directions(cone, 2000, np.random.default_rng(seed))
        assert draws.shape == (2000, 24)
        assert cone.contains_rows(draws, 1e-9).all()
        assert np.all(draws[:, cone.base_pattern._zero] == 0.0)
        assert np.allclose((draws * draws) @ cone.weights, 1.0, rtol=0.0, atol=1e-14)

    def test_basis_is_weighted_orthonormal(self):
        cone = _weighted_plane()
        B, w = cone.subspace_basis, cone.weights
        assert B.shape == (3, 5) and np.all(B[:, 2] == 0.0)
        assert np.allclose((B * w) @ B.T, np.eye(3), rtol=0.0, atol=1e-14)
        assert np.allclose(B @ (w * cone.eq_rows[0]), 0.0, rtol=0.0, atol=1e-14)

    def test_second_moment_is_the_projector_over_d(self):
        """With unit weights the draws are uniform on the unit sphere of the
        d-dimensional subspace: E[h h^T] = P / d for the orthogonal
        projector P, as for the landing sweep's draws before."""
        cone = critical_cone(multiplier_set(*many_multiplier_spec(0)), 0.0)
        assert np.all(cone.weights == 1.0)
        B = cone.subspace_basis
        P = B.T @ B
        draws = random_directions(cone, 16384, np.random.default_rng(4))
        assert _within_sampling_error(draws, P / len(B))
        landed, ok = _land(cone, np.random.default_rng(5).standard_normal((16384, 24)))
        assert ok.all()
        landed /= np.linalg.norm(landed, axis=1)[:, None]
        assert _within_sampling_error(landed, P / len(B))
        assert not _within_sampling_error(draws, np.eye(24) / 24)

    def test_weighted_law_is_isotropic_in_the_weighted_norm(self):
        """Other weights: E[h h^T] = B^T B / d for the weighted-orthonormal
        basis B, the uniform law on the weighted unit sphere."""
        cone = _weighted_plane()
        B = cone.subspace_basis
        draws = random_directions(cone, 16384, np.random.default_rng(6))
        assert cone.contains_rows(draws, 1e-9).all()
        assert _within_sampling_error(draws, B.T @ B / 3)

    def test_no_rows_and_the_zero_subspace(self):
        pattern = SignPatternCone(np.array([0, ZERO, 0]))
        cone = CriticalCone(np.array([4.0, 1.0, 1.0]), pattern, (), (), (), None, 0.0)
        assert np.array_equal(np.abs(cone.subspace_basis), [[0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
        point = CriticalCone(np.ones(2), SignPatternCone(np.array([0, ZERO])), (),
                             (np.array([1.0, 0.0]),), (), None, 0.0)
        assert point.subspace_basis.shape == (0, 2)
        assert random_directions(point, 100, np.random.default_rng(0)).shape == (0, 2)

    @pytest.mark.parametrize("case", ["example1 0.0", "many 0.1", "wedge", "ray", "cut"])
    def test_other_cones_have_no_basis(self, case):
        """Sign coordinates, inequality rows, rays or an objective cut."""
        if case == "example1 0.0":
            cone = _example1_cone(120, 0.0)
        elif case == "many 0.1":
            cone = critical_cone(multiplier_set(*many_multiplier_spec(0)), 0.1)
        elif case == "wedge":
            cone = _wedge([0.0, 0.0, 1.0], 0.0)
        elif case == "ray":
            cone = random_ray_cone(3)
        else:
            cone = CriticalCone(np.ones(3), SignPatternCone(np.zeros(3)), (), (), (),
                                np.array([1.0, 0.0, 0.0]), 0.5)
        assert cone.subspace_basis is None


def _section_batch_per_block(cone: CriticalCone, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """``_random_section_batch`` with every product taken per block of
    ``_BLOCK_ENTRIES`` weights, as it was before super-blocks."""
    G, w, eta = cone.generators, cone.weights, cone.eta
    wf = w * cone.objective_gradient
    face = np.abs(G @ wf) <= 1e-9 * (1.0 + float(np.sum(np.abs(wf))))
    G0, G1 = G[face], G[~face]

    def unit(M):
        norms = np.sqrt(np.maximum((M * M) @ w, 0.0))
        return np.divide(M, norms[:, None], out=np.zeros_like(M), where=norms[:, None] > 0.0)

    H = np.empty((count, cone.dim))
    rows = max(1, cones._BLOCK_ENTRIES // len(G))
    for start in range(0, count, rows):
        block = H[start:start + rows]
        r = len(block)
        C = unit(rng.standard_exponential((r, len(G0))) @ G0)
        D = unit(rng.standard_exponential((r, len(G1))) @ G1)
        s = rng.random(r) * cones._cut_reach((C * D) @ w, D @ wf, eta)
        block[:] = D * s[:, None] + (1.0 - s)[:, None] * C
    norms = np.sqrt(np.maximum((H * H) @ w, 0.0))
    keep = (norms > 1e-12) & cone._cuts_hold(H, 1e-7)
    return H[keep] / norms[keep, None]


class TestSuperBlocks:
    @pytest.mark.parametrize("seed, count", [(0, 1500), (1, 4000), (1, 17)])
    def test_benchmark_shaped_sections_match_the_per_block_draws(self, seed, count):
        """131 and 79 rows per block on the two eta = 0.1 cones: the counts
        end inside a super-block, or inside its first block."""
        cone = critical_cone(multiplier_set(*many_multiplier_spec(seed)), 0.1)
        new = _random_section_batch(cone, count, np.random.default_rng(7))
        old = _section_batch_per_block(cone, count, np.random.default_rng(7))
        assert new.shape == old.shape == (count, 24)
        assert np.allclose(new, old, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("entries", [1, 4, 6])
    @pytest.mark.parametrize("eta", [0.01, 0.8])
    def test_small_blocks_match_the_per_block_draws(self, monkeypatch, entries, eta):
        """The wedge's two generators in blocks of 1-3 rows, 300 draws: many
        super-blocks, the last one partial."""
        monkeypatch.setattr(cones, "_BLOCK_ENTRIES", entries)
        cone = _wedge([1.0, 0.0, 0.0], eta)
        new = _random_section_batch(cone, 300, np.random.default_rng(4))
        old = _section_batch_per_block(cone, 300, np.random.default_rng(4))
        assert new.shape == old.shape and len(new) > 250
        assert np.allclose(new, old, rtol=0.0, atol=1e-12)

    def test_the_stream_ends_where_the_blocks_end(self):
        """The super-blocks draw the blocks' weights in their order and
        sizes, so the stream is left where the per-block draws leave it."""
        cone = critical_cone(multiplier_set(*many_multiplier_spec(0)), 0.1)
        new, old = np.random.default_rng(7), np.random.default_rng(7)
        _random_section_batch(cone, 1500, new)
        _section_batch_per_block(cone, 1500, old)
        assert np.array_equal(new.random(8), old.random(8))
