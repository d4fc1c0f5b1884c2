"""Second-order checks: maximized Hessian, searches, growth sampling."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kkt2.cli import main
from kkt2.config import DEFAULT_BUDGET, DEFAULT_TOLERANCES
from kkt2 import curvature
from kkt2.cones import critical_cone
from kkt2.curvature import (
    _BLOCK_ENTRIES,
    _EXACT_RUNGS,
    _PASS,
    _battery_values,
    _box_feasible_samples,
    _growth_rows,
    check_snc,
    check_snc_fixed_multiplier,
    check_ssc,
    fixed_mu_value,
    q_of_h,
    sample_growth,
)
from kkt2.errors import UsageError
from kkt2.examples import DELTA, build_example1, build_example2
from kkt2.kkt import multiplier_set
from kkt2.linalg import PolytopeH, weighted_norm
from kkt2.model import BoxSet, ProblemSpec, quadratic

from helpers import (box_samples_per_try, constraint_quads, descend_per_rung,
                     growth_margins_per_sample, highs_max, many_multiplier_spec,
                     random_stationary_problem)


@pytest.fixture(scope="module")
def ex1():
    ex = build_example1(12)
    return ex, multiplier_set(ex.problem, ex.xbar)


@pytest.fixture(scope="module")
def ex2():
    ex = build_example2(8)
    return ex, multiplier_set(ex.problem, ex.xbar)


class TestQofH:
    def test_example1_first_direction(self, ex1):
        """max over [0,1] of (1 - 3 mu): value 1 at mu = 0."""
        ex, mset = ex1
        val, mu = q_of_h(mset, ex.direction_lower_indicator())
        assert val == pytest.approx(1.0, abs=1e-12)
        assert mu[0] == pytest.approx(0.0, abs=1e-9)

    def test_example1_second_direction(self, ex1):
        """max over [0,1] of (-1 + 2 mu): value 1 at mu = 1."""
        ex, mset = ex1
        val, mu = q_of_h(mset, ex.direction_upper_indicator())
        assert val == pytest.approx(1.0, abs=1e-12)
        assert mu[0] == pytest.approx(1.0, abs=1e-9)

    def test_example2_negative_curvature(self, ex2):
        ex, mset = ex2
        val, _ = q_of_h(mset, np.array([0.0, 1.0, 0.0]))
        assert val == pytest.approx(-2.0 * DELTA, abs=1e-12)
        assert val == pytest.approx(-0.92820, abs=1e-5)

    @staticmethod
    def _pairs(seed, count):
        """``count`` (mset, h) pairs, four gaussian directions per random
        stationary problem with a bounded polytope and its vertices."""
        rng = np.random.default_rng(seed)
        pairs = []
        while len(pairs) < count:
            p, xbar, _, _ = random_stationary_problem(rng)
            mset = multiplier_set(p, xbar)
            if mset.empty or not mset.bounded or not len(mset.vertices):
                continue
            pairs += [(mset, rng.standard_normal(p.dim)) for _ in range(4)]
        return pairs

    def test_homogeneity_and_vertex_attainment(self):
        """q is 2-homogeneous, and its multiplier is in the polytope, gives
        q's value through ``fixed_mu_value`` bit for bit, and no vertex gives
        more."""
        for mset, h in self._pairs(43, 60):
            v1, mu = q_of_h(mset, h)
            v2, _ = q_of_h(mset, 2.0 * h)
            assert v2 == pytest.approx(4.0 * v1, rel=1e-9, abs=1e-12)
            assert mset.contains_mu(mu)
            assert fixed_mu_value(mset, h, mu) == v1
            assert max(fixed_mu_value(mset, h, v) for v in mset.vertices) \
                <= v1 + 1e-12 * (1.0 + abs(v1))

    def test_sup_agrees_with_highs(self):
        """q's sup over the vertices is the sup over the polytope's rows,
        maximized by HiGHS."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        for mset, h in self._pairs(43, 60):
            v1, _ = q_of_h(mset, h)
            if not mset.m:
                assert v1 == mset.f_form.quad(h)
                continue
            res = highs_max(linprog, mset.polytope, constraint_quads(mset, h))
            assert res.status == 0
            assert mset.f_form.quad(h) - res.fun == pytest.approx(v1, abs=1e-8 * (1 + abs(v1)))

    def test_weak_duality_over_sampled_multipliers(self, ex1):
        """Every fixed multiplier's Hessian value is dominated by q."""
        ex, mset = ex1
        rng = np.random.default_rng(47)
        for _ in range(30):
            h = rng.standard_normal(12)
            qv, _ = q_of_h(mset, h)
            for mu in rng.uniform(0.0, 1.0, 5):
                assert fixed_mu_value(mset, h, np.array([mu])) <= qv + 1e-9

    def test_monotone_in_multiplier_set(self, ex1):
        """Enlarging the multiplier polytope never decreases q."""
        ex, mset = ex1
        interval = PolytopeH(np.array([[1.0], [-1.0]]), np.array([1.3, 0.2]))
        enlarged = replace(mset, polytope=interval)  # mu in [-0.2, 1.3]
        assert [float(v[0]) for v in enlarged.vertices] == pytest.approx([-0.2, 1.3])
        rng = np.random.default_rng(53)
        for _ in range(40):
            h = rng.standard_normal(12)
            assert q_of_h(enlarged, h)[0] >= q_of_h(mset, h)[0] - 1e-12


class TestSNC:
    def test_example1_sup_form_holds(self, ex1):
        ex, mset = ex1
        verdict = check_snc(mset, cone=ex.display_critical_cone(mset))
        assert verdict.kind == "snc_holds"
        assert verdict.sampled_min >= 1.0 - 1e-6

    def test_example2_violated_at_limit_ray(self, ex2):
        ex, mset = ex2
        verdict = check_snc(mset)
        assert verdict.kind == "snc_violated"
        assert np.allclose(verdict.witness, [0.0, 1.0, 0.0], atol=1e-12)
        assert verdict.witness_value == pytest.approx(-2.0 * DELTA, abs=1e-12)

    def test_convex_quadratic_holds(self):
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]])), (), 0,
            BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        mset = multiplier_set(p, np.zeros(2))
        verdict = check_snc(mset)
        assert verdict.kind == "snc_holds"
        assert verdict.sampled_min >= 0.0

    def test_witness_replays_from_cold_start(self, ex2):
        ex, _ = ex2
        mset1 = multiplier_set(ex.problem, ex.xbar)
        v1 = check_snc(mset1)
        ex_again = build_example2(8)
        mset2 = multiplier_set(ex_again.problem, ex_again.xbar)
        v2 = check_snc(mset2)
        assert v1.kind == v2.kind == "snc_violated"
        assert np.array_equal(v1.witness, v2.witness)
        assert v1.witness_value == v2.witness_value


class TestFixedMultiplier:
    def test_endpoints(self, ex1):
        """mu = 0 is violated by the upper-tail direction (value -1), mu = 1
        by the lower indicator (value -2)."""
        ex, mset = ex1
        cone = ex.display_critical_cone(mset)
        v0 = check_snc_fixed_multiplier(mset, np.array([0.0]), cone=cone)
        assert v0.kind == "snc_violated"
        assert v0.witness_value == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(v0.witness, ex.direction_upper_indicator())
        v1 = check_snc_fixed_multiplier(mset, np.array([1.0]), cone=cone)
        assert v1.kind == "snc_violated"
        assert v1.witness_value == pytest.approx(-2.0, abs=1e-12)
        assert np.allclose(v1.witness, ex.direction_lower_indicator())

    def test_every_multiplier_violated(self, ex1):
        ex, mset = ex1
        cone = ex.display_critical_cone(mset)
        for mu in np.linspace(0.0, 1.0, 11):
            v = check_snc_fixed_multiplier(mset, np.array([mu]), cone=cone)
            assert v.kind == "snc_violated"
            assert v.witness_value == pytest.approx(min(1 - 3 * mu, -1 + 2 * mu), abs=1e-9)

    def test_mu_outside_set_rejected(self, ex1):
        ex, mset = ex1
        with pytest.raises(UsageError):
            check_snc_fixed_multiplier(mset, np.array([1.5]))


class TestOneRowMultiplierMatrix:
    """With one multiplier vertex the sup form and the fixed-multiplier form
    are one maximum over the same one-row matrix, so the two checks agree
    byte for byte, on a verdict that holds and on one that is violated."""

    @staticmethod
    def _unique_multiplier_box():
        """f = x1 + |x|^2 / 2 and g = -x1 + x2^2 / 2 <= 0 on [-1, 1]^3 at 0:
        the one multiplier is mu = 1, and q(h) = |h|^2 + h2^2 holds on the
        critical cone h1 = 0."""
        g = quadratic(0.0, np.array([-1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
        p = ProblemSpec(quadratic(0.0, np.array([1.0, 0.0, 0.0]), np.eye(3)), (g,), 0,
                        BoxSet(np.full(3, -1.0), np.full(3, 1.0)), np.ones(3))
        return multiplier_set(p, np.zeros(3))

    @pytest.mark.parametrize("case", ["box", "example2"])
    def test_fixed_vertex_equals_sup_form(self, case, ex2):
        mset = self._unique_multiplier_box() if case == "box" else ex2[1]
        assert len(mset.vertices) == 1
        sup = check_snc(mset)
        fixed = check_snc_fixed_multiplier(mset, mset.vertices[0])
        assert sup.kind == {"box": "snc_holds", "example2": "snc_violated"}[case]

        def fields(v):
            return (v.kind, v.sampled_min, v.directions_evaluated, v.witness_value,
                    *(None if a is None else np.asarray(a).tobytes()
                      for a in (v.witness, v.witness_mu)))

        assert fields(fixed) == fields(sup)


class TestSSC:
    def test_example1_coercive(self, ex1):
        ex, mset = ex1
        verdict = check_ssc(mset, eta=0.1, alpha_target=1.0)
        assert verdict.kind == "ssc_holds"
        assert verdict.alpha_est == pytest.approx(1.0, abs=1e-6)
        assert verdict.positivity_consistent

    def test_example2_violated(self, ex2):
        ex, mset = ex2
        verdict = check_ssc(mset, eta=0.1, alpha_target=0.1)
        assert verdict.kind == "ssc_violated"
        assert np.allclose(verdict.witness, [0.0, 1.0, 0.0], atol=1e-12)
        assert verdict.positivity_consistent

    def test_unconstrained_alpha_is_smallest_eigenvalue(self):
        p = ProblemSpec(
            quadratic(0.0, np.zeros(2), np.diag([1.0, 3.0])), (), 0,
            BoxSet(np.full(2, -np.inf), np.full(2, np.inf)), np.ones(2))
        mset = multiplier_set(p, np.zeros(2))
        verdict = check_ssc(mset, eta=0.5, alpha_target=1.0)
        assert verdict.kind == "ssc_holds"
        assert verdict.alpha_est == pytest.approx(1.0, abs=1e-9)

    def test_eta_must_be_positive(self, ex1):
        ex, mset = ex1
        with pytest.raises(UsageError):
            check_ssc(mset, eta=0.0, alpha_target=1.0)


class TestGrowth:
    def test_example1_monte_carlo(self, ex1):
        """Seeded Monte-Carlo over 1e4 feasible grid perturbations."""
        ex, _ = ex1
        res = sample_growth(ex.problem, ex.xbar, alpha=0.5, eps=0.05, n_samples=10_000)
        assert res.consistent
        assert res.samples_accepted == 10_000
        assert res.worst_margin >= -1e-9

    def test_example2_local_minimum(self, ex2):
        ex, _ = ex2
        res = sample_growth(ex.problem, ex.xbar, alpha=0.1, eps=0.05, n_samples=2000)
        assert res.consistent
        assert res.samples_accepted > 0

    def test_linear_descent_counterexample(self):
        """A linear objective with a feasible descent direction violates
        every growth inequality."""
        p = ProblemSpec(
            quadratic(0.0, np.array([1.0, 0.0]), np.zeros((2, 2))), (), 0,
            BoxSet(np.full(2, -1.0), np.full(2, 1.0)), np.ones(2))
        res = sample_growth(p, np.zeros(2), alpha=0.1, eps=0.5, n_samples=500)
        assert not res.consistent
        assert res.counterexample is not None
        # re-verify the counterexample
        x = res.counterexample
        assert p.objective.value(x) < 0.0 - 0.05 * p.norm(x) ** 2 + 1e-12


def _two_equality_problem():
    """f = ||x||^2 on a box with x0 >= 0 active at the origin and two curved
    equalities through the origin; the feasible set near 0 is a 2-manifold."""
    n = 4
    m_a = np.zeros((n, n))
    m_a[2, 2] = 2.0
    m_b = np.zeros((n, n))
    m_b[0, 0] = 2.0
    g_a = quadratic(0.0, np.array([1.0, 1.0, 0.0, 0.0]), m_a, name="ga")
    g_b = quadratic(0.0, np.array([0.0, 1.0, 0.0, -1.0]), m_b, name="gb")
    return ProblemSpec(
        quadratic(0.0, np.zeros(n), 2.0 * np.eye(n)), (g_a, g_b), 2,
        BoxSet(np.array([0.0, -1.0, -1.0, -1.0]), np.ones(n)), np.ones(n))


def _passes_acceptance(p, x, s, eps, tol=DEFAULT_TOLERANCES):
    """The acceptance test of the box sampler, evaluated independently."""
    g = np.array([c.value(s) for c in p.constraints])
    return (np.all(np.abs(g[:p.m1]) <= tol.residual)
            and np.all(g[p.m1:] <= tol.residual)
            and p.abstract_set.contains(s, tol.activity)
            and weighted_norm(p.weights, s - x) <= eps * (1.0 + 1e-9))


class TestBoxSampler:
    """The Newton correction moves only coordinates off the box bounds and
    corrects every equality, so almost every box try is accepted."""

    @pytest.mark.parametrize("grid", [120, 480])
    def test_example1_accepts_almost_every_try(self, grid):
        ex = build_example1(grid)
        res = sample_growth(ex.problem, ex.xbar, alpha=0.5, eps=0.05, n_samples=250)
        assert res.consistent
        assert res.samples_accepted == 250
        assert res.tries <= 500

    def test_two_equalities_get_samples(self):
        p = _two_equality_problem()
        res = sample_growth(p, np.zeros(4), alpha=0.1, eps=0.1, n_samples=200)
        assert res.samples_accepted > 0
        assert res.note == ""
        assert res.consistent

    def test_tries_reported(self, capsys, tmp_path):
        path = tmp_path / "example1.json"
        path.write_text(json.dumps({"builtin": "example1", "grid": 12}))
        assert main(["growth", str(path), "--alpha", "0.5", "--eps", "0.05",
                     "--samples", "100", "--format", "json"]) == 0
        numbers = json.loads(capsys.readouterr().out)["checks"][1]["numbers"]
        assert numbers["samples"] == 100
        assert 100 <= numbers["tries"] <= 4000

    def test_zero_sample_pass_shows_its_tries(self):
        """Two equalities in one variable isolate the origin: the vacuous
        'pass' reports every try it spent."""
        res = sample_growth(_isolated_origin_problem(), np.zeros(1), alpha=0.1, eps=0.1,
                            n_samples=10)
        assert (res.samples_accepted, res.tries) == (0, 400)
        assert res.note == "no feasible samples found"

    @pytest.mark.parametrize("grid,count", [(12, 2000), (120, 500), (480, 250)])
    def test_example1_samples_pass_acceptance(self, grid, count):
        ex = build_example1(grid)
        rng = np.random.default_rng(DEFAULT_BUDGET.seed)
        samples, tries = _box_feasible_samples(
            ex.problem, ex.xbar, 0.05, count, rng, DEFAULT_TOLERANCES)
        assert len(samples) == count <= tries
        assert all(_passes_acceptance(ex.problem, ex.xbar, s, 0.05) for s in samples)
        res = sample_growth(ex.problem, ex.xbar, alpha=0.5, eps=0.05, n_samples=count)
        assert res.worst_margin >= -DEFAULT_TOLERANCES.growth_slack

    def test_random_problem_samples_pass_acceptance(self):
        rng = np.random.default_rng(59)
        with_equalities = 0
        for _ in range(40):
            p, xbar, _, _ = random_stationary_problem(rng)
            samples, _ = _box_feasible_samples(p, xbar, 0.05, 50, rng, DEFAULT_TOLERANCES)
            assert all(_passes_acceptance(p, xbar, s, 0.05) for s in samples)
            with_equalities += bool(p.m1 and len(samples))
        assert with_equalities >= 10


def _isolated_origin_problem():
    """Two equalities in one variable that only the origin satisfies."""
    g_a = quadratic(0.0, np.array([1.0]), np.zeros((1, 1)))
    g_b = quadratic(0.0, np.array([1.0]), np.array([[2.0]]))
    return ProblemSpec(quadratic(0.0, np.zeros(1), np.eye(1)), (g_a, g_b), 2,
                       BoxSet(np.full(1, -1.0), np.ones(1)), np.ones(1))


class _ZeroFirstStep:
    """A generator whose first normal draw is all zeros; every other draw
    comes from a seeded numpy generator.  ``calls`` lists the draws in order."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def standard_normal(self, size=None, out=None):
        self.calls.append("normal")
        step = self.rng.standard_normal(size, out=out)
        if len(self.calls) == 1:
            step[...] = 0.0
        return step

    def random(self):
        self.calls.append("radius")
        return self.rng.random()


class TestSamplerMatchesPerTry:
    """The row-block sampler against the one-try-at-a-time loop of
    ``helpers.box_samples_per_try``: the same tries, the same accepted
    count, and the same samples up to rounding."""

    @staticmethod
    def _compare(p, x, count, make_rng, eps=0.05):
        ref, ref_tries = box_samples_per_try(p, x, eps, count, make_rng(), DEFAULT_TOLERANCES)
        got, tries = _box_feasible_samples(p, x, eps, count, make_rng(), DEFAULT_TOLERANCES)
        assert (tries, len(got)) == (ref_tries, len(ref))
        assert got.shape == (len(ref), p.dim)
        for s, r in zip(got, ref):
            assert np.max(np.abs(s - r)) <= 1e-12
        return got, tries

    @pytest.mark.parametrize("seed", [1, 7, 902])
    @pytest.mark.parametrize("grid", [12, 120, 480])
    def test_example1(self, grid, seed):
        ex = build_example1(grid)
        self._compare(ex.problem, ex.xbar, 150, lambda: np.random.default_rng(seed))

    def test_two_equalities(self):
        got, _ = self._compare(_two_equality_problem(), np.zeros(4), 200,
                               lambda: np.random.default_rng(DEFAULT_BUDGET.seed))
        assert len(got)

    def test_random_problems(self):
        rng = np.random.default_rng(59)
        for k in range(40):
            p, xbar, _, _ = random_stationary_problem(rng, weights_one=bool(k % 2))
            self._compare(p, xbar, 50, lambda: np.random.default_rng(k))

    def test_zero_samples(self):
        got, tries = self._compare(_isolated_origin_problem(), np.zeros(1), 10,
                                   lambda: np.random.default_rng(0))
        assert (len(got), tries) == (0, 400)

    @pytest.mark.parametrize("blocks", [0, 1])
    def test_count_ends_inside_a_block(self, blocks):
        """A count smaller than its first block (the 16-row minimum), and
        one that ends in the second block: example1 at grid 120 accepts
        every try, so a first block of the cap's rows leaves 5 samples to
        a second block of 16 rows."""
        ex = build_example1(120)
        count = blocks * _growth_rows(ex.grid, 10**9) + 5
        got, tries = self._compare(ex.problem, ex.xbar, count, lambda: np.random.default_rng(3))
        first = _growth_rows(ex.grid, count)
        assert tries == count
        assert tries < first if blocks == 0 else first < tries < first + _growth_rows(ex.grid, 5)

    def test_zero_step_is_a_rejected_try_without_a_radius(self):
        ex = build_example1(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._compare(ex.problem, ex.xbar, 30, lambda: _ZeroFirstStep(5))
            stub = _ZeroFirstStep(5)
            _box_feasible_samples(ex.problem, ex.xbar, 0.05, 30, stub, DEFAULT_TOLERANCES)
        assert stub.calls[:3] == ["normal", "normal", "radius"]

    @pytest.mark.parametrize("builder", [lambda: build_example1(12), lambda: build_example2(8)])
    def test_margins_match_per_sample(self, builder):
        """The block margins against one sample at a time, on the box path
        and on the problem's own feasible sampler."""
        ex = builder()
        alpha = 0.5
        res = sample_growth(ex.problem, ex.xbar, alpha=alpha, eps=0.05, n_samples=300)
        rng = np.random.default_rng(DEFAULT_BUDGET.seed)
        if ex.problem.feasible_sampler is not None:
            samples = ex.problem.feasible_sampler(rng, ex.xbar, 0.05, 300)
        else:
            samples, _ = box_samples_per_try(ex.problem, ex.xbar, 0.05, 300, rng,
                                             DEFAULT_TOLERANCES)
        margins = growth_margins_per_sample(ex.problem, ex.xbar, samples, alpha)
        assert res.samples_accepted == len(samples)
        assert abs(res.worst_margin - min(margins)) <= 1e-12


def _block_size_problems():
    """(label, problem, point, eps, count) of the block-size comparisons."""
    for grid, count in ((12, 300), (120, 250), (480, 100)):
        ex = build_example1(grid)
        yield f"example1 grid {grid}", ex.problem, ex.xbar, 0.05, count
    yield "two equalities", _two_equality_problem(), np.zeros(4), 0.1, 200
    rng = np.random.default_rng(59)
    for k in range(10):
        p, xbar, _, _ = random_stationary_problem(rng, weights_one=bool(k % 2))
        yield f"random problem {k}", p, xbar, 0.05, 50


class TestBlockSizes:
    """The sampler with blocks of 1 row, of the 16-row minimum and of the
    default cap.  A try's draws, Newton steps and acceptance are row by row,
    so every block size draws the same tries and accepts the same ones.
    The problem's row evaluators may round a row differently in blocks of
    other sizes (OpenBLAS runs a 1-row product as gemv, and gemm's kernels
    depend on the row count), so the samples agree to rounding, not to the
    bit; with 1-row blocks, example1's are the one-try loop's bit for bit."""

    SIZES = {"1 row": (1, 0), "16-row minimum": (16, 0),
             "default cap": (curvature._GROWTH_MIN_ROWS, curvature._GROWTH_MAX_ENTRIES)}

    @pytest.mark.parametrize("label, p, x, eps, count",
                             [pytest.param(*case, id=case[0]) for case in _block_size_problems()])
    def test_same_tries_and_samples(self, monkeypatch, label, p, x, eps, count):
        runs = {}
        for size, (min_rows, max_entries) in self.SIZES.items():
            monkeypatch.setattr(curvature, "_GROWTH_MIN_ROWS", min_rows)
            monkeypatch.setattr(curvature, "_GROWTH_MAX_ENTRIES", max_entries)
            runs[size] = _box_feasible_samples(p, x, eps, count, np.random.default_rng(902),
                                               DEFAULT_TOLERANCES)
        samples, tries = runs["default cap"]
        assert len(samples)
        for size, (got, got_tries) in runs.items():
            assert (got_tries, got.shape) == (tries, samples.shape), size
            assert np.all(np.abs(got - samples) <= 1e-12 * np.maximum(1.0, np.abs(samples))), size
        if label.startswith("example1"):
            ref, ref_tries = box_samples_per_try(p, x, eps, count, np.random.default_rng(902),
                                                 DEFAULT_TOLERANCES)
            assert ref_tries == tries and runs["1 row"][0].tobytes() == np.array(ref).tobytes()


def _assert_close(batched, scalar):
    scalar = np.asarray(scalar, dtype=float)
    assert batched.shape == scalar.shape
    assert np.all(np.abs(batched - scalar) <= 1e-12 * np.maximum(1.0, np.abs(scalar)))


def _values(mset, H, mus):
    """Fresh form values of the rows of H over the multiplier rows ``mus``
    through the battery's block path."""
    return _battery_values(mset, H, np.ones(H.shape[1]), mus)[1]


def _bounded_random_problems(rng, count):
    found = 0
    while found < count:
        p, xbar, _, _ = random_stationary_problem(rng, max_dim=5, max_constraints=4,
                                                  weights_one=False)
        mset = multiplier_set(p, xbar)
        if not mset.empty and mset.bounded and p.n_constraints:
            found += 1
            yield p, xbar, mset


class TestBatchedValues:
    """The block loop of the batteries against ``q_of_h`` and
    ``fixed_mu_value`` direction by direction, and ``quadratic``'s row
    evaluators against its defining formulas."""

    def test_random_matrix_forms(self):
        rng = np.random.default_rng(71)
        for p, xbar, mset in _bounded_random_problems(rng, 25):
            H = rng.standard_normal((30, p.dim))
            _assert_close(_values(mset, H, mset.vertices), [q_of_h(mset, h)[0] for h in H])
            mu = mset.vertices[-1]
            _assert_close(_values(mset, H, mu[None]), [fixed_mu_value(mset, h, mu) for h in H])

    @pytest.mark.parametrize("grid", [12, 120, 480])
    def test_example1_forms_batch_rows(self, grid):
        """Example1's grid forms evaluate a row block in one call: gaussian
        rows, zero rows, the run indicators, and a row count that crosses a
        block boundary of ``_battery_values``."""
        ex = build_example1(grid)
        mset = multiplier_set(ex.problem, ex.xbar)
        rng = np.random.default_rng(grid)
        H = rng.standard_normal((_BLOCK_ENTRIES // grid + 3, grid))
        H[::7] = 0.0
        H[1] = ex.direction_lower_indicator()
        H[2] = ex.direction_upper_indicator()
        H[3] = ex.direction_lower_indicator() + ex.direction_upper_indicator()
        _assert_close(_values(mset, H, mset.vertices), [q_of_h(mset, h)[0] for h in H])
        for mu in (np.array([0.0]), np.array([0.3]), np.array([1.0])):
            _assert_close(_values(mset, H, mu[None]), [fixed_mu_value(mset, h, mu) for h in H])
        _, values = _battery_values(mset, H, ex.problem.weights, mset.vertices)
        _assert_close(values, [q_of_h(mset, h)[0] for h in H])

    def test_vertex_ties(self, ex1):
        """On (1/3, 3/4) the constraint form vanishes, so both vertices of
        the multiplier interval [0, 1] attain the max."""
        ex, mset = ex1
        H = np.random.default_rng(4).standard_normal((20, ex.grid))
        H[:, ~(ex.mask_middle | ex.mask_upper_left)] = 0.0
        assert all(constraint_quads(mset, h)[0] == 0.0 for h in H)
        _assert_close(_values(mset, H, mset.vertices), [q_of_h(mset, h)[0] for h in H])

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_block_boundaries(self, blocks, extra):
        rng = np.random.default_rng(10 * blocks + extra)
        p, xbar, mset = next(_bounded_random_problems(rng, 1))
        H = rng.standard_normal((blocks * (_BLOCK_ENTRIES // p.dim) + extra, p.dim))
        H[::5] = 0.0
        n2, values = _battery_values(mset, H, p.weights, mset.vertices)
        _assert_close(n2, [float(np.sum(p.weights * h * h)) for h in H])
        _assert_close(values, [q_of_h(mset, h)[0] for h in H])
        mu = mset.vertices[0]
        _, fixed = _battery_values(mset, H, p.weights, mu[None])
        _assert_close(fixed, [fixed_mu_value(mset, h, mu) for h in H])

    def test_quadratic_with_weights(self):
        """``quadratic``'s rows against its defining formulas row by row:
        c + l.x + x.M_s.x / 2 and W^-1 (l + M_s x), M_s the symmetric part."""
        rng = np.random.default_rng(12)
        for n in (1, 3, 17):
            M, lin, w = rng.standard_normal((n, n)), rng.standard_normal(n), rng.uniform(0.5, 2.0, n)
            Ms = 0.5 * (M + M.T)
            fn = quadratic(0.7, lin, M, w)
            X = rng.standard_normal((9, n))
            _assert_close(fn.values(X), [0.7 + lin @ x + 0.5 * x @ Ms @ x for x in X])
            _assert_close(fn.gradients(X), [(lin + Ms @ x) / w for x in X])
            _assert_close(fn.hessian(X[0]).quad_rows(X), [x @ Ms @ x for x in X])
            for x in X:
                assert fn.value(x) == fn.values(x[None])[0]
                assert np.array_equal(fn.gradient(x), fn.gradients(x[None])[0])
            assert fn.values(np.empty((0, n))).shape == (0,)
            assert fn.gradients(np.empty((0, n))).shape == (0, n)

    def test_growth_makes_no_per_point_constraint_calls(self):
        """On example1 the sampler evaluates its constraint a row block at a
        time: its one one-row call is the constraint gradient at x."""
        ex = build_example1(120)
        g = ex.problem.constraints[0]
        calls = []

        def counted(name, f):
            def call(X):
                calls.append((name, len(X)))
                return f(X)
            return call

        g_counted = replace(g, values=counted("values", g.values),
                            gradients=counted("gradients", g.gradients))
        p = replace(ex.problem, constraints=(g_counted,))
        res = sample_growth(p, ex.xbar, alpha=0.5, eps=0.05, n_samples=250)
        assert res.samples_accepted == 250
        assert [c for c in calls if c[1] == 1] == [("gradients", 1)]
        assert len(calls) < res.tries / 2


def _spy_descents(monkeypatch, reference: bool):
    """Records every ``_descend`` call as [its outcome, the reference's
    outcome, its one-row ``into_cone`` calls], with ``reference`` running
    ``helpers.descend_per_rung`` on the same arguments beside it, and the
    outcomes of every screened block."""
    record = {"descents": [], "screens": []}
    real_descend, real_screen, real_into_cone = (curvature._descend, curvature._screen,
                                                 curvature.into_cone)

    def descend(mset, cone, start, budget, mus):
        entry = [None, None, 0]
        record["descents"].append(entry)
        entry[0] = real_descend(mset, cone, start, budget, mus)
        if reference:
            entry[1] = descend_per_rung(mset, cone, start, budget, mus)
        return entry[0]

    def screen(*args):
        out = real_screen(*args)
        record["screens"].append(out)
        return out

    def into_cone(cone, h):
        record["descents"][-1][2] += 1
        return real_into_cone(cone, h)

    monkeypatch.setattr(curvature, "_descend", descend)
    monkeypatch.setattr(curvature, "_screen", screen)
    monkeypatch.setattr(curvature, "into_cone", into_cone)
    return record


def _assert_rungs_alone(record) -> None:
    """Each descent tries at most ``_EXACT_RUNGS`` rungs alone after its
    start and after each accepted step, plus the screened rung it accepts:
    a rung that passes its screen passes alone too.  A descent of the
    one-rung loop tries every rung alone, 26 from 0.5 to a failing ladder's
    floor."""
    for (visited, rungs), _, calls in record["descents"]:
        assert calls <= min(rungs, _EXACT_RUNGS * (1 + len(visited)) + len(visited))


def _descent_searches(case: str):
    """(mset, cone, mus) searches of one problem: a many-multiplier box at
    eta 0 and 0.1 over the vertices and over the vertices' barycenter, or
    example1's display cone with the one rows mu in linspace(0, 1, 11) and
    the vertices over its eta 0 and 0.1 cones."""
    if case.startswith("many"):
        mset = multiplier_set(*many_multiplier_spec(int(case[4:])))
        bary = np.mean(mset.vertices, axis=0)
        return [(mset, critical_cone(mset, eta), mus) for eta in (0.0, 0.1)
                for mus in (mset.vertices, bary[None])]
    ex = build_example1(int(case[5:]))
    mset = multiplier_set(ex.problem, ex.xbar)
    display = ex.display_critical_cone(mset)
    return [*((mset, critical_cone(mset, eta), mset.vertices) for eta in (0.0, 0.1)),
            (mset, display, mset.vertices),
            *((mset, display, np.array([[mu]])) for mu in np.linspace(0.0, 1.0, 11))]


class TestDescentMatchesPerRung:
    """The descent with its failing ladders screened in row blocks against
    the one-rung-at-a-time loop of ``helpers.descend_per_rung``: the same
    accepted candidates, byte for byte, and the same number of rungs.  The
    step budgets end before, at and inside screened blocks."""

    @pytest.mark.parametrize("steps", [1, 3, 5, 30, 200])
    @pytest.mark.parametrize("case", [*(f"many{seed}" for seed in range(6)),
                                      "grid_12", "grid_120", "grid_480"])
    def test_same_steps(self, case, steps, monkeypatch):
        record = _spy_descents(monkeypatch, reference=True)
        budget = replace(DEFAULT_BUDGET, descent_steps=steps)
        for mset, cone, mus in _descent_searches(case):
            curvature._search_min(mset, cone, budget, mus)
        assert record["descents"]
        for (got, rungs), (want, want_rungs), _ in record["descents"]:
            assert rungs == want_rungs <= steps
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.h.tobytes() == b.h.tobytes()
                assert a.value == b.value and a.normalized == b.normalized
                assert np.asarray(a.mu).tobytes() == np.asarray(b.mu).tobytes()
        _assert_rungs_alone(record)
        # a block follows _EXACT_RUNGS failed rungs and stops at the budget;
        # example1's ladders accept nothing, so each is screened past them
        assert all(len(out) <= steps - _EXACT_RUNGS for out in record["screens"])
        if case.startswith("grid"):
            assert bool(record["screens"]) == (steps > _EXACT_RUNGS)


def test_example1_descents_screen_their_ladders(monkeypatch, capsys):
    """During ``repro example1 --grid 120`` each descent's failing ladder is
    screened: it tries at most ``_EXACT_RUNGS`` rungs alone, plus one per
    screened rung that passes, where the one-rung loop tries 26."""
    record = _spy_descents(monkeypatch, reference=False)
    assert main(["repro", "example1", "--grid", "120"]) == 0
    capsys.readouterr()
    descents = record["descents"]
    assert len(descents) >= 14 and record["screens"]
    _assert_rungs_alone(record)
    assert sum(calls for _, _, calls in descents) < sum(rungs for (_, rungs), _, _ in descents)
