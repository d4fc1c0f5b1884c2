"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import time

import numpy as np

from kkt2.cli import main
from kkt2.config import SearchBudget
from kkt2.curvature import (
    check_snc_fixed_multiplier,
    check_ssc,
    q_of_h,
    q_of_h_lp,
)
from kkt2.cones import SignPatternCone
from kkt2.examples import (
    build_example1,
    build_example2,
    run_example2_certification,
    verify_halfspace_representation,
    verify_matrix_property,
    verify_section_membership,
)
from kkt2.kkt import check_rzkcq, check_strict_cq, multiplier_set
from kkt2.linalg import LinearProgram, enumerate_vertices, solve_lp
from kkt2.model import BoxSet, validate_derivatives
from kkt2.report import replay

from helpers import random_bounded_polytope, random_stationary_problem


def report_line(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_example1_multiplier_interval(capsys):
    """repro example1 --grid 120 reports vertex set {0, 1} in under 1 s."""
    start = time.perf_counter()
    code = main(["repro", "example1", "--grid", "120", "--format", "json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    record = {c["name"]: c for c in data["checks"]}
    verts = sorted(record["multiplier_set"]["numbers"]["vertices"])
    assert len(verts) == 2
    assert abs(verts[0] - 0.0) <= 1e-9
    assert abs(verts[1] - 1.0) <= 1e-9
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1 s"
    with capsys.disabled():
        report_line("criterion-1", f"vertices {verts}, runtime {elapsed:.2f}s")


def test_criterion_2_fixed_multiplier_closed_forms(capsys):
    """Every sampled multiplier admits a violating direction whose value is
    min(1 - 3 mu, -1 + 2 mu) within 1e-9."""
    ex = build_example1(120)
    mset = multiplier_set(ex.problem, ex.xbar)
    cone = ex.display_critical_cone(mset)
    worst = 0.0
    for mu in np.linspace(0.0, 1.0, 11):
        verdict = check_snc_fixed_multiplier(mset, np.array([mu]), cone=cone)
        assert verdict.kind == "snc_violated", f"no violation found at mu={mu}"
        expected = min(1.0 - 3.0 * mu, -1.0 + 2.0 * mu)
        err = abs(verdict.witness_value - expected)
        assert err <= 1e-9, f"mu={mu}: value {verdict.witness_value} vs {expected}"
        worst = max(worst, err)
    with capsys.disabled():
        report_line("criterion-2", f"11 multipliers, worst value error {worst:.2e}")


def test_criterion_3_ssc_sampled_minimum(capsys):
    """q over 576+ unit directions of the extended critical cone stays >= 1,
    within 1e-6, at grids 12, 60, 120; under 10 s at 120."""
    details = []
    for grid in (12, 60, 120):
        ex = build_example1(grid)
        mset = multiplier_set(ex.problem, ex.xbar)
        start = time.perf_counter()
        verdict = check_ssc(mset, eta=0.1, alpha_target=1.0)
        elapsed = time.perf_counter() - start
        assert verdict.directions_evaluated >= 576
        assert verdict.alpha_est >= 1.0 - 1e-6
        if grid == 120:
            assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10 s"
        details.append(f"N={grid}: alpha={verdict.alpha_est:.9f} "
                       f"({verdict.directions_evaluated} dirs, {elapsed:.2f}s)")
    with capsys.disabled():
        report_line("criterion-3", "; ".join(details))


def test_criterion_4_example2_negative_curvature(capsys):
    """q((0,1,0)) = -2 delta at every truncation, matching the closed form."""
    gamma = (1.0 + np.sqrt(3.0)) / 2.0
    delta = (gamma**3 + 1.0) / (gamma * (gamma + 1.0) ** 2)
    values = []
    for trunc in (2, 5, 10):
        ex = build_example2(trunc)
        mset = multiplier_set(ex.problem, ex.xbar)
        val, _ = q_of_h(mset, np.array([0.0, 1.0, 0.0]))
        assert abs(val - (-2.0 * delta)) <= 1e-12
        assert abs(val - (-0.92820)) <= 1e-5
        values.append(val)
    assert max(values) - min(values) == 0.0
    with capsys.disabled():
        report_line("criterion-4", f"q = {values[0]!r} at truncations 2, 5, 10")


def test_criterion_5_example2_unique_multiplier_and_strict_cq(capsys):
    """The multiplier set is the single point mu = 0 with lambda = (0,0,1),
    and the strict qualification fails with achieved cone (-inf, 0]."""
    ex = build_example2(8)
    mset = multiplier_set(ex.problem, ex.xbar)
    assert len(mset.vertices) == 1
    mu = mset.vertices[0]
    assert abs(float(mu[0])) <= 1e-10
    lam = mset.lam_of(mu)
    assert float(np.max(np.abs(lam - np.array([0.0, 0.0, 1.0])))) <= 1e-10
    verdict = check_strict_cq(mset, mu)
    assert not verdict.holds
    assert verdict.achieved_cone == "(-inf, 0]"
    with capsys.disabled():
        report_line("criterion-5",
                    f"mu = {float(mu[0]):.2e}, lambda = {lam.tolist()}, "
                    f"achieved cone {verdict.achieved_cone}")


def test_criterion_6_halfspace_verification(capsys):
    """All listed half-space rows with k <= N-2 at N=12 pass membership and
    equality-annotation checks at 1e-10."""
    ok, checks = verify_halfspace_representation(build_example2(12).geometry, tol=1e-10)
    assert ok
    worst_slack = min(c.worst_slack for c in checks)
    worst_eq = max(c.worst_equality_residual for c in checks)
    assert all(c.satisfied and c.equality_exact for c in checks)
    with capsys.disabled():
        report_line("criterion-6",
                    f"{len(checks)} rows, worst slack {worst_slack:.2e}, "
                    f"worst equality residual {worst_eq:.2e}")


def test_criterion_7_section_membership(capsys):
    """R_(k,n) lies under the parabola for 1 <= k, n <= 30 at 1e-10, with
    boundary equality on the diagonal."""
    ok, worst_member, worst_diag = verify_section_membership(
        build_example2(4).geometry, 30, 30, tol=1e-10)
    assert ok
    with capsys.disabled():
        report_line("criterion-7",
                    f"900 points, worst residual {worst_member:.2e}, "
                    f"diagonal residual {worst_diag:.2e}")


def test_criterion_8_matrix_property(capsys):
    """max(x.A1.x, x.A2.x) >= 0.5||x||^2 - 1e-9 on the grid and 1e4 samples;
    every mixture on the 0.05-spaced grid has a negative diagonal entry."""
    ok, worst, combos = verify_matrix_property(n_samples=10_000, seed=0, grid_step=1e-3)
    assert ok
    assert worst >= -1e-9
    assert len(combos) == 21
    assert all(diag < 0.0 for _, diag in combos)
    with capsys.disabled():
        report_line("criterion-8",
                    f"worst margin {worst:.3e}, 21 mixtures all non-coercive")


def test_criterion_9_property_suites(capsys):
    """Bipolar identity, LP-vs-vertex oracle agreement, q homogeneity and
    vertex attainment, witness replay determinism, derivative validation."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        codes = rng.integers(0, 4, size=int(rng.integers(1, 12))).astype(np.int8)
        pat = SignPatternCone(codes)
        assert np.array_equal(pat.polar().polar().codes, codes)

    agree = 0
    for _ in range(50):
        poly = random_bounded_polytope(rng, max_dim=5)
        verts = enumerate_vertices(poly)
        assert verts
        obj = rng.standard_normal(poly.dim)
        for sense, pick in (("min", min), ("max", max)):
            res = solve_lp(LinearProgram(obj, poly.eq_rows, poly.ineq_rows, sense=sense))
            vals = [float(obj @ v) for v in verts]
            assert abs(res.value - pick(vals)) <= 1e-8
        agree += 1

    pairs = 0
    while pairs < 200:
        p, xbar, _, _ = random_stationary_problem(rng)
        mset = multiplier_set(p, xbar)
        if mset.empty or not mset.bounded or not mset.vertices:
            continue
        h = rng.standard_normal(p.dim)
        v1, _ = q_of_h(mset, h)
        v2, _ = q_of_h(mset, 2.0 * h)
        assert abs(v2 - 4.0 * v1) <= 1e-9 * max(1.0, abs(v1))
        assert abs(q_of_h_lp(mset, h) - v1) <= 1e-8 * (1.0 + abs(v1))
        pairs += 1

    ex = build_example2(6)
    mset = multiplier_set(ex.problem, ex.xbar)
    budget = SearchBudget()
    runs = [check_snc_fixed_multiplier(mset, mset.vertices[0], budget=budget)
            for _ in range(2)]
    assert runs[0].kind == runs[1].kind == "snc_violated"
    assert np.array_equal(runs[0].witness, runs[1].witness)
    assert runs[0].witness_value == runs[1].witness_value
    _, report = run_example2_certification(6)
    assert all(ok for _, ok, _ in replay(ex.problem, report))

    for builder, size in ((build_example1, 12), (build_example1, 120), (build_example2, 8)):
        ex = builder(size)
        assert validate_derivatives(ex.problem, ex.xbar).passed

    with capsys.disabled():
        report_line("criterion-9",
                    f"bipolar x100, oracle LPs x{agree}, q pairs x{pairs}, "
                    "replay deterministic, builtin derivatives pass")


def test_criterion_10_cq_logic(capsys):
    """On 50 random stationary problems: RZK CQ implies a bounded multiplier
    polytope, and a holding strict CQ implies a single vertex.  The problems
    are boxes, polyhedral data, where the converse holds too: a single
    vertex implies the strict CQ."""
    rng = np.random.default_rng(211)
    n_rzkcq = n_strict = 0
    for _ in range(50):
        p, xbar, _, _ = random_stationary_problem(rng)
        assert isinstance(p.abstract_set, BoxSet)
        mset = multiplier_set(p, xbar)
        if check_rzkcq(mset).holds:
            assert mset.bounded, "RZK CQ held but the multiplier set is unbounded"
            n_rzkcq += 1
        if mset.bounded and mset.vertices:
            verdict = check_strict_cq(mset, mset.vertices[0])
            assert verdict.holds == (len(mset.vertices) == 1), \
                "strict CQ verdict disagrees with the multiplier's uniqueness"
            n_strict += verdict.holds
    assert n_rzkcq >= 10, "generator produced too few CQ-satisfying problems"
    assert n_strict >= 5, "generator produced too few strict-CQ problems"
    with capsys.disabled():
        report_line("criterion-10",
                    f"50 problems, rzkcq-holds {n_rzkcq}, strict-holds {n_strict}, "
                    "zero counterexamples")
