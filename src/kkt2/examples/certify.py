"""End-to-end certification chains for the built-in problems: the shared
stages of ``kkt2.stages``, the chain's own stages, and a final
``chain_expectations`` record that fails unless every record matches the
chain's expectations table."""

from __future__ import annotations

import time

import numpy as np

from ..config import DEFAULT_TOLERANCES, SearchBudget
from ..curvature import check_snc_fixed_multiplier
from ..report import CertificationReport, CheckRecord, new_report, problem_digest
from ..report import second_order_witness_dict
from ..stages import RunContext, derivative_validation, feasibility, growth_consistency, run
from ..stages import rzkcq, snc_sup, ssc, stationarity, strict_cq, weaker_cq
from .example1 import Example1Problem, build_example1
from .example2 import DELTA, Example2Problem, build_example2
from .example2 import verify_halfspace_representation, verify_section_membership

GROWTH_ALPHA, GROWTH_EPS, GROWTH_SAMPLES = 0.1, 0.05, 2000  # example2's growth check
# Record name -> (expected verdict, numeric check at a fixed tolerance or None).
EXAMPLE1_EXPECTATIONS = {
    "feasibility": ("pass", None), "derivative_validation": ("pass", None),
    "rzkcq": ("holds", None), "weaker_cq": ("holds", None), "stationarity": ("holds", None),
    "multiplier_set": ("pass", lambda r: np.allclose(r.numbers["vertices"], [0.0, 1.0],
                                                     rtol=0.0, atol=1e-9)),
    "ssc": ("holds", lambda r: abs(r.numbers["alpha_est"] - 1.0) <= 1e-6),
    "snc_sup": ("holds", lambda r: r.numbers["sampled_min"] >= 1.0 - 1e-6),
    "fixed_multiplier_gap": ("pass", None),
}
EXAMPLE2_EXPECTATIONS = {
    "feasibility": ("pass", None), "derivative_validation": ("pass", None),
    "growth_consistency": ("pass", None), "rzkcq": ("holds", None),
    "stationarity": ("holds", None), "multiplier_uniqueness": ("pass", None),
    "snc_sup": ("violated", lambda r: abs(r.witness["value"] + 2.0 * DELTA) <= 1e-9),
    "strict_cq": ("violated", lambda r: r.numbers["achieved_cone"] == "(-inf, 0]"),
    "halfspace_representation": ("pass", None), "section_membership": ("pass", None),
}


def _chain(ex, label: str, digest: str, budget: SearchBudget, started: float, stages: list,
           expectations: dict) -> CertificationReport:
    report = new_report(label, problem_digest(digest.encode()), budget.seed, ex.xbar)
    ctx = RunContext(ex.problem, ex.xbar, DEFAULT_TOLERANCES, budget, report, started)
    return run(ctx, [*stages, lambda c: _chain_expectations(c, expectations)])


def _chain_expectations(ctx: RunContext, expectations: dict) -> CheckRecord:
    records = {r.name: r for r in ctx.report.checks}
    ok = all(name in records and records[name].verdict == verdict
             and (check is None or check(records[name]))
             for name, (verdict, check) in expectations.items())
    return CheckRecord("chain_expectations", "pass" if ok else "fail", {})


def _multiplier_interval(ctx: RunContext) -> CheckRecord:
    mset = ctx.multipliers
    vertices = sorted(float(v[0]) for v in mset.vertices)
    ok = mset.bounded and len(vertices) == 2
    return CheckRecord("multiplier_set", "pass" if ok else "fail", {
        "bounded": mset.bounded, "vertices": vertices,
        "lambda_interval": [min(vertices), max(vertices)] if vertices else []})


def _fixed_multiplier_gap(ctx: RunContext, cone) -> CheckRecord:
    """No single multiplier of the interval satisfies the necessary
    condition on its own: each of 11 sampled ones has a violating direction."""
    gaps = []
    for mu in np.linspace(0.0, 1.0, 11):
        verdict = check_snc_fixed_multiplier(ctx.multipliers, np.array([mu]), cone=cone,
                                             budget=ctx.budget)
        gaps.append({"mu": float(mu), "violated": verdict.kind == "snc_violated",
                     "witness": second_order_witness_dict(verdict)})
    return CheckRecord("fixed_multiplier_gap", "pass" if all(g["violated"] for g in gaps)
                       else "fail", {"n_multipliers_sampled": len(gaps)}, {"per_multiplier": gaps})


def _display_cone_checks(ctx: RunContext, ex: Example1Problem) -> list[CheckRecord]:
    """snc_sup and the fixed-multiplier gap on one display cone, built from
    the run's multiplier set: the direction battery is cached on it."""
    cone = ex.display_critical_cone(ctx.multipliers)
    return [snc_sup(ctx, cone), _fixed_multiplier_gap(ctx, cone)]


def _multiplier_uniqueness(ctx: RunContext) -> CheckRecord:
    mset = ctx.multipliers
    unique = len(mset.vertices) == 1 and abs(float(mset.vertices[0][0])) <= 1e-10
    lam = mset.lam_of(mset.vertices[0]) if len(mset.vertices) else None
    lam_ok = lam is not None and float(np.max(np.abs(lam - np.array([0.0, 0.0, 1.0])))) <= 1e-10
    return CheckRecord("multiplier_uniqueness", "pass" if unique and lam_ok else "fail", {
        "n_vertices": len(mset.vertices), "mu": [float(v[0]) for v in mset.vertices],
        "lambda": list(map(float, lam)) if lam is not None else []})


def _snc_with_expected_value(ctx: RunContext) -> CheckRecord:
    record = snc_sup(ctx)
    record.numbers["expected_value"] = -2.0 * DELTA
    return record


def _section_formulas(ex: Example2Problem) -> list[CheckRecord]:
    """The paper's half-space rows against the hull points the certifier
    uses, and its plane-section points with the diagonal inequality."""
    rows, on = ex.geometry.halfspace_rows()
    hs_ok, *_ = verify_halfspace_representation(rows, on, ex.problem.abstract_set.hull_points)
    sec_ok, worst_member, worst_diag = verify_section_membership(30, 30)
    return [
        CheckRecord("halfspace_representation", "pass" if hs_ok else "fail",
                    {"rows_checked": len(rows.A)}),
        CheckRecord("section_membership", "pass" if sec_ok else "fail", {
            "worst_membership_residual": worst_member, "worst_diagonal_residual": worst_diag}),
    ]


def run_example1_certification(
    grid: int, budget: SearchBudget = SearchBudget()
) -> tuple[Example1Problem, CertificationReport]:
    """Chain: the multiplier interval [0,1], the coercive sufficient and sup-form
    necessary conditions, and no single fixed multiplier satisfying the latter."""

    started = time.perf_counter()
    ex = build_example1(grid)
    stages = [feasibility, derivative_validation, rzkcq, weaker_cq, stationarity,
              _multiplier_interval, lambda c: ssc(c, 0.1, 1.0),
              lambda c: _display_cone_checks(c, ex)]
    return ex, _chain(ex, f"example1(grid={grid})", f"example1:{grid}", budget, started, stages,
                      EXAMPLE1_EXPECTATIONS)


def run_example2_certification(
    trunc: int, budget: SearchBudget = SearchBudget()
) -> tuple[Example2Problem, CertificationReport]:
    """Chain: growth consistency, a unique multiplier, the sup-form necessary
    condition violated along (0,1,0) with value -2*delta, and the strict
    qualification failing with achieved cone (-inf, 0]."""

    started = time.perf_counter()
    ex = build_example2(trunc)
    stages = [feasibility, derivative_validation,
              lambda c: growth_consistency(c, GROWTH_ALPHA, GROWTH_EPS, GROWTH_SAMPLES),
              rzkcq, stationarity, _multiplier_uniqueness, _snc_with_expected_value,
              lambda c: strict_cq(c, per_vertex=False), lambda c: _section_formulas(ex)]
    return ex, _chain(ex, f"example2(trunc={trunc})", f"example2:{trunc}", budget, started, stages,
                      EXAMPLE2_EXPECTATIONS)
