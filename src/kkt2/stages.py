"""The certification pipeline shared by the command line and the built-in
chains.  A stage takes the run's ``RunContext`` and returns the records it
adds, one ``CheckRecord`` or a list; stage lists follow the paper's order
(feasibility, first order and CQs, second order).  Stages call layer
functions through this module's globals at call time, never through a stored
reference, so a wrapper installed on those names sees every call."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .config import SearchBudget, Tolerances
from .curvature import check_snc, check_ssc, sample_growth
from .kkt import FOCResult, check_rzkcq, check_strict_cq, check_weaker_cq
from .kkt import foc_residual, multiplier_set, strict_cq_by_vertices
from .model import ProblemSpec, check_feasible, validate_derivatives
from .report import CertificationReport, CheckRecord, second_order_witness_dict


@dataclass
class RunContext:
    """One run at one point.  ``feasibility`` is the feasibility stage's own
    record; ``multipliers`` is the run's point object (``kkt.multiplier_set``:
    the problem, the point and the tolerances, the tangent patterns of C and
    K, f'(x), g'(x), the multiplier polytope and, on first read, the
    Hessians at x), built on first use; every later stage passes it alone
    to the layer functions.  So a run checks
    feasibility at most twice and builds a box's tangent pattern at most
    once, and a run whose stages read neither (growth, derivative
    validation) builds no multiplier set."""

    problem: ProblemSpec
    point: np.ndarray
    tol: Tolerances
    budget: SearchBudget
    report: CertificationReport
    started: float  # time.perf_counter() when the run began
    foc: Optional[FOCResult] = None

    @cached_property
    def feasibility(self):
        return check_feasible(self.problem, self.point, self.tol)

    @cached_property
    def multipliers(self):
        return multiplier_set(self.problem, self.point, self.tol)


def run(ctx: RunContext, stages) -> CertificationReport:
    """Runs the stages in order; stops after an infeasible feasibility record."""
    for stage in stages:
        out = stage(ctx)
        records = out if isinstance(out, list) else [out]
        ctx.report.checks.extend(records)
        if any(r.name == "feasibility" and r.verdict == "infeasible" for r in records):
            break
    ctx.report.wall_time_s = time.perf_counter() - ctx.started
    return ctx.report


def _holds(flag: bool) -> str:
    return "holds" if flag else "violated"


def _vector(key: str, v) -> Optional[dict]:
    return {key: list(map(float, v))} if v is not None else None


def feasibility(ctx: RunContext) -> CheckRecord:
    feas = ctx.feasibility
    if not feas.feasible:
        return CheckRecord("feasibility", "infeasible", {"violations": list(feas.violations)})
    return CheckRecord("feasibility", "pass", {"n_active": len(feas.info.active)})


def derivatives(ctx: RunContext) -> list[CheckRecord]:
    """Finite-difference check, one record per function."""
    deriv = validate_derivatives(ctx.problem, ctx.point, ctx.tol)
    return [CheckRecord(f"derivatives[{e['function']}]", "pass" if e["passed"] else "fail",
                        {k: e[k] for k in ("gradient_max_error", "hessian_max_error")})
            for e in deriv.per_function]


def derivative_validation(ctx: RunContext) -> CheckRecord:
    """Finite-difference check, one record with the worst errors."""
    deriv = validate_derivatives(ctx.problem, ctx.point, ctx.tol)
    return CheckRecord("derivative_validation", "pass" if deriv.passed else "fail", {
        "max_gradient_error": max(e["gradient_max_error"] for e in deriv.per_function),
        "max_hessian_error": max(e["hessian_max_error"] for e in deriv.per_function),
    })


def growth_consistency(ctx: RunContext, alpha: float, eps: float, n_samples: int) -> CheckRecord:
    """Sampled quadratic growth: ``inconclusive`` when no feasible sample was
    found, so nothing was tested (not a violation: the exit code stays 0)."""
    res = sample_growth(ctx.problem, ctx.point, alpha, eps, n_samples,
                        seed=ctx.budget.seed, tol=ctx.tol)
    verdict = "violated" if not res.consistent else \
        "pass" if res.samples_accepted else "inconclusive"
    return CheckRecord("growth_consistency", verdict,
                       {"alpha": alpha, "eps": eps, "samples": res.samples_accepted,
                        "worst_margin": res.worst_margin, "tries": res.tries,
                        "note": res.note},
                       _vector("counterexample", res.counterexample))


def rzkcq(ctx: RunContext) -> CheckRecord:
    v = check_rzkcq(ctx.multipliers)
    return CheckRecord("rzkcq", _holds(v.holds), {}, _vector("witness", v.witness))


def weaker_cq(ctx: RunContext) -> CheckRecord:
    v = check_weaker_cq(ctx.multipliers)
    return CheckRecord("weaker_cq", _holds(v.holds), {}, _vector("witness", v.witness))


def stationarity(ctx: RunContext) -> CheckRecord:
    ctx.foc = foc = foc_residual(ctx.multipliers)
    return CheckRecord("stationarity", "holds" if foc.stationary else "not_stationary",
                       {"residual": foc.residual}, _vector("best_mu", foc.best_mu))


def multiplier_count(ctx: RunContext) -> list[CheckRecord]:
    """Size of the multiplier polytope, after a stationarity stage that holds."""
    if not ctx.foc.stationary:
        return []
    mset = ctx.multipliers
    return [CheckRecord("multiplier_set", "pass",
                        {"bounded": mset.bounded, "n_vertices": len(mset.vertices)})]


def multiplier_vertices(ctx: RunContext) -> CheckRecord:
    mset = ctx.multipliers
    return CheckRecord("multiplier_set", "violated" if mset.empty else "holds", {
        "empty": mset.empty, "bounded": mset.bounded,
        "vertices": [list(map(float, v)) for v in mset.vertices]})


def strict_cq(ctx: RunContext, per_vertex: bool = True) -> list[CheckRecord]:
    """The strict CQ at every multiplier vertex (``strict_cq[vertex k]``), or
    at the first vertex only as one ``strict_cq`` record.  A box reads every
    verdict off the vertex list (``strict_cq_by_vertices``: "holds" iff the
    vertex is unique, else witnesses and achieved cones from the vertex
    differences); a hull runs ``check_strict_cq``, one double description,
    per vertex."""
    mset = ctx.multipliers
    if mset.empty or not mset.vertices:
        reason = "no multipliers exist" if mset.empty else \
            "multiplier vertices unavailable (unbounded set?)"
        return [CheckRecord("strict_cq", "fail", {"reason": reason})]
    vertices = mset.vertices if per_vertex else mset.vertices[:1]
    verdicts = strict_cq_by_vertices(mset) if mset.c_pattern is not None else \
        [check_strict_cq(mset, vert) for vert in vertices]
    return [CheckRecord(f"strict_cq[vertex {k}]" if per_vertex else "strict_cq", _holds(v.holds),
                        {"mu": list(map(float, vert)), "achieved_cone": v.achieved_cone or ""},
                        _vector("witness", v.witness))
            for k, (vert, v) in enumerate(zip(vertices, verdicts))]


def _hypotheses(ctx: RunContext) -> tuple[str, ...]:
    """The CQs found to hold, each making the multiplier set nonempty and bounded."""
    return tuple(f"{r.name} holds: multiplier set nonempty and bounded"
                 for r in ctx.report.checks
                 if r.name in ("rzkcq", "weaker_cq") and r.verdict == "holds")


def _section(v) -> dict:
    """On ray-based cones: the section's generator count, and whether the
    section is one ray, so that the battery covered all of it."""
    if v.section_generators is None:
        return {}
    return {"section_generators": v.section_generators, "exact": v.exact}


def snc_sup(ctx: RunContext, cone=None) -> CheckRecord:
    """Sup-form necessary condition over the critical cone (or ``cone``)."""
    if ctx.multipliers.empty:
        return CheckRecord("snc_sup", "fail", {"reason": "empty multiplier set"})
    v = check_snc(ctx.multipliers, cone=cone, budget=ctx.budget, hypotheses=_hypotheses(ctx))
    return CheckRecord("snc_sup", _holds(not v.violated),
                       {"sampled_min": v.sampled_min, "directions": v.directions_evaluated,
                        **_section(v)},
                       second_order_witness_dict(v), list(v.hypotheses))


def ssc(ctx: RunContext, eta: float, alpha: float) -> CheckRecord:
    """Coercivity with constant ``alpha`` on the eta-extended critical cone."""
    if ctx.multipliers.empty:
        return CheckRecord("ssc", "fail", {"reason": "empty multiplier set"})
    v = check_ssc(ctx.multipliers, eta=eta, alpha_target=alpha, budget=ctx.budget,
                  hypotheses=_hypotheses(ctx))
    return CheckRecord("ssc", _holds(not v.violated),
                       {"alpha_est": v.alpha_est, "directions": v.directions_evaluated,
                        "positivity_consistent": v.positivity_consistent, **_section(v)},
                       second_order_witness_dict(v), list(v.hypotheses))
