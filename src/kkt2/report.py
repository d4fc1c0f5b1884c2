"""Machine-readable certification reports.

A report is a list of named check records with verdicts, numbers, optional
witnesses, and the hypotheses each verdict used.  JSON output is canonical
(sorted keys), so identical inputs and seed give byte-identical reports up
to the wall-time field.  Witnesses embed enough data to re-verify offline;
``replay`` re-evaluates every second-order witness against the problem.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curvature import fixed_mu_value, q_of_h
from .kkt import multiplier_set
from .model import ProblemSpec, as_entries

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

# verdicts that mean "a requested check is violated" for exit-code purposes
FAILING_VERDICTS = ("violated", "fail", "not_stationary", "infeasible")


@dataclass
class CheckRecord:
    name: str
    verdict: str
    numbers: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    hypotheses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "numbers": _jsonable(self.numbers),
            "witness": _jsonable(self.witness),
            "hypotheses": list(self.hypotheses),
        }


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


@dataclass
class CertificationReport:
    problem: str
    digest: str
    seed: int
    point: list
    checks: list
    wall_time_s: float = 0.0
    schema: int = SCHEMA_VERSION
    version: str = TOOL_VERSION

    @property
    def any_violation(self) -> bool:
        return any(c.verdict in FAILING_VERDICTS for c in self.checks)

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "schema": self.schema,
            "tool": "kkt2",
            "version": self.version,
            "problem": self.problem,
            "problem_digest": self.digest,
            "seed": self.seed,
            "point": _jsonable(self.point),
            "checks": [c.to_dict() for c in self.checks],
        }
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"problem: {self.problem}", f"seed: {self.seed}"]
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            nums = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(c.numbers.items())
            )
            lines.append(f"  {c.name:<{width}}  {c.verdict:<10} {nums}")
            if c.witness and "direction" in c.witness:
                d = np.asarray(c.witness["direction"], dtype=float)
                head = np.array2string(d[:6], precision=6, separator=", ")
                more = "..." if d.size > 6 else ""
                lines.append(f"  {'':<{width}}  witness {head}{more}")
        lines.append(f"wall time: {self.wall_time_s:.3f} s")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def problem_digest(description: str) -> str:
    return hashlib.sha256(description.encode("utf-8")).hexdigest()[:16]


def new_report(problem_name: str, digest: str, seed: int, point) -> CertificationReport:
    return CertificationReport(
        problem=problem_name,
        digest=digest,
        seed=seed,
        point=_jsonable(np.asarray(point, dtype=float)),
        checks=[],
    )


def second_order_witness_dict(verdict) -> Optional[dict]:
    if verdict.witness is None:
        return None
    out = {
        "direction": _jsonable(verdict.witness),
        "value": verdict.witness_value,
        "normalized": verdict.witness_normalized,
    }
    if verdict.witness_mu is not None:
        out["mu"] = _jsonable(verdict.witness_mu)
    return out


def replay(problem: ProblemSpec, report: CertificationReport, tol: float = 1e-9) -> list[tuple[str, bool, float]]:
    """Re-verify every embedded second-order witness from a cold start.

    For each witness the recorded form value is recomputed (the maximized
    Hessian, or the fixed-multiplier Hessian when the witness carries its
    mu); returns (check name, reproduced?, recomputed value) triples.
    """

    x = as_entries(np.asarray(report.point, dtype=float), problem.dim)
    mset = multiplier_set(problem, x)
    out: list[tuple[str, bool, float]] = []
    for record in report.checks:
        w = record.witness
        if not w or "direction" not in w or w.get("value") is None:
            continue
        h = np.asarray(w["direction"], dtype=float)
        if "mu" in w and w["mu"] is not None and len(np.atleast_1d(w["mu"])):
            value = fixed_mu_value(mset, h, np.asarray(w["mu"], dtype=float))
        else:
            value, _ = q_of_h(mset, h)
        recorded = float(w["value"])
        ok = abs(value - recorded) <= tol * (1.0 + abs(recorded))
        out.append((record.name, ok, value))
    return out
