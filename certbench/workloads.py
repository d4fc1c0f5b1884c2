"""The benchmark's four workloads: inputs, one certification run, and the
reference each run's output is checked against.

A certification run is one call of a public entry point: a built-in chain
(``kkt2.examples.run_example*_certification``) or ``kkt2.cli.main`` on a
problem file.  Entry points are looked up on their module at call time, so
an installed tracer sees the call.  The workload seed becomes the
certification seed (``SearchBudget.seed`` or ``--seed``); everything else a
run reads is written by ``Workload.prepare``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Reference numbers are compared within this relative tolerance, fixed
# beforehand: a reordered floating-point sum may change the last digits.
REL_TOL = 1e-6

# Example 2 constants from the paper, kept independent of the package.
GAMMA = (1.0 + math.sqrt(3.0)) / 2.0
DELTA = (GAMMA**3 + 1.0) / (GAMMA * (GAMMA + 1.0) ** 2)

# A failure whose stderr contains one of these is a recorded defect of the
# package: it counts as a failed run but not as a wrong benchmark result.
KNOWN_DEFECTS = {
    "annihilator section did not absorb":
        "check-cq --strict exits 2 on valid enumerated vertices: the absolute "
        "1e-14 cutoff in cones.absorb_rows keeps vertex/lambda round-off terms",
}


@dataclass
class Outcome:
    """What one certification run returned, and what checking it found."""

    records: list = field(default_factory=list)  # (label, exit code, report dict or None, stderr)
    problems: list = field(default_factory=list)  # ProblemSpec per record, for witness replay
    errors: list = field(default_factory=list)
    defects: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.defects)


def _close(value, target) -> bool:
    return abs(value - target) <= REL_TOL * (1.0 + abs(target))


def _check_numbers(label: str, rec: dict, expected: dict, errors: list) -> None:
    for key, (op, target) in expected.items():
        src = rec["witness"] if key.startswith("witness.") else rec["numbers"]
        value = (src or {}).get(key.split(".", 1)[-1])
        if op == "==":
            ok = value == target
        elif op == "~":
            ok = value is not None and np.shape(value) == np.shape(target) and all(
                _close(v, t) for v, t in zip(np.ravel(value), np.ravel(target)))
        elif op == ">=":
            ok = value is not None and value >= target - REL_TOL * (1.0 + abs(target))
        else:  # "<="
            ok = value is not None and value <= target + REL_TOL * (1.0 + abs(target))
        if not ok:
            errors.append(f"{label}: {rec['name']}.{key} = {value!r}, expected {op} {target!r}")


def check_report(label: str, code: int, report: dict, exit_code: int,
                 expected: list, errors: list) -> None:
    """Exit code, then (name, verdict, numbers) of every record in order."""
    if code != exit_code:
        errors.append(f"{label}: exit code {code}, expected {exit_code}")
    names = [r["name"] for r in report["checks"]]
    if names != [e[0] for e in expected]:
        errors.append(f"{label}: records {names}, expected {[e[0] for e in expected]}")
        return
    for rec, (name, verdict, numbers) in zip(report["checks"], expected):
        if rec["verdict"] != verdict:
            errors.append(f"{label}: {name} verdict {rec['verdict']!r}, expected {verdict!r}")
        _check_numbers(label, rec, numbers, errors)


def replay_witnesses(outcome: Outcome) -> None:
    """Replays every second-order witness through ``kkt2.report.replay``,
    including the per-multiplier witnesses that example 1 nests."""
    from kkt2.report import CertificationReport, CheckRecord, replay

    for (label, _code, report, _err), problem in zip(outcome.records, outcome.problems):
        if report is None:
            continue
        records = []
        for rec in report["checks"]:
            w = rec["witness"] or {}
            if "direction" in w:
                records.append(CheckRecord(rec["name"], rec["verdict"], {}, w))
            for k, entry in enumerate(w.get("per_multiplier", ())):
                if entry.get("witness"):
                    records.append(CheckRecord(f"{rec['name']}[{k}]", "violated", {},
                                               entry["witness"]))
        if not records:
            continue
        rep = CertificationReport(report["problem"], report["problem_digest"],
                                  report["seed"], report["point"], records)
        results = replay(problem, rep)
        if len(results) != len(records):
            outcome.errors.append(f"{label}: replayed {len(results)} of {len(records)} witnesses")
        outcome.errors += [f"{label}: witness {name} did not replay (value {value!r})"
                           for name, ok, value in results if not ok]


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    import kkt2.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kkt2.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_record(outcome: Outcome, label: str, argv: list[str]) -> None:
    code, out, err = _run_cli(argv)
    report = json.loads(out) if code in (0, 1) else None
    outcome.records.append((label, code, report, err))


def _file_problem(path: Path):
    from kkt2.problem_file import parse_problem

    return parse_problem(path.read_text(encoding="utf-8")).build()[0]


def _known_defect(err: str):
    return next((k for k in KNOWN_DEFECTS if k in err), None)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and BENCHMARK.md."""

    name = ""
    # Search seeds evidence_n is averaged over: 1 where the count does not
    # depend on the seed, more where it does (see BENCHMARK.md).
    EVIDENCE_SEEDS = 1

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def instances(self) -> list:
        return [None]

    def evidence_seeds(self) -> list[int]:
        """The workload seed, then seeds derived from it."""
        return [self.seed + 1_000_003 * k for k in range(self.EVIDENCE_SEEDS)]

    def certify(self, instance, seed: int) -> Outcome:
        raise NotImplementedError

    def check(self, instance, outcome: Outcome) -> None:
        raise NotImplementedError

    def setup_spec(self) -> dict:
        """What a fresh interpreter builds to measure set-up (setup_probe.py)."""
        raise NotImplementedError


class BuiltinChain(Workload):
    builtin = ""
    size = 0

    def certify(self, instance, seed: int) -> Outcome:
        import kkt2.config
        import kkt2.examples

        budget = kkt2.config.SearchBudget(seed=seed)
        run = getattr(kkt2.examples, f"run_{self.builtin}_certification")
        ex, report = run(self.size, budget=budget)
        code = 1 if report.any_violation else 0
        return Outcome([(self.name, code, report, "")], [ex.problem])

    def check(self, instance, outcome: Outcome) -> None:
        label, code, report, err = outcome.records[0]
        report = report.to_dict()
        outcome.records[0] = (label, code, report, err)
        check_report(label, code, report, self.EXIT, self.EXPECTED, outcome.errors)

    def setup_spec(self) -> dict:
        return {"builtin": self.builtin, "size": self.size}


class E1Box(BuiltinChain):
    name = "e1_box"
    builtin, size = "example1", 480
    EXIT = 0
    EXPECTED = [
        ("feasibility", "pass", {}),
        ("derivative_validation", "pass", {}),
        ("rzkcq", "holds", {}),
        ("weaker_cq", "holds", {}),
        ("stationarity", "holds", {"residual": ("<=", 0.0)}),
        ("multiplier_set", "pass", {"vertices": ("~", [0.0, 1.0]), "bounded": ("==", True)}),
        ("ssc", "holds", {"alpha_est": ("~", 1.0)}),
        ("snc_sup", "holds", {"sampled_min": (">=", 1.0)}),
        ("fixed_multiplier_gap", "pass", {"n_multipliers_sampled": ("==", 11)}),
        ("chain_expectations", "pass", {}),
    ]

    def check(self, instance, outcome: Outcome) -> None:
        super().check(instance, outcome)
        label, _code, report, _err = outcome.records[0]
        gap = next((r["witness"] for r in report["checks"]
                    if r["name"] == "fixed_multiplier_gap"), None) or {}
        if not all(e["violated"] for e in gap.get("per_multiplier", ())):
            outcome.errors.append(f"{label}: a fixed multiplier satisfied the necessary condition")


class E2Hull(BuiltinChain):
    name = "e2_hull"
    builtin, size = "example2", 8
    EXIT = 1
    EXPECTED = [
        ("feasibility", "pass", {}),
        ("derivative_validation", "pass", {}),
        ("growth_consistency", "pass", {"worst_margin": (">=", 0.0)}),
        ("rzkcq", "holds", {}),
        ("stationarity", "holds", {"residual": ("<=", 0.0)}),
        ("multiplier_uniqueness", "pass", {"n_vertices": ("==", 1), "mu": ("~", [0.0]),
                                           "lambda": ("~", [0.0, 0.0, 1.0])}),
        ("snc_sup", "violated", {"witness.value": ("~", -2.0 * DELTA)}),
        ("strict_cq", "violated", {"achieved_cone": ("==", "(-inf, 0]")}),
        ("halfspace_representation", "pass", {}),
        ("section_membership", "pass", {}),
        ("chain_expectations", "pass", {}),
    ]


class GrowthBox(Workload):
    name = "growth_box"
    EVIDENCE_SEEDS = 3
    ARGS = ["--alpha", "0.5", "--eps", "0.05", "--samples", "250"]

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.problem_path = workdir / "growth_problem.json"
        self.problem_path.write_text(json.dumps({"builtin": "example1", "grid": 120}))

    def certify(self, instance, seed: int) -> Outcome:
        outcome = Outcome()
        _cli_record(outcome, "growth", ["growth", str(self.problem_path), *self.ARGS,
                                        "--format", "json", "--seed", str(seed)])
        return outcome

    def check(self, instance, outcome: Outcome) -> None:
        label, code, report, err = outcome.records[0]
        if report is None:
            outcome.errors.append(f"{label}: exit code {code}: {err.strip()}")
            return
        outcome.problems.append(_file_problem(self.problem_path))
        check_report(label, code, report, 0, [
            ("feasibility", "pass", {}),
            ("growth_consistency", "pass", {"samples": (">=", 1), "worst_margin": (">=", 0.0)}),
        ], outcome.errors)

    def setup_spec(self) -> dict:
        return {"files": [[str(self.problem_path), None]]}


# Shape of the multi_mu problems; see multi_mu_problem.
MM_N, MM_M, MM_LOWER, MM_RANK = 24, 8, 6, 3
MM_FREE_SCALE = 0.01
MM_RANDOM_BUDGET = 16384


def multi_mu_problem(gen_seed: int) -> tuple[dict, dict]:
    """A box problem whose multiplier polytope is bounded and 5-dimensional.

    All MM_M inequality constraints are active at the point, as are the last
    MM_LOWER lower bounds.  The gradients on the free coordinates have rank
    MM_RANK, so lambda_j(mu) = 0 there leaves an (MM_M - MM_RANK)-dimensional
    affine set of mu; mu >= 0 and the lower-bound signs of lambda cut it to
    a polytope (bounded because every row of the rank factor has a positive
    first entry).  The objective Hessian is I + PSD and the constraint
    Hessians are PSD, so the maximized Hessian is at least ||h||^2: SNC and
    SSC hold with alpha >= 1 whatever directions are sampled.

    The free-part gradients are scaled by MM_FREE_SCALE so that the extended
    critical cone has sampleable interior (with scale 1 the check-ssc battery
    is empty), and the problem file raises the random battery to
    MM_RANDOM_BUDGET so the evidence count depends less on the seed.
    """

    n, m, n_lower = MM_N, MM_M, MM_LOWER
    rng = np.random.default_rng(gen_seed)
    nf = n - n_lower
    x = np.concatenate([rng.uniform(-1.0, 1.0, nf), np.zeros(n_lower)])
    A = rng.standard_normal((m, MM_RANK))
    A[:, 0] = rng.uniform(0.5, 1.5, m)
    B = MM_FREE_SCALE * rng.standard_normal((MM_RANK, nf))
    G = np.hstack([A @ B, rng.standard_normal((m, n_lower))])
    mu_star = rng.uniform(0.5, 1.5, m)
    f_grad = -G.T @ mu_star
    f_grad[nf:] += rng.uniform(0.5, 1.5, n_lower)  # lambda < 0 on the lower bounds

    def psd(scale):
        L = rng.standard_normal((n, n)) * scale / math.sqrt(n)
        return L @ L.T

    def quadratic(grad, H, active):
        linear = grad - H @ x
        constant = -(linear @ x + 0.5 * x @ H @ x) if active else 0.0
        triplets = [[i, j, float(H[i, j])] for i in range(n) for j in range(n)]
        return {"constant": float(constant), "linear": linear.tolist(), "quadratic": triplets}

    problem = {
        "dimension": n,
        "box": {"lower": [-5.0] * nf + [0.0] * n_lower, "upper": [5.0] * n},
        "objective": quadratic(f_grad, np.eye(n) + psd(0.5), False),
        "constraints": [quadratic(G[i], psd(0.3), True) for i in range(m)],
        "m1": 0,
        "budget": {"random": MM_RANDOM_BUDGET},
    }
    return problem, {"point": x.tolist()}


class MultiMu(Workload):
    name = "multi_mu"
    # Fixed generator seeds: cost must not depend on which polytope the
    # workload seed draws (see BENCHMARK.md).  Instance 1 hits the absorb
    # defect; instance 0 runs the strict loop over every vertex.
    GEN_SEEDS = (0, 1)
    COMMANDS = [
        ("check-foc", []),
        ("check-cq", ["--rzkcq", "--weaker", "--strict"]),
        ("check-snc", []),
        ("check-ssc", ["--eta", "0.1", "--alpha", "0.5"]),
    ]

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.files = []
        for g in self.GEN_SEEDS:
            problem, point = multi_mu_problem(g)
            ppath, xpath = workdir / f"multi_mu_{g}.json", workdir / f"multi_mu_{g}_point.json"
            ppath.write_text(json.dumps(problem))
            xpath.write_text(json.dumps(point))
            self.files.append((ppath, xpath))

    def instances(self) -> list:
        return list(range(len(self.GEN_SEEDS)))

    def certify(self, instance, seed: int) -> Outcome:
        ppath, xpath = self.files[instance]
        outcome = Outcome()
        for cmd, extra in self.COMMANDS:
            _cli_record(outcome, f"{cmd}[{self.GEN_SEEDS[instance]}]",
                        [cmd, str(ppath), "--at", str(xpath), *extra,
                         "--format", "json", "--seed", str(seed)])
        return outcome

    def check(self, instance, outcome: Outcome) -> None:
        problem = _file_problem(self.files[instance][0])
        feas = ("feasibility", "pass", {})
        n_vertices = None
        for (label, code, report, err), (cmd, _) in zip(outcome.records, self.COMMANDS):
            outcome.problems.append(problem)
            if report is None:
                defect = _known_defect(err) if cmd == "check-cq" and code == 2 else None
                if defect:
                    outcome.defects.append(f"{label}: {KNOWN_DEFECTS[defect]}")
                else:
                    outcome.errors.append(f"{label}: exit code {code}: {err.strip()}")
                continue
            if cmd == "check-foc":
                check_report(label, code, report, 0, [
                    feas, ("stationarity", "holds", {"residual": ("<=", 0.0)}),
                    ("multiplier_set", "pass", {"bounded": ("==", True)})], outcome.errors)
                n_vertices = report["checks"][-1]["numbers"].get("n_vertices")
                if not n_vertices or n_vertices < 6:
                    outcome.errors.append(f"{label}: {n_vertices} vertices; a bounded "
                                          "5-dimensional polytope has at least 6")
            elif cmd == "check-cq":
                # multipliers are not unique, so the strict CQ fails at every vertex
                strict = [(f"strict_cq[vertex {k}]", "violated", {})
                          for k in range(n_vertices or 0)]
                check_report(label, code, report, 1, [
                    feas, ("rzkcq", "holds", {}), ("weaker_cq", "holds", {}), *strict],
                    outcome.errors)
            elif cmd == "check-snc":
                check_report(label, code, report, 0, [
                    feas, ("snc_sup", "holds", {"sampled_min": (">=", 1.0)})], outcome.errors)
            else:
                check_report(label, code, report, 0, [
                    feas, ("ssc", "holds", {"alpha_est": (">=", 1.0),
                                            "positivity_consistent": ("==", True)})],
                    outcome.errors)

    def setup_spec(self) -> dict:
        return {"files": [[str(p), str(x)] for p, x in self.files]}


WORKLOADS = {w.name: w for w in (E1Box, E2Hull, GrowthBox, MultiMu)}
