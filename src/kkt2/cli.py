"""Command-line interface.

Exit codes: 0 every requested check passes/holds, 1 a check is violated
(witness embedded in the report), 2 usage or parse error, 3 internal
numeric failure.  Reports print as aligned text or canonical JSON; the
report seed comes from --seed, else the KKT2_SEED environment variable,
else the problem file, else the library default.  Each file subcommand
runs a list of ``kkt2.stages`` built from its flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import stages
from .config import DEFAULT_SEED, SearchBudget
from .errors import NumericError, ParseError, UsageError
from .problem_file import parse_point, parse_problem, serialize_problem
from .report import CertificationReport, new_report, problem_digest

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkt2",
        description="First- and second-order optimality certification for a "
        "candidate point of a box/hull-constrained problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, stage_list=None):
        """A subcommand; file subcommands give their stages as ``stage_list(args)``."""
        sp = sub.add_parser(name, help=help_text)
        if stage_list is not None:
            sp.add_argument("problem", help="problem-definition JSON file")
            sp.add_argument("--at", metavar="POINT_FILE", default=None,
                            help="candidate point file (defaults to the builtin's base point)")
            sp.set_defaults(stage_list=stage_list)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--seed", type=int, default=None)
        return sp

    add("check-foc", "first-order stationarity",
        lambda a: [stages.feasibility, stages.stationarity, stages.multiplier_count])
    cq = add("check-cq", "constraint qualifications", _cq_stages)
    cq.add_argument("--rzkcq", action="store_true")
    cq.add_argument("--weaker", action="store_true")
    cq.add_argument("--strict", action="store_true")
    add("multipliers", "multiplier polytope vertices",
        lambda a: [stages.feasibility, stages.multiplier_vertices])
    add("check-snc", "sup-form second-order necessary condition",
        lambda a: [stages.feasibility, stages.snc_sup])
    ssc = add("check-ssc", "second-order sufficient condition",
              lambda a: [stages.feasibility, lambda c: stages.ssc(c, a.eta, a.alpha)])
    ssc.add_argument("--eta", type=float, required=True)
    ssc.add_argument("--alpha", type=float, required=True)
    growth = add("growth", "quadratic-growth sampling", lambda a: [
        stages.feasibility, lambda c: stages.growth_consistency(c, a.alpha, a.eps, a.samples)])
    growth.add_argument("--alpha", type=float, required=True)
    growth.add_argument("--eps", type=float, required=True)
    growth.add_argument("--samples", type=int, default=2000)
    add("validate-derivatives", "finite-difference derivative check",
        lambda a: [stages.derivatives])

    rep = add("repro", "run a built-in certification chain")
    rep.add_argument("which", choices=("example1", "example2"))
    rep.add_argument("--grid", type=int, default=120)
    rep.add_argument("--trunc", type=int, default=8)
    return parser


def _cq_stages(args) -> list:
    """The CQs the flags ask for; with no flag, RZK CQ and the weaker one."""
    run_all = not (args.rzkcq or args.weaker or args.strict)
    wanted = ((stages.rzkcq, args.rzkcq or run_all), (stages.weaker_cq, args.weaker or run_all),
              (stages.strict_cq, args.strict))
    return [stages.feasibility, *(stage for stage, on in wanted if on)]


def _resolve_seed(cli_seed: Optional[int], file_seed: Optional[int]) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("KKT2_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"KKT2_SEED must be an integer, got {env!r}") from exc
    if file_seed is not None:
        return file_seed
    return DEFAULT_SEED


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read: {getattr(exc, 'strerror', None) or exc}", path) from exc


def _context(args, started: float) -> stages.RunContext:
    pf = parse_problem(_read(args.problem))
    spec, point = pf.build()
    if args.at is not None:
        point = parse_point(_read(args.at), spec.dim)
    elif point is None:
        raise UsageError("--at is required for file-defined problems")
    seed = _resolve_seed(args.seed, pf.seed)
    report = new_report(pf.builtin or "file problem", problem_digest(serialize_problem(pf)),
                        seed, point)
    return stages.RunContext(spec, point, pf.make_tolerances(), pf.make_budget(seed), report,
                             started)


def _repro(args) -> CertificationReport:
    from .examples import run_example1_certification, run_example2_certification

    budget = SearchBudget(seed=_resolve_seed(args.seed, None))
    if args.which == "example1":
        return run_example1_certification(args.grid, budget=budget)[1]
    return run_example2_certification(args.trunc, budget=budget)[1]


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    started = time.perf_counter()
    try:
        report = _repro(args) if args.command == "repro" else \
            stages.run(_context(args, started), args.stage_list(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_VIOLATED if report.any_violation else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
