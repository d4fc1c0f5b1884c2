"""Golden canonical reports: a fixed set of CLI runs against reports stored
under ``tests/data``.

Record names, verdicts, hypotheses, integer numbers and strings must match
exactly; float numbers, the point and witness ``value``/``normalized``
within 1e-9 relative.  Witness directions are not compared entry by entry,
since another BLAS may break ties differently; instead every witness of the
fresh report, nested ones included, must pass ``report.replay``.

After a change that is meant to alter a report, regenerate the data with
``PYTHONPATH=src python tests/test_golden_reports.py`` and say in the change
which fields moved and why.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kkt2.cli import main
from kkt2.examples import build_example1, build_example2
from kkt2.problem_file import parse_problem
from kkt2.report import CertificationReport, CheckRecord, replay

from helpers import many_multiplier_problem

DATA = Path(__file__).parent / "data"
COMMON = ["--seed", "902", "--format", "json"]
MULTI = ["multi.json", "--at", "multi_point.json"]

# name -> (argv with file names relative to the work directory, problem)
CASES = {
    "repro_example1_grid12": (["repro", "example1", "--grid", "12"], ("example1", 12)),
    "repro_example1_grid120": (["repro", "example1", "--grid", "120"], ("example1", 120)),
    "repro_example2_trunc8": (["repro", "example2", "--trunc", "8"], ("example2", 8)),
    "multi_check_foc": (["check-foc", *MULTI], "multi"),
    "multi_check_cq_strict": (["check-cq", *MULTI, "--rzkcq", "--weaker", "--strict"], "multi"),
    "multi_check_snc": (["check-snc", *MULTI], "multi"),
    "multi_check_ssc": (["check-ssc", *MULTI, "--eta", "0.1", "--alpha", "0.5"], "multi"),
    "example1_check_ssc": (["check-ssc", "example1_12.json", "--eta", "0.1", "--alpha", "0.5"],
                           ("example1", 12)),
}


def _write_inputs(workdir: Path) -> dict:
    """The problem files of the file commands; returns the multi problem."""
    problem, point = many_multiplier_problem(np.random.default_rng(0), 24, 8, 6, 3, 0.01)
    (workdir / "multi.json").write_text(json.dumps(problem))
    (workdir / "multi_point.json").write_text(json.dumps({"point": point}))
    (workdir / "example1_12.json").write_text(json.dumps({"builtin": "example1", "grid": 12}))
    return problem


def _run(name: str, workdir: Path) -> tuple[int, dict]:
    """Exit code and canonical report of one case, without ``wall_time_s``."""
    argv = [a if not a.endswith(".json") else str(workdir / a) for a in CASES[name][0]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, *COMMON])
    report = json.loads(out.getvalue())
    report.pop("wall_time_s")
    return code, report


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _compare(got, want, path: str, errors: list, skip_directions: bool = False) -> None:
    """Exact on names, strings, bools and ints; floats within 1e-9 relative.
    In witnesses (``skip_directions``) a ``direction`` is only checked for
    its length."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got} "
                          f"!= {sorted(want)}")
            return
        for k in want:
            if skip_directions and k == "direction":
                if len(got[k]) != len(want[k]):
                    errors.append(f"{path}.{k}: length {len(got[k])} != {len(want[k])}")
                continue
            _compare(got[k], want[k], f"{path}.{k}", errors, skip_directions)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", errors, skip_directions)
    elif isinstance(want, float) and type(got) is float:
        if not _close(got, want):
            errors.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        errors.append(f"{path}: {got!r} != {want!r}")


def _witnesses(obj, label: str):
    """(label, dict) for every witness dict with a direction, at any depth."""
    if isinstance(obj, dict):
        if "direction" in obj:
            yield label, obj
        for k, v in obj.items():
            yield from _witnesses(v, f"{label}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _witnesses(v, f"{label}[{i}]")


def _problem(which, multi: dict):
    if which == "multi":
        return parse_problem(json.dumps(multi)).build()[0]
    builder = build_example1 if which[0] == "example1" else build_example2
    return builder(which[1]).problem


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    return d, _write_inputs(d)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, workdir):
    d, multi = workdir
    code, got = _run(name, d)
    golden = json.loads((DATA / f"golden_{name}.json").read_text())
    assert code == golden["exit"]
    want = golden["report"]

    errors: list[str] = []
    checks_got, checks_want = got.pop("checks"), want.pop("checks")
    _compare(got, want, "report", errors)
    assert [c["name"] for c in checks_got] == [c["name"] for c in checks_want]
    for g, w in zip(checks_got, checks_want):
        for key in ("verdict", "hypotheses", "numbers"):
            _compare(g[key], w[key], f"{w['name']}.{key}", errors)
        _compare(g["witness"], w["witness"], f"{w['name']}.witness", errors,
                 skip_directions=True)
    assert not errors, "\n".join(errors)

    records = [CheckRecord(label, "", witness=w) for label, w in _witnesses(checks_got, "checks")]
    report = CertificationReport(got["problem"], got["problem_digest"], got["seed"],
                                 got["point"], records)
    replayed = replay(_problem(CASES[name][1], multi), report)
    assert all(ok for _, ok, _ in replayed), [label for label, ok, _ in replayed if not ok]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for case in sorted(CASES):
            exit_code, canonical = _run(case, Path(tmp))
            (DATA / f"golden_{case}.json").write_text(
                json.dumps({"exit": exit_code, "report": canonical}, sort_keys=True, indent=1)
                + "\n")
            print(case, exit_code)
