"""Problem files, CLI behavior, report determinism and witness replay."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kkt2.problem_file
from kkt2 import stages
from kkt2.cli import main
from kkt2.config import DEFAULT_TOLERANCES, SearchBudget
from kkt2.cones import critical_cone
from kkt2.curvature import check_ssc, sample_growth
from kkt2.errors import ParseError, UsageError
from kkt2.examples import build_example1, run_example2_certification
from kkt2.examples.example2 import point_r
from kkt2.kkt import multiplier_set
from kkt2.problem_file import parse_problem
from kkt2.report import new_report, replay

from helpers import many_multiplier_problem, random_stationary_problem


MINIMAL = """
{
  "dimension": 1,
  "box": {"lower": [-1.0], "upper": [1.0]},
  "objective": {"constant": 0.0, "linear": [0.0], "quadratic": [[0, 0, 2.0]]},
  "constraints": [],
  "m1": 0
}
"""


# The example problem file of README's "Problem files" section.
README_PROBLEM = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8").split("## Problem files", 1)[1].split("```json", 1)[1].split("```", 1)[0]


def _field_paths(node, prefix=()):
    """The key path of every field below the top level, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            paths.extend(_field_paths(value, prefix + (key,)))
    return paths

class TestProblemFile:
    def test_minimal_parses(self):
        pf = parse_problem(MINIMAL)
        spec, _ = pf.build()
        assert spec.dim == 1
        assert spec.objective.value(np.array([2.0])) == pytest.approx(4.0)

    def test_file_problem_is_built_as_parsed(self):
        """The explicit problem is built while parsing, with the file's
        weights, bounds, equality count and function names."""
        pf = parse_problem(json.dumps({
            "dimension": 2, "weights": [2.0, 0.5],
            "box": {"lower": [-1.0, 0.0], "upper": [1.0, 3.0]},
            "objective": {"linear": [1.0, 1.0], "quadratic": [[0, 1, 1.0], [1, 0, 1.0]]},
            "constraints": [{"constant": -1.0, "linear": [1.0, 0.0]}, {"linear": [0.0, 1.0]}],
            "m1": 1, "seed": 3}))
        spec, point = pf.build()
        assert spec is pf.problem and point is None and pf.seed == 3
        assert spec.weights.tolist() == [2.0, 0.5] and spec.m1 == 1
        assert spec.abstract_set.lower.tolist() == [-1.0, 0.0]
        assert spec.abstract_set.upper.tolist() == [1.0, 3.0]
        assert [f.name for f in (spec.objective, *spec.constraints)] == \
            ["objective", "constraint_0", "constraint_1"]
        x = np.array([1.0, 2.0])
        assert spec.objective.value(x) == pytest.approx(1.0 + 2.0 + 2.0)
        # the weighted Riesz gradient W^{-1} (linear + M x)
        assert spec.objective.gradient(x).tolist() == pytest.approx([1.5, 4.0])
        assert spec.constraints[0].value(x) == pytest.approx(0.0)

    def test_infinite_bound_sentinels(self):
        text = MINIMAL.replace('"upper": [1.0]', '"upper": ["inf"]')
        pf = parse_problem(text)
        spec, _ = pf.build()
        assert spec.abstract_set.upper[0] == np.inf

    def test_unknown_key_rejected(self):
        text = MINIMAL.replace('"m1": 0', '"m1": 0, "mystery": 1')
        with pytest.raises(ParseError, match="mystery"):
            parse_problem(text)

    def test_known_tolerance_keys_parse(self):
        text = MINIMAL.replace('"m1": 0', '"m1": 0, "tolerances": {"activity": 1e-7}')
        assert parse_problem(text).make_tolerances().activity == 1e-7
        text = MINIMAL.replace('"m1": 0', '"m1": 0, "tolerances": {"activity": 0}')
        assert parse_problem(text).make_tolerances().activity == 0.0

    @pytest.mark.parametrize("key", ["symmetry_rel", "bilinearity_rel", "membership"])
    def test_removed_tolerance_keys_rejected(self, key):
        """Tolerances that no check read are not accepted as settings."""
        text = MINIMAL.replace('"m1": 0', f'"m1": 0, "tolerances": {{"{key}": 1e-9}}')
        with pytest.raises(ParseError, match=key):
            parse_problem(text)

    def test_asymmetric_matrix_rejected(self):
        text = MINIMAL.replace("[[0, 0, 2.0]]", "[[0, 0, 2.0], [0, 0, 1e-3]]")
        pf = parse_problem(text)  # duplicate diagonal triplets just add up
        x = np.zeros(1)
        assert pf.problem.objective.hessian(x).quad(np.ones(1)) == pytest.approx(2.0 + 1e-3)
        bad = """
        {
          "dimension": 2,
          "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
          "objective": {"constant": 0.0, "linear": [0.0, 0.0],
                        "quadratic": [[0, 1, 1.0]]},
          "constraints": [],
          "m1": 0
        }
        """
        with pytest.raises(ParseError, match="asymmetric"):
            parse_problem(bad)

    def test_nonfinite_number_rejected(self):
        text = MINIMAL.replace('"constant": 0.0', '"constant": 1e999')
        with pytest.raises(ParseError):
            parse_problem(text)

    @pytest.mark.parametrize("triplet, message", [
        ([0, 0], "triplet must be"),
        ([True, 0, 1.0], "indices must be integers"),
        ([0, 1.0, 1.0], "indices must be integers"),
        ([0, -1, 1.0], "indices must be integers"),
        ([0, 2, 1.0], "indices must be integers"),
        ([0, 0, True], "expected a number, got bool"),
        ([0, 0, "1.0"], "expected a number, got str"),
        ([0, 0, float("nan")], "must be finite"),
    ])
    @pytest.mark.parametrize("where", ["objective", "constraints[1]"])
    def test_triplet_errors_name_their_path(self, triplet, message, where):
        """Each bad triplet is reported at its own index, after valid ones."""
        quad = {"linear": [0.0, 0.0], "quadratic": [[0, 0, 1.0], [1, 1, 2], triplet]}
        plain = {"linear": [0.0, 0.0], "quadratic": [[0, 1, 0.5], [1, 0, 0.5]]}
        problem = {"dimension": 2, "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                   "objective": quad if where == "objective" else plain,
                   "constraints": [plain, quad if where != "objective" else plain]}
        with pytest.raises(ParseError, match=message) as exc:
            parse_problem(json.dumps(problem))
        assert exc.value.path == f"{where}.quadratic[2]"

    @pytest.mark.parametrize("where", ["objective", "constraints[0]"])
    @pytest.mark.parametrize("value", [None, -1, 1.5, True, "x", {}])
    def test_quadratic_must_be_a_list(self, where, value):
        problem = json.loads(README_PROBLEM)
        (problem["objective"] if where == "objective" else problem["constraints"][0])[
            "quadratic"] = value
        with pytest.raises(ParseError, match="expected a list") as exc:
            parse_problem(json.dumps(problem))
        assert exc.value.path == f"{where}.quadratic"

    def test_overflowing_quadratic_sum_rejected(self):
        """Two finite triplets on one entry that add up past the largest
        float: the sum is inf, which the asymmetry test would read as
        symmetric (inf - inf is NaN)."""
        problem = json.loads(README_PROBLEM)
        problem["objective"]["quadratic"] = [[0, 0, 1e308], [0, 0, 1e308]]
        with pytest.raises(ParseError, match="finite") as exc:
            parse_problem(json.dumps(problem))
        assert exc.value.path == "objective.quadratic"

    @pytest.mark.parametrize("path", _field_paths(json.loads(README_PROBLEM)),
                             ids=lambda path: ".".join(map(str, path)))
    def test_every_field_of_the_readme_file_replaced(self, path):
        """Each field of README's example problem file, replaced by a value of
        each JSON kind, parses or raises a usage error (exit 2), never
        another exception."""
        for value in (None, -1, 1.5, True, "x", [], [1], {}, {"a": 1}):
            problem = json.loads(README_PROBLEM)
            node = problem
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                pf = parse_problem(json.dumps(problem))
                pf.build()
                pf.make_tolerances()
                pf.make_budget(0)
            except UsageError:
                continue
            # a negative tolerance is a parse error
            assert not (path[0] == "tolerances" and len(path) == 2 and value == -1), path

    def test_builtin_forms(self):
        pf = parse_problem('{"builtin": "example1", "grid": 24}')
        spec, point = pf.build()
        assert spec.dim == 24 and point is not None
        with pytest.raises(ParseError):
            parse_problem('{"builtin": "example1", "trunc": 5}')
        with pytest.raises(ParseError):
            parse_problem('{"builtin": "example3"}')


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(MINIMAL)
    return str(path)


@pytest.fixture()
def stationary_point(tmp_path):
    path = tmp_path / "origin.json"
    path.write_text('{"point": [0.0]}')
    return str(path)


@pytest.fixture()
def nonstationary_point(tmp_path):
    path = tmp_path / "half.json"
    path.write_text('{"point": [0.5]}')
    return str(path)


class TestCLI:
    def test_check_foc_holds(self, capsys, problem_file, stationary_point):
        code = main(["check-foc", problem_file, "--at", stationary_point])
        assert code == 0
        out = capsys.readouterr().out
        assert "stationarity" in out and "holds" in out

    def test_check_foc_violated(self, capsys, problem_file, nonstationary_point):
        code = main(["check-foc", problem_file, "--at", nonstationary_point])
        assert code == 1
        assert "not_stationary" in capsys.readouterr().out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-foc", str(bad), "--at", str(bad)]) == 2

    def test_usage_error_exit_code(self):
        assert main(["no-such-command"]) == 2

    def test_check_ssc_nan_eta_is_a_usage_error(self, tmp_path):
        spec = tmp_path / "example2.json"
        spec.write_text('{"builtin": "example2", "trunc": 4}')
        assert main(["check-ssc", str(spec), "--eta", "nan", "--alpha", "0.5"]) == 2

    def test_missing_point_for_file_problem(self, problem_file):
        assert main(["check-foc", problem_file]) == 2

    def test_repro_example1_exit_zero(self, capsys):
        code = main(["repro", "example1", "--grid", "12", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        record = {c["name"]: c for c in data["checks"]}
        assert record["multiplier_set"]["numbers"]["lambda_interval"] == [0.0, 1.0]
        assert record["chain_expectations"]["verdict"] == "pass"

    def test_repro_example2_exit_one_with_witness(self, capsys):
        code = main(["repro", "example2", "--trunc", "8", "--format", "json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        record = {c["name"]: c for c in data["checks"]}
        assert record["snc_sup"]["verdict"] == "violated"
        assert record["snc_sup"]["witness"]["direction"] == [0.0, 1.0, 0.0]
        assert record["chain_expectations"]["verdict"] == "pass"

    # The bottom of README's range (at trunc 2 the half-space rows have no
    # k-family), and every truncation that the former hull feasibility LP got
    # wrong (15, 18, 23, 26, 39: origin infeasible) or failed on (29, 31, 33,
    # 36-38, 40: pivot limit), plus 16, 20, 24 and 32.
    @pytest.mark.parametrize("trunc", [2, 3, 15, 16, 18, 20, 23, 24, 26, 29, 31, 32, 33, 36,
                                       37, 38, 39, 40])
    def test_repro_example2_large_truncations(self, capsys, trunc):
        code = main(["repro", "example2", "--trunc", str(trunc), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        record = {c["name"]: c for c in data["checks"]}
        assert code == 1
        assert record["chain_expectations"]["verdict"] == "pass"

    def test_repro_bad_grid_exit_two(self):
        assert main(["repro", "example1", "--grid", "11"]) == 2

    def test_check_cq_flags(self, capsys, problem_file, stationary_point):
        code = main(["check-cq", problem_file, "--at", stationary_point,
                     "--rzkcq", "--weaker", "--strict", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in data["checks"]]
        assert "rzkcq" in names and "weaker_cq" in names
        assert any(n.startswith("strict_cq") for n in names)

    def test_check_ssc_on_builtin(self, capsys, tmp_path):
        pfile = tmp_path / "b.json"
        pfile.write_text('{"builtin": "example1", "grid": 12}')
        code = main(["check-ssc", str(pfile), "--eta", "0.1", "--alpha", "1.0",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        record = {c["name"]: c for c in data["checks"]}
        assert record["ssc"]["verdict"] == "holds"
        assert record["ssc"]["numbers"]["alpha_est"] == pytest.approx(1.0, abs=1e-6)

    def test_validate_derivatives_subcommand(self, capsys, problem_file, stationary_point):
        code = main(["validate-derivatives", problem_file, "--at", stationary_point,
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(c["verdict"] == "pass" for c in data["checks"])

    def test_growth_subcommand(self, capsys, problem_file, stationary_point):
        code = main(["growth", problem_file, "--at", stationary_point,
                     "--alpha", "1.0", "--eps", "0.2", "--samples", "200",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        record = {c["name"]: c for c in data["checks"]}
        assert record["growth_consistency"]["verdict"] == "pass"
        assert record["growth_consistency"]["numbers"]["samples"] == 200

    def test_growth_without_samples_is_inconclusive(self, capsys, tmp_path, stationary_point):
        """Two equalities in one variable isolate the origin: no sample is
        accepted, so nothing is tested; not a violation, so the exit is 0."""
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps({
            "dimension": 1, "box": {"lower": [-1.0], "upper": [1.0]},
            "objective": {"quadratic": [[0, 0, 2.0]]},
            "constraints": [{"linear": [1.0]}, {"linear": [1.0], "quadratic": [[0, 0, 2.0]]}],
            "m1": 2}))
        code = main(["growth", str(path), "--at", stationary_point, "--alpha", "1.0",
                     "--eps", "0.2", "--samples", "10", "--format", "json"])
        record = json.loads(capsys.readouterr().out)["checks"][-1]
        assert code == 0
        assert (record["name"], record["verdict"]) == ("growth_consistency", "inconclusive")
        assert record["numbers"]["samples"] == 0
        assert record["numbers"]["note"] == "no feasible samples found"

    def test_growth_stage_without_samples(self):
        """0 of 100 samples on m1 = 3 equalities in n = 2 variables."""
        p, x, _, _ = random_stationary_problem(np.random.default_rng(9))
        ctx = stages.RunContext(p, x, DEFAULT_TOLERANCES, SearchBudget(),
                                new_report("random", "", 0, x), 0.0)
        record = stages.growth_consistency(ctx, 0.5, 0.05, 100)
        assert record.verdict == "inconclusive" and record.numbers["samples"] == 0
        assert record.witness is None
        ctx.report.checks.append(record)
        assert not ctx.report.any_violation

    def test_multiplier_count_without_a_stationarity_stage(self):
        """The count reads the multiplier set itself, so it needs no
        stationarity stage before it."""
        spec, _ = parse_problem(MINIMAL).build()
        x = np.zeros(1)
        ctx = stages.RunContext(spec, x, DEFAULT_TOLERANCES, SearchBudget(),
                                new_report("minimal", "", 0, x), 0.0)
        report = stages.run(ctx, [stages.feasibility, stages.multiplier_count])
        assert [(c.name, c.verdict) for c in report.checks] == \
            [("feasibility", "pass"), ("multiplier_set", "pass")]
        assert report.checks[-1].numbers == {"bounded": True, "n_vertices": 1}

    @pytest.mark.parametrize("which", ["many_multiplier", "builtin", "crlf"])
    def test_digest_is_the_file_bytes(self, capsys, tmp_path, which):
        """problem_digest is what ``sha256sum FILE | cut -c1-16`` prints, for
        CRLF line ends too; the point file does not enter it."""
        at = tmp_path / "x.json"
        if which == "many_multiplier":
            problem, point = many_multiplier_problem(np.random.default_rng(0), 24, 8, 6, 3, 0.01)
            data = json.dumps(problem).encode()
            at.write_text(json.dumps({"point": point}))
        elif which == "builtin":
            data = b'{"builtin": "example1", "grid": 12}'
            at.write_text(json.dumps({"point": build_example1(12).xbar.tolist()}))
        else:
            data = MINIMAL.replace("\n", "\r\n").encode()
            at.write_text('{"point": [0.0]}')
        path = tmp_path / "problem.json"
        path.write_bytes(data)
        assert main(["check-foc", str(path), "--at", str(at), "--format", "json"]) == 0
        digest = json.loads(capsys.readouterr().out)["problem_digest"]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        if which == "crlf":
            assert b"\r\n" in path.read_bytes()
            assert digest != hashlib.sha256(MINIMAL.encode()).hexdigest()[:16]

    def test_unreadable_problem_directory_exit_two(self, capsys, tmp_path):
        assert main(["check-foc", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_problem_exit_two(self, capsys, tmp_path, stationary_point):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(MINIMAL.encode("utf-8").replace(b"1.0", b"\xff", 1))
        assert main(["check-foc", str(bad), "--at", stationary_point]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_malformed_problem_error_names_file(self, capsys, tmp_path, stationary_point):
        bad = tmp_path / "bad_problem.json"
        bad.write_text("{not json")
        assert main(["check-foc", str(bad), "--at", stationary_point]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: invalid JSON at line 1, column 2" in err

    def test_malformed_point_error_names_file(self, capsys, tmp_path, problem_file):
        bad = tmp_path / "bad_point.json"
        bad.write_text('{"point": [0.0, 1.0]}')
        assert main(["check-foc", problem_file, "--at", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: point: expected length 1, got 2" in err
        assert problem_file not in err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_growth_needs_a_sample(self, capsys, problem_file, stationary_point, samples):
        code = main(["growth", problem_file, "--at", stationary_point, "--alpha", "1.0",
                     "--eps", "0.2", "--samples", samples])
        assert code == 2
        assert "at least one sample" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["check-ssc", "--eta", "0.1", "--alpha", "nan"], "alpha must be finite"),
        (["check-ssc", "--eta", "inf", "--alpha", "0.5"], "needs a finite eta > 0"),
        (["growth", "--alpha", "nan", "--eps", "0.2"], "alpha must be finite"),
        (["growth", "--alpha", "1.0", "--eps", "nan"], "eps must be positive and finite"),
        (["growth", "--alpha", "1.0", "--eps", "inf"], "eps must be positive and finite"),
        (["check-foc", "--seed", "-5"], "--seed must be a nonnegative integer"),
    ])
    def test_nonfinite_parameters_and_negative_seeds_are_usage_errors(
            self, capsys, problem_file, stationary_point, argv, message):
        """Neither a verdict nor a traceback: exit 2 with the reason."""
        code = main([argv[0], problem_file, "--at", stationary_point, *argv[1:]])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_nonfinite_probe_value_exits_3(self, capsys, tmp_path, monkeypatch):
        """A problem-file objective made NaN off the coordinate axes:
        derivative validation meets it at a random Hessian probe and the
        CLI exits 3 with the reason, not with a verdict."""
        real = kkt2.problem_file.quadratic

        def nan_off_the_axes(*args, **kwargs):
            fn = real(*args, **kwargs)
            return replace(fn, values=lambda X: np.where(X[:, 0] * X[:, 1] == 0.0, fn.values(X), np.nan))

        monkeypatch.setattr(kkt2.problem_file, "quadratic", nan_off_the_axes)
        spec, point = tmp_path / "p.json", tmp_path / "x.json"
        spec.write_text(json.dumps({
            "dimension": 2, "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "objective": {"constant": 0.0, "linear": [0.0, 0.0], "quadratic": [[0, 0, 2.0], [1, 1, 2.0]]},
            "constraints": [], "m1": 0}))
        point.write_text(json.dumps({"point": [0.0, 0.0]}))
        assert main(["validate-derivatives", str(spec), "--at", str(point)]) == 3
        assert "not finite at a probe point" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, capsys, problem_file, stationary_point, monkeypatch):
        """A stage that cannot get its memory (as ``growth --samples 1e9``
        cannot get its sample array) exits 3 with one line, not 1 with a
        traceback."""
        def no_memory(*args):
            raise MemoryError("Unable to allocate 894. GiB for an array with shape "
                              "(1000000000, 120) and data type float64")

        monkeypatch.setattr(stages, "growth_consistency", no_memory)
        code = main(["growth", problem_file, "--at", stationary_point, "--alpha", "1.0",
                     "--eps", "0.2", "--samples", "1000000000"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1

    def test_negative_seed_of_a_builtin_chain_and_of_the_environment(
            self, capsys, problem_file, stationary_point, monkeypatch):
        assert main(["repro", "example1", "--grid", "12", "--seed", "-5"]) == 2
        monkeypatch.setenv("KKT2_SEED", "-3")
        assert main(["check-foc", problem_file, "--at", stationary_point]) == 2
        assert "KKT2_SEED must be a nonnegative integer" in capsys.readouterr().err

    def test_layer_functions_reject_nonfinite_parameters(self):
        ex = build_example1(12)
        mset = multiplier_set(ex.problem, ex.xbar)
        for call in (lambda: critical_cone(mset, np.inf),
                     lambda: check_ssc(mset, np.inf, 0.5),
                     lambda: check_ssc(mset, 0.1, np.nan),
                     lambda: sample_growth(ex.problem, ex.xbar, np.nan, 0.1),
                     lambda: sample_growth(ex.problem, ex.xbar, 0.5, np.nan)):
            with pytest.raises(UsageError):
                call()

    @pytest.mark.parametrize("argv, exit_code, expected", [
        (["check-foc"], 0, [("feasibility", "pass"), ("stationarity", "holds"),
                            ("multiplier_set", "pass")]),
        (["check-cq"], 0, [("feasibility", "pass"), ("rzkcq", "holds"), ("weaker_cq", "holds")]),
        (["check-cq", "--strict"], 0, [("feasibility", "pass"), ("strict_cq[vertex 0]", "holds")]),
        (["multipliers"], 0, [("feasibility", "pass"), ("multiplier_set", "holds")]),
        (["check-snc"], 0, [("feasibility", "pass"), ("snc_sup", "holds")]),
        (["check-ssc", "--eta", "0.1", "--alpha", "1.0"], 0,
         [("feasibility", "pass"), ("ssc", "holds")]),
        (["growth", "--alpha", "1.0", "--eps", "0.2", "--samples", "50"], 0,
         [("feasibility", "pass"), ("growth_consistency", "pass")]),
        (["validate-derivatives"], 0, [("derivatives[objective]", "pass")]),
        (["repro", "example1", "--grid", "12"], 0, [
            ("feasibility", "pass"), ("derivative_validation", "pass"), ("rzkcq", "holds"),
            ("weaker_cq", "holds"), ("stationarity", "holds"), ("multiplier_set", "pass"),
            ("ssc", "holds"), ("snc_sup", "holds"), ("fixed_multiplier_gap", "pass"),
            ("chain_expectations", "pass")]),
    ])
    def test_record_sequence(self, capsys, problem_file, stationary_point, argv, exit_code,
                             expected):
        files = [] if argv[0] == "repro" else [problem_file, "--at", stationary_point]
        code = main([argv[0], *files, *argv[1:], "--format", "json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["verdict"]) for c in checks] == expected
        assert code == exit_code

    @pytest.mark.parametrize("argv, name", [
        (["check-snc"], "snc_sup"), (["check-ssc", "--eta", "0.1", "--alpha", "0.5"], "ssc"),
        (["check-cq", "--strict"], "strict_cq")])
    def test_unbounded_multiplier_set_is_a_fail_record(self, capsys, tmp_path, argv, name):
        """f = x1 + |x|^2 / 2, -x1 <= 0 and x1 + x2^2 / 2 <= 0 on a free box
        at 0: the multipliers mu1 = 1 + mu2 >= 1 form a ray (no CQ holds), so
        q is undefined and there is no vertex to test the strict CQ at: the
        record fails with its reason."""
        problem = tmp_path / "unbounded.json"
        problem.write_text(json.dumps({
            "dimension": 2, "box": {"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]},
            "objective": {"linear": [1.0, 0.0], "quadratic": [[0, 0, 1.0], [1, 1, 1.0]]},
            "constraints": [{"linear": [-1.0, 0.0]},
                            {"linear": [1.0, 0.0], "quadratic": [[1, 1, 1.0]]}]}))
        point = tmp_path / "origin.json"
        point.write_text('{"point": [0.0, 0.0]}')
        files = [str(problem), "--at", str(point), "--format", "json"]
        assert main(["check-foc", *files]) == 0
        foc = json.loads(capsys.readouterr().out)["checks"]
        assert foc[-1]["numbers"]["bounded"] is False
        code = main([argv[0], *files, *argv[1:]])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["verdict"]) for c in checks] == [("feasibility", "pass"),
                                                               (name, "fail")]
        assert checks[-1]["numbers"] == {"reason": "unbounded multiplier set"}
        assert code == 1

    @pytest.mark.parametrize("linear, exit_code, checks", [
        ([0.0, 0.0], 0, [("strict_cq[vertex 0]", "holds", {"mu": [], "achieved_cone": ""})]),
        ([1.0, 0.0], 1, [("strict_cq", "fail", {"reason": "empty multiplier set"})])])
    def test_strict_cq_without_constraints(self, capsys, tmp_path, linear, exit_code, checks):
        """f = l.x + |x|^2 / 2 on a free box at 0, no constraints: the
        multiplier set is {()}, one vertex, where l = 0, and empty
        otherwise."""
        problem = tmp_path / "free.json"
        problem.write_text(json.dumps({
            "dimension": 2, "box": {"lower": ["-inf", "-inf"], "upper": ["inf", "inf"]},
            "objective": {"linear": linear, "quadratic": [[0, 0, 1.0], [1, 1, 1.0]]}}))
        point = tmp_path / "origin.json"
        point.write_text('{"point": [0.0, 0.0]}')
        code = main(["check-cq", str(problem), "--at", str(point), "--strict", "--format",
                     "json"])
        got = json.loads(capsys.readouterr().out)["checks"][1:]
        assert [(c["name"], c["verdict"], c["numbers"]) for c in got] == checks
        assert code == exit_code

    @pytest.mark.parametrize("argv", [["check-foc"], ["check-cq", "--strict"], ["multipliers"]])
    def test_hull_point_off_the_base_exits_two(self, capsys, tmp_path, argv):
        """Example2's set lists its rays at the origin only; at a feasible
        point off it the multiplier set is a usage error."""
        problem, point = tmp_path / "e2.json", tmp_path / "off.json"
        problem.write_text('{"builtin": "example2", "trunc": 8}')
        point.write_text(json.dumps({"point": (0.5 * point_r(1, 1)).tolist()}))
        assert main([argv[0], str(problem), "--at", str(point), *argv[1:]]) == 2
        assert "base point" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check-foc"], ["check-cq", "--strict"], ["multipliers"], ["check-snc"],
        ["check-ssc", "--eta", "0.1", "--alpha", "1.0"],
        ["growth", "--alpha", "1.0", "--eps", "0.2"],
    ])
    def test_infeasible_point_stops_after_feasibility(self, capsys, problem_file, tmp_path,
                                                      argv):
        outside = tmp_path / "outside.json"
        outside.write_text('{"point": [2.0]}')
        code = main([argv[0], problem_file, "--at", str(outside), *argv[1:],
                     "--format", "json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["verdict"]) for c in checks] == [("feasibility", "infeasible")]
        assert code == 1

    def test_seed_priority_env_vs_flag(self, capsys, problem_file, stationary_point, monkeypatch):
        monkeypatch.setenv("KKT2_SEED", "7")
        main(["check-foc", problem_file, "--at", stationary_point, "--format", "json"])
        assert json.loads(capsys.readouterr().out)["seed"] == 7
        main(["check-foc", problem_file, "--at", stationary_point,
              "--seed", "9", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["seed"] == 9

    def test_closed_pipe_exits_with_the_verdict(self):
        """A reader that closes the pipe before the report is written (as
        ``| head -c 10`` does) gets no BrokenPipeError traceback, and the exit
        code is still the verdict's."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "kkt2.cli", "repro", "example1", "--grid", "12",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


class TestReport:
    def test_json_deterministic_up_to_wall_time(self, capsys):
        outs = []
        for _ in range(2):
            main(["repro", "example2", "--trunc", "4", "--format", "json", "--seed", "5"])
            data = json.loads(capsys.readouterr().out)
            data.pop("wall_time_s")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_example2_snc_record_counts_directions(self):
        _, report = run_example2_certification(4)
        snc = next(c for c in report.checks if c.name == "snc_sup")
        assert snc.numbers["directions"] >= 1

    def test_chain_expectations_fail_on_a_mismatch(self, monkeypatch):
        from kkt2.examples import certify

        monkeypatch.setitem(certify.EXAMPLE2_EXPECTATIONS, "strict_cq", ("holds", None))
        _, report = run_example2_certification(4)
        assert report.checks[-1].name == "chain_expectations"
        assert report.checks[-1].verdict == "fail"

    def test_witness_replay(self):
        ex, report = run_example2_certification(6)
        results = replay(ex.problem, report)
        assert results, "the report must carry at least one witness"
        assert all(ok for _, ok, _ in results)
