"""Problem files, CLI behavior, report determinism and witness replay."""

import json

import numpy as np
import pytest

from kkt2.cli import main
from kkt2.errors import ParseError
from kkt2.examples import run_example2_certification
from kkt2.problem_file import parse_problem, serialize_problem
from kkt2.report import replay


MINIMAL = """
{
  "dimension": 1,
  "box": {"lower": [-1.0], "upper": [1.0]},
  "objective": {"constant": 0.0, "linear": [0.0], "quadratic": [[0, 0, 2.0]]},
  "constraints": [],
  "m1": 0
}
"""


class TestProblemFile:
    def test_minimal_parses(self):
        pf = parse_problem(MINIMAL)
        spec, _ = pf.build()
        assert spec.dim == 1
        assert spec.objective.value(np.array([2.0])) == pytest.approx(4.0)

    def test_round_trip_stable(self):
        pf = parse_problem(MINIMAL)
        text = serialize_problem(pf)
        pf2 = parse_problem(text)
        assert serialize_problem(pf2) == text

    def test_infinite_bound_sentinels(self):
        text = MINIMAL.replace('"upper": [1.0]', '"upper": ["inf"]')
        pf = parse_problem(text)
        spec, _ = pf.build()
        assert spec.abstract_set.upper[0] == np.inf
        assert "inf" in serialize_problem(pf)

    def test_unknown_key_rejected(self):
        text = MINIMAL.replace('"m1": 0', '"m1": 0, "mystery": 1')
        with pytest.raises(ParseError, match="mystery"):
            parse_problem(text)

    def test_asymmetric_matrix_rejected(self):
        text = MINIMAL.replace("[[0, 0, 2.0]]", "[[0, 0, 2.0], [0, 0, 1e-3]]")
        pf = parse_problem(text)  # duplicate diagonal triplets just add up
        assert pf.objective.matrix[0, 0] == pytest.approx(2.0 + 1e-3)
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

    def test_unreadable_problem_directory_exit_two(self, capsys, tmp_path):
        assert main(["check-foc", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_problem_exit_two(self, capsys, tmp_path, stationary_point):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(MINIMAL.encode("utf-8").replace(b"1.0", b"\xff", 1))
        assert main(["check-foc", str(bad), "--at", stationary_point]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_growth_needs_a_sample(self, capsys, problem_file, stationary_point, samples):
        code = main(["growth", problem_file, "--at", stationary_point, "--alpha", "1.0",
                     "--eps", "0.2", "--samples", samples])
        assert code == 2
        assert "at least one sample" in capsys.readouterr().err

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
