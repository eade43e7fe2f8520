import json
import warnings

import pytest

from gaugeprob import DiscreteProbabilitySpace
from gaugeprob.cli import main
from gaugeprob.schemas import (
    CSV_COLUMNS,
    REPORT_SCHEMA,
    load_scenario_text,
    validate_report,
)
from gaugeprob.errors import ScenarioError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


class TestIntegrateCommand:
    def test_monomial2_value_and_exit(self, capsys):
        code, report = run_json(
            capsys, "integrate", "--catalog", "monomial2", "--tol", "1e-9")
        assert code == 0
        assert report["status"] == "pass"
        assert abs(report["result"]["value"] - 1.0 / 3.0) <= 1e-9
        validate_report(report)

    def test_unconverged_exits_2(self, capsys):
        code, report = run_json(
            capsys, "integrate", "--catalog", "monomial2",
            "--tol", "1e-13", "--levels", "3")
        assert code == 2
        assert report["status"] == "unverified"

    def test_catalog_miss_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "--catalog", "nosuch")
        assert code == 1
        assert "unknown integrand" in err

    def test_requires_exactly_one_source(self, capsys):
        code, out, err = run_cli(capsys, "integrate")
        assert code == 1


class TestStochasticCommands:
    def test_integrate_prob_verified(self, capsys):
        code, report = run_json(
            capsys, "integrate-prob", "--catalog", "linear-coeff")
        assert code == 0
        assert report["result"]["verified"] is True
        assert report["result"]["integral"] == [0.5, 1.0]
        validate_report(report)

    def test_integrate_prob_bad_eta_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "integrate-prob", "--catalog", "linear-coeff",
            "--eta", "0")
        assert code == 1
        assert "eta" in err

    def test_riemann_prob_witness_exits_2(self, capsys):
        code, report = run_json(
            capsys, "riemann-prob", "--catalog", "indicator-coeff",
            "--levels", "5", "--tol", "1e-9")
        assert code == 2
        assert report["result"]["verified"] is False
        assert report["result"]["failed_outcomes"] == [0, 1]
        validate_report(report)

    def test_uniqueness_pass(self, capsys):
        code, report = run_json(
            capsys, "uniqueness", "--catalog", "linear-coeff")
        assert code == 0
        assert report["result"]["almost_surely_equal"] is True
        validate_report(report)

    def test_uniqueness_inconclusive_exits_2(self, capsys):
        code, report = run_json(
            capsys, "uniqueness", "--catalog", "quadratic-coeff",
            "--levels", "2", "--tol", "1e-12")
        assert code == 2
        assert report["result"]["conclusive"] is False

    def test_fubini_pass(self, capsys):
        code, report = run_json(capsys, "fubini", "--catalog", "linear-coeff")
        assert code == 0
        assert report["result"]["lhs"] == pytest.approx(0.75, abs=1e-5)
        assert report["result"]["rhs"] == pytest.approx(0.75, abs=1e-5)
        validate_report(report)

    def test_derivative_pass_and_fail(self, capsys):
        code, report = run_json(capsys, "derivative", "--catalog",
                                "ftc-quadratic")
        assert code == 0
        assert report["result"]["worst_tail"] == 0.0
        validate_report(report)
        code, report = run_json(
            capsys, "derivative", "--catalog", "ftc-quadratic",
            "--eps", "1e-9")
        assert code == 2
        assert report["status"] == "fail"

    def test_ftc_pass_and_unverified(self, capsys, tmp_path):
        code, report = run_json(capsys, "ftc", "--catalog", "ftc-quadratic")
        assert code == 0
        assert report["result"]["almost_surely_equal"] is True
        validate_report(report)
        # a derivative term whose sums cannot settle inside two levels
        scenario = {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "F": {"form": "separable",
                  "terms": [{"values": [1.0, 2.0], "basis": "monomial3"}]},
            "f": {"form": "separable",
                  "terms": [{"values": [1.0, 2.0], "basis": "monomial2"}]},
            "domain": [0.0, 1.0],
        }
        path = tmp_path / "ftc.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, report = run_json(
            capsys, "ftc", "--scenario", str(path),
            "--tol", "1e-13", "--levels", "2")
        assert code == 2
        assert report["status"] == "unverified"

    def test_convergence_table_scalar(self, capsys):
        code, report = run_json(
            capsys, "convergence-table", "--catalog", "monomial2",
            "--levels", "5")
        assert code == 0
        rows = report["result"]["rows"]
        assert [r["level"] for r in rows] == list(range(6))
        meshes = [r["mesh_bound"] for r in rows]
        assert meshes == sorted(meshes, reverse=True)
        validate_report(report)

    def test_convergence_table_random(self, capsys):
        code, report = run_json(
            capsys, "convergence-table", "--catalog", "linear-coeff",
            "--levels", "4")
        assert code == 0
        tails = [r["worst_tail"] for r in report["result"]["rows"]]
        assert tails[-1] == 0.0


class TestScenarioFiles:
    def write(self, tmp_path, payload):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_explicit_separable_function(self, capsys, tmp_path):
        scenario = {
            "schema": "gaugeprob.scenario/1",
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "function": {"form": "separable",
                         "terms": [{"values": [1.0, 2.0], "basis": "linear"}]},
            "domain": [0.0, 1.0],
        }
        code, report = run_json(
            capsys, "integrate-prob", "--scenario",
            self.write(tmp_path, scenario))
        assert code == 0
        assert report["result"]["integral"] == [0.5, 1.0]

    def test_sampled_space_determinism(self, capsys, tmp_path):
        scenario = {
            "space": {"sample": {"distribution": "uniform01", "n": 64}},
            "function": {"form": "separable",
                         "terms": [{"values": {"sample": {
                             "distribution": "uniform01"}},
                             "basis": "monomial2"}]},
            "domain": [0.0, 1.0],
        }
        path = self.write(tmp_path, scenario)
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(
                capsys, "integrate-prob", "--scenario", path, "--seed", "7")
            assert code == 0
            stripped = "\n".join(
                line for line in out.splitlines()
                if '"generated_at"' not in line)
            outputs.append(stripped)
        assert outputs[0] == outputs[1]

    def test_seed_changes_sampled_values(self, capsys, tmp_path):
        scenario = {
            "space": {"sample": {"distribution": "uniform01", "n": 16}},
            "function": {"form": "separable",
                         "terms": [{"values": {"sample": {
                             "distribution": "uniform01"}},
                             "basis": "linear"}]},
        }
        path = self.write(tmp_path, scenario)
        _, rep1 = run_json(capsys, "integrate-prob", "--scenario", path,
                           "--seed", "1")
        _, rep2 = run_json(capsys, "integrate-prob", "--scenario", path,
                           "--seed", "2")
        assert rep1["result"]["integral"] != rep2["result"]["integral"]

    @pytest.mark.parametrize("distribution", ["nonsense", 7, "uniform 1"])
    def test_unknown_space_distribution_rejected(self, capsys, tmp_path,
                                                 distribution):
        scenario = {
            "space": {"sample": {"distribution": distribution, "n": 16}},
            "function": {"form": "separable",
                         "terms": [{"values": {"sample": {
                             "distribution": "uniform01"}},
                             "basis": "linear"}]},
        }
        code, out, err = run_cli(capsys, "integrate-prob", "--scenario",
                                 self.write(tmp_path, scenario))
        assert code == 1
        assert out == ""
        assert err.startswith("gaugeprob: error: "
                              "scenario.space.sample.distribution: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("distribution, detail", [
        (5, "distribution 5: expected a string"),
        ("two-point 1|nan", "random variable values must be finite"),
    ])
    def test_sampled_coefficient_error_names_its_field(
            self, capsys, tmp_path, distribution, detail):
        scenario = {
            "space": {"sample": {"distribution": "uniform01", "n": 16}},
            "function": {"form": "separable",
                         "terms": [{"values": {"sample": {
                             "distribution": distribution}},
                             "basis": "linear"}]},
        }
        code, out, err = run_cli(capsys, "integrate-prob", "--scenario",
                                 self.write(tmp_path, scenario))
        assert code == 1
        assert out == ""
        assert err == ("gaugeprob: error: scenario.function.terms[0].values: "
                       f"{detail}\n")

    def run_named_error(self, capsys, tmp_path, command, scenario):
        code, out, err = run_cli(capsys, command, "--scenario",
                                 self.write(tmp_path, scenario))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("n", [None, [3], "abc", 0, 2.7, True])
    def test_invalid_sample_size_names_its_field(self, capsys, tmp_path, n):
        scenario = {
            "space": {"sample": {"distribution": "uniform01", "n": n}},
            "function": {"form": "separable",
                         "terms": [{"values": [1.0], "basis": "linear"}]},
        }
        err = self.run_named_error(capsys, tmp_path, "integrate-prob",
                                   scenario)
        assert err == ("gaugeprob: error: scenario.space.sample.n: "
                       f"expected an integer >= 1, got {n!r}\n")

    @pytest.mark.parametrize("n", [10_000_001, 10 ** 100])
    def test_sample_size_above_the_ceiling_is_refused_before_building(
            self, capsys, tmp_path, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("the space must not be built")

        monkeypatch.setattr(DiscreteProbabilitySpace, "uniform", refuse)
        scenario = {
            "space": {"sample": {"distribution": "uniform01", "n": n}},
            "function": {"form": "separable",
                         "terms": [{"values": [1.0], "basis": "linear"}]},
        }
        err = self.run_named_error(capsys, tmp_path, "integrate-prob",
                                   scenario)
        assert err == ("gaugeprob: error: scenario.space.sample.n: at most "
                       f"10000000 outcomes, got {n}\n")

    @pytest.mark.parametrize("space", [
        {"outcomes": ["a", "b"], "weights": [0.5, None]},
        {"outcomes": 5, "weights": [0.5, 0.5]},
    ])
    def test_invalid_explicit_space_names_its_field(self, capsys, tmp_path,
                                                     space):
        scenario = {
            "space": space,
            "function": {"form": "separable",
                         "terms": [{"values": [1.0, 2.0], "basis": "linear"}]},
        }
        err = self.run_named_error(capsys, tmp_path, "integrate-prob",
                                   scenario)
        assert err.startswith("gaugeprob: error: scenario.space: ")

    @pytest.mark.parametrize("values, detail", [
        (5, "need exactly one value per outcome"),
        ([None, 1], "random variable values must be finite"),
        ([1, 2, 3], "need exactly one value per outcome"),
        (["x", 1], "could not convert string to float: 'x'"),
    ])
    def test_invalid_dominator_names_its_field(self, capsys, tmp_path,
                                               values, detail):
        scenario = {"catalog": "linear-coeff", "dominator": {"values": values}}
        err = self.run_named_error(capsys, tmp_path, "fubini", scenario)
        assert err == ("gaugeprob: error: scenario.dominator.values: "
                       f"{detail}\n")

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_grid_points_named(self, capsys, tmp_path, points):
        scenario = {"catalog": "ftc-quadratic", "grid_points": points}
        err = self.run_named_error(capsys, tmp_path, "derivative", scenario)
        assert err == ("gaugeprob: error: scenario.grid_points: "
                       f"must be >= 2, got {points}\n")

    @pytest.mark.parametrize("command, scenario, field", [
        ("integrate-prob", {"catalog": "linear-coeff", "eps": 10 ** 400},
         "scenario.eps"),
        ("integrate-prob", {
            "space": {"outcomes": ["a", "b"], "weights": [10 ** 400, 0.5]},
            "function": {"form": "separable", "terms": [
                {"values": [1.0, 2.0], "basis": "linear"}]}},
         "scenario.space"),
        ("integrate-prob", {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "function": {"form": "separable", "terms": [
                {"values": [10 ** 400, 2], "basis": "linear"}]}},
         "scenario.function.terms[0].values"),
        ("fubini", {"catalog": "linear-coeff",
                    "dominator": {"values": [10 ** 400, 1.0]}},
         "scenario.dominator.values"),
        ("integrate", {"catalog": "linear", "gauge": {"constant": 10 ** 400}},
         "scenario.gauge.constant"),
        ("integrate", {"catalog": "linear", "domain": [0, 10 ** 400]},
         "scenario.domain"),
        ("derivative", {"catalog": "ftc-quadratic", "t0": 10 ** 400},
         "scenario.t0"),
        ("derivative", {"catalog": "ftc-quadratic", "grid_radius": 10 ** 400},
         "scenario.grid_radius"),
    ])
    def test_integer_too_large_for_a_float_names_its_field(
            self, capsys, tmp_path, command, scenario, field):
        err = self.run_named_error(capsys, tmp_path, command, scenario)
        assert err == (f"gaugeprob: error: {field}: "
                       "int too large to convert to float\n")

    def test_malformed_json_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"domain\": [0, 1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "integrate-prob", "--scenario",
                                 str(path))
        assert code == 1
        assert "line" in err

    def test_unknown_field_named(self, capsys, tmp_path):
        path = self.write(tmp_path, {"catalog": "linear-coeff", "bogus": 1})
        code, out, err = run_cli(capsys, "integrate-prob", "--scenario", path)
        assert code == 1
        assert "bogus" in err

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "integrate-prob", "--scenario",
                                 "/nonexistent/path.json")
        assert code == 1

    def test_fubini_violation_scenario_exits_2(self, capsys, tmp_path):
        scenario = {
            "catalog": "linear-coeff",
            "dominator": {"values": [2.0, 0.5]},
        }
        code, report = run_json(
            capsys, "fubini", "--scenario", self.write(tmp_path, scenario))
        assert code == 2
        assert report["result"]["hypothesis_ok"] is False
        assert report["result"]["violating_outcomes"] == [1]

    @pytest.mark.parametrize("command", [
        "integrate-prob", "uniqueness", "riemann-prob", "convergence-table"])
    def test_non_finite_value_names_its_place_alone(self, capsys, tmp_path,
                                                    command):
        scenario = {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "function": {"form": "separable",
                         "terms": [{"values": [1.0, 1.7e308],
                                    "basis": "trig-mix"}]},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "--scenario",
                                     self.write(tmp_path, scenario))
        assert code == 1
        assert out == ""
        assert err == ("gaugeprob: error: random function returned a "
                       "non-finite value at tag 0.25, outcome 1\n")
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", [
        "integrate-prob", "uniqueness", "riemann-prob", "convergence-table"])
    def test_overflowing_sum_names_its_outcome_alone(self, capsys, tmp_path,
                                                     command):
        scenario = {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "domain": [0.0, 10.0],
            "function": {"form": "separable",
                         "terms": [{"values": [1.0, 1e308],
                                    "basis": "constant"}]},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, command, "--scenario",
                                     self.write(tmp_path, scenario))
        assert code == 1
        assert out == ""
        assert err == ("gaugeprob: error: Riemann sum of the random function "
                       "is not finite at outcome 1\n")
        assert [str(w.message) for w in caught] == []

    def test_gauge_override_by_id(self, capsys, tmp_path):
        scenario = {"catalog": "monomial2", "gauge": "uniform-2/3"}
        code, report = run_json(
            capsys, "integrate", "--scenario", self.write(tmp_path, scenario),
            "--tol", "1e-8")
        assert code == 0
        assert report["parameters"]["gauge"] == "uniform-2/3"

    def test_strategies_override(self, capsys, tmp_path):
        scenario = {"catalog": "linear-coeff",
                    "strategies": ["uniform", "uniform-2/3"]}
        code, report = run_json(
            capsys, "uniqueness", "--scenario", self.write(tmp_path, scenario))
        assert code == 0


class TestOutputHandling:
    def test_out_file_and_csv(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(
            capsys, "convergence-table", "--catalog", "monomial2",
            "--levels", "4", "--format", "csv", "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS["convergence-table"])
        assert len(lines) == 6

    def test_csv_floats_round_trip(self, capsys, tmp_path):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        for fmt, path in (("json", out_json), ("csv", out_csv)):
            code, _, _ = run_cli(
                capsys, "integrate", "--catalog", "trig-mix",
                "--tol", "1e-9", "--format", fmt, "--out", str(path))
            assert code == 0
        value_json = json.loads(out_json.read_text())["result"]["value"]
        header, row = out_csv.read_text().strip().splitlines()
        value_csv = float(row.split(",")[0])
        assert value_csv == value_json

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0

    def test_schema_fields_present(self, capsys):
        _, report = run_json(capsys, "integrate", "--catalog", "constant")
        assert report["schema"] == REPORT_SCHEMA
        assert set(report) == {"schema", "command", "source", "seed",
                               "parameters", "status", "generated_at",
                               "result"}


class TestSchemaValidation:
    def test_validate_report_catches_missing_result_key(self):
        bad = {
            "schema": REPORT_SCHEMA, "command": "integrate", "source": {},
            "seed": 0, "parameters": {}, "status": "pass",
            "generated_at": "now", "result": {"value": 1.0},
        }
        with pytest.raises(ScenarioError) as err:
            validate_report(bad)
        assert "refinement_levels" in str(err.value)

    def test_validate_report_checks_schema_id(self):
        with pytest.raises(ScenarioError):
            validate_report({"schema": "other/9"})

    def test_scenario_rejects_bad_domain(self):
        with pytest.raises(ScenarioError):
            load_scenario_text('{"domain": [0]}')

    def test_scenario_rejects_bad_types(self):
        with pytest.raises(ScenarioError):
            load_scenario_text('{"eps": "big"}')
        with pytest.raises(ScenarioError):
            load_scenario_text('{"levels": 3.5}')
