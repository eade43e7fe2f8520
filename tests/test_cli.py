import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gaugeprob import DiscreteProbabilitySpace, cli
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

    @pytest.mark.parametrize("command, scenario, detail", [
        ("integrate-prob", {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "function": {"form": "separable", "terms": [
                {"values": [1.0, 2.0], "basis": ["linear"]}]}},
         "unknown integrand ['linear']; known: "),
        ("integrate-prob", {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "function": {"form": "separable", "terms": [
                {"values": [1.0, 2.0], "basis": {"id": "linear"}}]}},
         "unknown integrand {'id': 'linear'}; known: "),
        ("uniqueness", {"catalog": "linear-coeff",
                        "strategies": [["uniform"], "uniform-2/3"]},
         "unknown gauge family ['uniform']; known: "),
        ("integrate", {"catalog": "linear", "gauge": {"constant": [0.5]}},
         "scenario.gauge.constant: expected a number, got [0.5]"),
        ("integrate", {"catalog": "linear", "gauge": {"constant": "x"}},
         "scenario.gauge.constant: expected a number, got 'x'"),
        ("integrate", {"catalog": "linear", "gauge": {"constant": None}},
         "scenario.gauge.constant: expected a number, got None"),
        # JSON true and false are not numbers.
        ("integrate", {"catalog": "trig-mix", "gauge": {"constant": True}},
         "scenario.gauge.constant: expected a number, got True\n"),
        ("integrate-prob", {"catalog": "linear-coeff", "eps": True},
         "scenario.eps: expected a number\n"),
        ("integrate-prob", {"catalog": "linear-coeff", "eta": False},
         "scenario.eta: expected a number\n"),
        ("integrate-prob", {"catalog": "linear-coeff", "tol": True},
         "scenario.tol: expected a number\n"),
        ("integrate-prob", {"catalog": "linear-coeff", "levels": True},
         "scenario.levels: expected an integer\n"),
        ("integrate-prob", {"catalog": "linear-coeff",
                            "domain": [False, True]},
         "scenario.domain: expected [lower, upper]\n"),
        ("derivative", {"catalog": "ftc-quadratic", "t0": True},
         "scenario.t0: expected a number\n"),
        ("derivative", {"catalog": "ftc-quadratic", "grid_radius": True},
         "scenario.grid_radius: expected a number\n"),
        ("derivative", {"catalog": "ftc-quadratic", "grid_points": True},
         "scenario.grid_points: expected an integer\n"),
    ])
    def test_wrong_json_type_is_named_alone(self, capsys, tmp_path, command,
                                            scenario, detail):
        err = self.run_named_error(capsys, tmp_path, command, scenario)
        assert err.startswith(f"gaugeprob: error: {detail}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scenario, detail", [
        ({"t0": float("inf")}, "scenario.t0: must be finite, got inf"),
        ({"t0": float("nan")}, "scenario.t0: must be finite, got nan"),
        ({"grid_radius": float("inf")},
         "scenario.grid_radius: must be finite, got inf"),
        ({"grid_radius": float("-inf")},
         "scenario.grid_radius: must be finite, got -inf"),
        ({"grid_radius": 0}, "scenario.grid_radius: must be non-zero"),
        ({"grid_points": 10_001},
         "scenario.grid_points: at most 10000 points, got 10001"),
    ])
    def test_derivative_grid_is_named_alone(self, capsys, tmp_path, scenario,
                                            detail):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run_named_error(
                capsys, tmp_path, "derivative",
                {"catalog": "ftc-quadratic", **scenario})
        assert err == f"gaugeprob: error: {detail}\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("key", ["eps", "eta", "tol"])
    @pytest.mark.parametrize("source", ["flag", "scenario"])
    def test_infinite_tolerance_names_its_field(self, capsys, tmp_path, key,
                                                source):
        # 1e400 is a valid JSON number that parses to inf.
        if source == "flag":
            argv = ["--catalog", "linear-coeff", f"--{key}", "inf"]
        else:
            path = tmp_path / "scenario.json"
            path.write_text(f'{{"catalog": "linear-coeff", "{key}": 1e400}}',
                            encoding="utf-8")
            argv = ["--scenario", str(path)]
        name = f"--{key}" if source == "flag" else f"scenario.{key}"
        code, out, err = run_cli(capsys, "integrate-prob", *argv)
        assert (code, out) == (1, "")
        assert err == f"gaugeprob: error: {name}: must be finite, got inf\n"

    @pytest.mark.parametrize("domain, detail", [
        ("[1, 0]", "interval requires lower < upper, got [1.0, 0.0]"),
        ("[0.5, 0.5]", "interval requires lower < upper, got [0.5, 0.5]"),
        ("[0, 1e400]", "interval endpoints must be finite"),
        ("[0, Infinity]", "interval endpoints must be finite"),
    ])
    @pytest.mark.parametrize("command, catalog_id", [
        ("integrate", "trig-mix"), ("integrate-prob", "linear-coeff")])
    def test_invalid_domain_names_its_field(self, capsys, tmp_path, command,
                                            catalog_id, domain, detail):
        path = tmp_path / "scenario.json"
        path.write_text(f'{{"catalog": "{catalog_id}", "domain": {domain}}}',
                        encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err == f"gaugeprob: error: scenario.domain: {detail}\n"

    @pytest.mark.parametrize("scenario, t0, radius", [
        ({"t0": 1e20}, "1e+20", "0.001"),
        ({"t0": 0.5, "grid_radius": 1e-20}, "0.5", "1e-20"),
    ])
    def test_grid_point_rounding_to_t0_names_both_fields(
            self, capsys, tmp_path, scenario, t0, radius):
        err = self.run_named_error(capsys, tmp_path, "derivative",
                                   {"catalog": "ftc-quadratic", **scenario})
        assert err == ("gaugeprob: error: scenario.t0, scenario.grid_radius: "
                       f"a grid point rounds to t0 = {t0}; grid_radius "
                       f"{radius} is too small for this t0\n")

    def test_huge_grid_is_refused_before_building(self, capsys, tmp_path,
                                                  monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(cli, "_resolve_pair", refuse)
        monkeypatch.setattr(cli, "derivative_in_probability_at", refuse)
        err = self.run_named_error(
            capsys, tmp_path, "derivative",
            {"catalog": "ftc-quadratic", "grid_points": 10 ** 400})
        assert err == ("gaugeprob: error: scenario.grid_points: at most "
                       f"10000 points, got {10 ** 400}\n")

    def test_largest_grid_runs(self, capsys, tmp_path):
        scenario = {"catalog": "ftc-quadratic",
                    "grid_points": cli.MAX_GRID_POINTS}
        code, report = run_json(capsys, "derivative", "--scenario",
                                self.write(tmp_path, scenario))
        assert code == 0
        assert len(report["result"]["rows"]) == cli.MAX_GRID_POINTS

    def test_overflowing_scalar_sum_is_named_alone(self, capsys, tmp_path):
        scenario = {
            "space": {"outcomes": ["a", "b"], "weights": [0.5, 0.5]},
            "domain": [0.0, 10.0],
            "function": {"form": "separable",
                         "terms": [{"values": [1.0, 1e308],
                                    "basis": "constant"}]},
            "dominator": {"values": [2.0, 1.5e308]},
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.run_named_error(capsys, tmp_path, "fubini", scenario)
        assert err == ("gaugeprob: error: Riemann sum of the integrand is "
                       "not finite\n")
        assert [str(w.message) for w in caught] == []

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


# The parameters block of each command on a catalog id with no flags.
DEFAULT_PARAMETERS = {
    ("integrate", "monomial2"): {
        "integrand": "monomial2", "domain": [0.0, 1.0], "tol": 1e-9,
        "levels": 40, "gauge": "uniform"},
    ("integrate-prob", "linear-coeff"): {
        "domain": [0.0, 1.0], "eps": 1e-3, "eta": 1e-2, "tol": 1e-6,
        "levels": 40, "gauge": "uniform"},
    ("riemann-prob", "linear-coeff"): {
        "domain": [0.0, 1.0], "eps": 1e-3, "eta": 1e-2, "tol": 1e-6,
        "levels": 40, "gauge": "uniform"},
    ("uniqueness", "linear-coeff"): {
        "domain": [0.0, 1.0], "eps": 1e-3, "eta": 1e-2, "tol": 1e-6,
        "levels": 40, "gauge": "uniform+uniform-2/3"},
    ("fubini", "linear-coeff"): {
        "domain": [0.0, 1.0], "tol": 1e-6, "levels": 40,
        "dominator": [1.0, 2.0]},
    ("derivative", "ftc-quadratic"): {
        "domain": [0.0, 1.0], "t0": 0.5, "eps": 1e-2, "eta": 1e-2,
        "grid_radius": 1e-3, "grid_points": 16},
    ("ftc", "ftc-quadratic"): {
        "domain": [0.0, 1.0], "eps": 1e-3, "eta": 1e-2, "tol": 1e-6,
        "levels": 40},
    ("convergence-table", "linear-coeff"): {
        "domain": [0.0, 1.0], "levels": 10, "eps": 1e-3, "eta": 1e-2,
        "gauge": "uniform"},
}


class TestParameters:
    @pytest.mark.parametrize("command, catalog_id", sorted(DEFAULT_PARAMETERS))
    def test_defaults(self, capsys, command, catalog_id):
        code, report = run_json(capsys, command, "--catalog", catalog_id)
        assert code == 0
        expected = DEFAULT_PARAMETERS[command, catalog_id]
        assert report["parameters"] == expected
        assert ([type(report["parameters"][k]) for k in expected]
                == [type(v) for v in expected.values()])

    @pytest.mark.parametrize("key, field, flag", [
        ("eps", 2e-3, 3e-3), ("eta", 2e-2, 3e-2), ("tol", 1e-7, 1e-8),
        ("levels", 12, 13)])
    def test_flag_beats_field_beats_default(self, capsys, tmp_path, key,
                                            field, flag):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"catalog": "linear-coeff", key: field}),
                        encoding="utf-8")
        argv = ["integrate-prob", "--scenario", str(path)]
        _, report = run_json(capsys, *argv)
        assert report["parameters"][key] == field
        _, report = run_json(capsys, *argv, f"--{key}", str(flag))
        assert report["parameters"][key] == flag


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


# The exit contract under malformed scenarios: one small valid scenario per
# command, with one field replaced by a value of the wrong type or range.
_SAMPLED_SPACE = {"sample": {"distribution": "uniform01", "n": 4}}
_TERMS = [{"values": {"sample": {"distribution": "uniform -2|2"}},
           "basis": "linear"},
          {"values": [1.0, 2.0, 3.0, 4.0], "basis": "trig-mix"}]
_FUNCTION = {"form": "separable", "terms": _TERMS}
_PAIR = {"space": _SAMPLED_SPACE,
         "F": {"form": "separable", "terms": [
             {"values": [1.0, 2.0, 3.0, 4.0], "basis": "monomial2"}]},
         "f": {"form": "separable", "terms": [
             {"values": [2.0, 4.0, 6.0, 8.0], "basis": "linear"}]},
         "gauge": {"constant": 0.5}}
FUZZ_SCENARIOS = {
    "integrate": {"catalog": "monomial2", "gauge": {"constant": 0.5}},
    "integrate-prob": {"space": _SAMPLED_SPACE, "function": _FUNCTION,
                       "gauge": {"constant": 0.5}},
    "riemann-prob": {"space": _SAMPLED_SPACE, "function": _FUNCTION},
    "uniqueness": {"space": _SAMPLED_SPACE, "function": _FUNCTION,
                   "strategies": ["uniform", "uniform-2/3"]},
    "fubini": {"space": _SAMPLED_SPACE, "function": _FUNCTION,
               "dominator": {"values": [20.0, 20.0, 20.0, 20.0]}},
    "derivative": {**_PAIR, "t0": 0.5, "grid_radius": 1e-3,
                   "grid_points": 4},
    "ftc": _PAIR,
    "convergence-table": {"space": _SAMPLED_SPACE, "function": _FUNCTION,
                          "gauge": {"constant": 0.5}},
}
TOP_LEVEL_FIELDS = ("schema", "catalog", "space", "function", "domain", "eps",
                    "eta", "tol", "levels", "gauge", "strategies", "dominator",
                    "t0", "grid_radius", "grid_points", "F", "f")
NESTED_FIELDS = (("function", "terms", 0, "basis"),
                 ("function", "terms", 0, "values"),
                 ("function", "terms", 1, "basis"),
                 ("function", "terms", 1, "values"),
                 ("F", "terms", 0, "basis"), ("f", "terms", 0, "values"),
                 ("strategies", 0), ("strategies", 1),
                 ("gauge", "constant"), ("space", "sample", "n"),
                 ("dominator", "values"))
FUZZ_VALUES = ([1], {}, "x", None, True, float("nan"), float("inf"),
               float("-inf"), 10 ** 400, 0, -1)


def _holds(data, path):
    for key in path:
        if isinstance(key, int):
            if not (isinstance(data, list) and key < len(data)):
                return False
        elif not (isinstance(data, dict) and key in data):
            return False
        data = data[key]
    return True


@st.composite
def malformed_scenarios(draw):
    command = draw(st.sampled_from(sorted(FUZZ_SCENARIOS)))
    scenario = copy.deepcopy(FUZZ_SCENARIOS[command])
    paths = [(key,) for key in TOP_LEVEL_FIELDS]
    paths += [path for path in NESTED_FIELDS if _holds(scenario, path)]
    path = draw(st.sampled_from(paths))
    value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    target = scenario
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return command, scenario


@settings(derandomize=True, max_examples=150)
@given(malformed_scenarios())
def test_malformed_scenarios_keep_the_exit_contract(tmp_path_factory, case):
    command, scenario = case
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(path), "--levels", "3"])
    assert code in (0, 1, 2), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("gaugeprob: error: ")
        assert err.getvalue().count("\n") == 1
    else:
        validate_report(json.loads(out.getvalue()))
