import pytest

from gaugeprob.errors import ScenarioError
from gaugeprob.schemas import (
    COMMANDS,
    CSV_COLUMNS,
    REPORT_SCHEMA,
    build_report,
    fmt_value,
    report_to_csv,
    report_to_json,
    validate_report,
)

_SAMPLE_RESULTS = {
    "integrate": {"value": 1.0 / 3.0, "refinement_levels": 13,
                  "final_mesh_bound": 6.1e-05, "converged": True},
    "integrate-prob": {"method": "pathwise", "verified": True,
                       "levels_used": 4, "failed_outcomes": [],
                       "integral": [0.5, 1.0],
                       "certificate": [{"eps": 1e-3, "eta": 1e-2,
                                        "achieved_tail": 0.0,
                                        "mesh_bound": 0.125}]},
    "uniqueness": {"strategies": ["a", "b"], "verified": [True, True],
                   "conclusive": True, "almost_surely_equal": True,
                   "equal_tolerance": 1e-5,
                   "deviation_rows": [{"eps": 1e-3,
                                       "deviation_probability": 0.0}],
                   "integral_1": [0.5], "integral_2": [0.5]},
    "fubini": {"hypothesis_ok": True, "violation_t": None,
               "violating_outcomes": [], "lhs": 0.75, "rhs": 0.75,
               "abs_difference": 0.0, "tolerance": 2e-5, "passed": True,
               "bound_ok": True, "bound_margin": -0.5,
               "dominator_moment": 1.5, "grid_points": 265,
               "lhs_converged": True, "rhs_verified": True},
    "derivative": {"t0": 0.5, "eps": 1e-2, "eta": 1e-2,
                   "rows": [{"t": 0.499, "tail": 0.0}], "passed": True,
                   "worst_tail": 0.0, "worst_t": 0.499},
    "ftc": {"exploratory": True, "derivative_points": [],
            "derivative_all_passed": True, "integral_verified": True,
            "almost_surely_equal": True, "equal_tolerance": 1e-5,
            "deviation_rows": [{"eps": 1e-3, "deviation_probability": 0.0}],
            "integral_values": [1.0], "increment_values": [1.0]},
    "convergence-table": {"rows": [{"level": 0, "mesh_bound": 0.5,
                                    "value": 0.3125, "worst_tail": None,
                                    "eps": 1e-3, "eta": 1e-2},
                                   {"level": 1, "mesh_bound": 0.25,
                                    "value": 0.328125, "worst_tail": None,
                                    "eps": 1e-3, "eta": 1e-2}]},
}
_SAMPLE_RESULTS["riemann-prob"] = dict(_SAMPLE_RESULTS["integrate-prob"],
                                       method="riemann")


def _sample_report(command):
    return build_report(command=command, source={"catalog": "x"}, seed=0,
                        parameters={"tol": 1e-6}, result=_SAMPLE_RESULTS[command],
                        status="pass", generated_at="2026-01-01T00:00:00+00:00")


# The sample rows that each command's CSV holds, in order.
_CSV_SOURCE_ROWS = {
    "integrate": lambda result: [result],
    "integrate-prob": lambda result: result["certificate"],
    "riemann-prob": lambda result: result["certificate"],
    "uniqueness": lambda result: result["deviation_rows"],
    "fubini": lambda result: [result],
    "derivative": lambda result: result["rows"],
    "ftc": lambda result: result["deviation_rows"],
    "convergence-table": lambda result: result["rows"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_csv_layout_and_validates(command):
    report = _sample_report(command)
    validate_report(report)
    csv_text = report_to_csv(report)
    header, *rows = csv_text.strip().splitlines()
    columns = CSV_COLUMNS[command]
    assert header == ",".join(columns)
    expected = _CSV_SOURCE_ROWS[command](_SAMPLE_RESULTS[command])
    assert rows and len(rows) == len(expected), command
    for row, source in zip(rows, expected):
        assert row.split(",") == [fmt_value(source[c]) for c in columns]


def test_fmt_value_round_trips_17_digits():
    for x in (1.0 / 3.0, 6.103515625e-05, 0.8414709848078965, -1e-300):
        assert float(fmt_value(x)) == x
    assert fmt_value(True) == "true"
    assert fmt_value(None) == ""
    assert fmt_value(13) == "13"


def test_json_round_trip():
    import json
    report = _sample_report("integrate")
    again = json.loads(report_to_json(report))
    assert again == report
    assert again["schema"] == REPORT_SCHEMA


def test_validate_report_rejects_bad_status():
    report = _sample_report("integrate")
    report["status"] = "maybe"
    with pytest.raises(ScenarioError):
        validate_report(report)
