"""Report and scenario schemas: validation plus JSON/CSV serialization.

Schema ids are versioned strings; bumping the suffix is a breaking change.
CSV columns are part of the contract: fixed order, floats at 17 significant
digits so every value round-trips exactly.
"""

from __future__ import annotations

import json
from typing import IO

from .errors import ScenarioError

SCENARIO_SCHEMA = "gaugeprob.scenario/1"
REPORT_SCHEMA = "gaugeprob.report/1"

COMMANDS = (
    "integrate",
    "integrate-prob",
    "riemann-prob",
    "uniqueness",
    "fubini",
    "derivative",
    "ftc",
    "convergence-table",
)

# Keys every result payload must carry, per command.
_RESULT_KEYS = {
    "integrate": ("value", "refinement_levels", "final_mesh_bound", "converged"),
    "integrate-prob": ("method", "verified", "levels_used", "integral",
                       "certificate"),
    "riemann-prob": ("method", "verified", "levels_used", "integral",
                     "certificate"),
    "uniqueness": ("strategies", "conclusive", "almost_surely_equal",
                   "deviation_rows"),
    "fubini": ("hypothesis_ok", "lhs", "rhs", "abs_difference", "passed",
               "bound_ok"),
    "derivative": ("t0", "eps", "eta", "rows", "passed", "worst_tail"),
    "ftc": ("exploratory", "derivative_points", "almost_surely_equal",
            "deviation_rows", "integral_values", "increment_values"),
    "convergence-table": ("rows",),
}

CSV_COLUMNS = {
    "integrate": ("value", "refinement_levels", "final_mesh_bound", "converged"),
    "integrate-prob": ("eps", "eta", "achieved_tail", "mesh_bound"),
    "riemann-prob": ("eps", "eta", "achieved_tail", "mesh_bound"),
    "uniqueness": ("eps", "deviation_probability"),
    "fubini": ("lhs", "rhs", "abs_difference", "tolerance", "passed",
               "bound_ok"),
    "derivative": ("t", "tail"),
    "ftc": ("eps", "deviation_probability"),
    "convergence-table": ("level", "mesh_bound", "value", "worst_tail",
                          "eps", "eta"),
}

# The result list that each command's CSV rows come from; None means one row,
# the result itself.
_CSV_ROWS = {
    "integrate": None,
    "integrate-prob": "certificate",
    "riemann-prob": "certificate",
    "uniqueness": "deviation_rows",
    "fubini": None,
    "derivative": "rows",
    "ftc": "deviation_rows",
    "convergence-table": "rows",
}


def fmt_value(value) -> str:
    """CSV cell format: floats at 17 significant digits, rest as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def build_report(command: str, source: dict, seed: int, parameters: dict,
                 result: dict, status: str, generated_at: str) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "source": source,
        "seed": seed,
        "parameters": parameters,
        "status": status,
        "generated_at": generated_at,
        "result": result,
    }


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def validate_report(report: dict) -> None:
    """Structural check of an emitted report; raises naming the bad field."""
    if not isinstance(report, dict):
        raise ScenarioError("report: expected a JSON object")
    schema = _require(report, "schema", "report")
    if schema != REPORT_SCHEMA:
        raise ScenarioError(f"report.schema: expected {REPORT_SCHEMA!r}, "
                            f"got {schema!r}")
    command = _require(report, "command", "report")
    if command not in COMMANDS:
        raise ScenarioError(f"report.command: unknown command {command!r}")
    for key in ("source", "seed", "parameters", "status", "generated_at",
                "result"):
        _require(report, key, "report")
    if not isinstance(report["result"], dict):
        raise ScenarioError("report.result: expected an object")
    if not isinstance(report["parameters"], dict):
        raise ScenarioError("report.parameters: expected an object")
    if report["status"] not in ("verified", "pass", "unverified", "fail",
                                "table"):
        raise ScenarioError(f"report.status: bad value {report['status']!r}")
    for key in _RESULT_KEYS[command]:
        if key not in report["result"]:
            raise ScenarioError(f"report.result.{key}: missing for "
                                f"command {command!r}")


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _csv_rows(command: str, result: dict):
    source = _CSV_ROWS[command]
    rows = [result] if source is None else result[source]
    return [[row[c] for c in CSV_COLUMNS[command]] for row in rows]


def report_to_csv(report: dict) -> str:
    command = report["command"]
    columns = CSV_COLUMNS[command]
    lines = [",".join(columns)]
    for row in _csv_rows(command, report["result"]):
        lines.append(",".join(fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_report(report: dict, stream: IO[str], fmt: str) -> None:
    if fmt == "json":
        stream.write(report_to_json(report))
    elif fmt == "csv":
        stream.write(report_to_csv(report))
    else:
        raise ScenarioError(f"format: expected 'json' or 'csv', got {fmt!r}")


# ---------------------------------------------------------------------------
# scenario validation


def is_number(value) -> bool:
    """An int or a float, not a bool: JSON ``true`` parses to ``True``, which
    Python counts as the integer 1."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_scenario(data: dict) -> dict:
    """Shallow structural validation; field semantics are checked on use."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")
    schema = data.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"scenario.schema: expected {SCENARIO_SCHEMA!r}, "
                            f"got {schema!r}")
    known = {
        "schema", "catalog", "space", "function", "domain", "eps", "eta",
        "tol", "levels", "gauge", "strategies", "dominator", "t0",
        "grid_radius", "grid_points", "F", "f",
    }
    for key in data:
        if key not in known:
            raise ScenarioError(f"scenario.{key}: unknown field")
    if "domain" in data:
        dom = data["domain"]
        if (not isinstance(dom, (list, tuple)) or len(dom) != 2
                or not all(is_number(x) for x in dom)):
            raise ScenarioError("scenario.domain: expected [lower, upper]")
    for key in ("eps", "eta", "tol", "t0", "grid_radius"):
        if key in data and not is_number(data[key]):
            raise ScenarioError(f"scenario.{key}: expected a number")
    for key in ("levels", "grid_points"):
        if key in data and not (is_number(data[key])
                                and isinstance(data[key], int)):
            raise ScenarioError(f"scenario.{key}: expected an integer")
    for key, floor in (("levels", 0), ("grid_points", 2)):
        if data.get(key, floor) < floor:
            raise ScenarioError(
                f"scenario.{key}: must be >= {floor}, got {data[key]}")
    for key in ("space", "function", "dominator", "F", "f"):
        if key in data and not isinstance(data[key], dict):
            raise ScenarioError(f"scenario.{key}: expected an object")
    if "catalog" in data and not isinstance(data["catalog"], str):
        raise ScenarioError("scenario.catalog: expected a string id")
    if "strategies" in data and not isinstance(data["strategies"], list):
        raise ScenarioError("scenario.strategies: expected a list")
    if "gauge" in data and not isinstance(data["gauge"], (str, dict)):
        raise ScenarioError("scenario.gauge: expected an id or an object")
    return data


def load_scenario_text(text: str, where: str = "scenario") -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{where}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from None
    return validate_scenario(data)
