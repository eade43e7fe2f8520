"""The benchmark's three workloads: set-up, timed commands and checks.

Import this module only after ``src`` is on ``sys.path``.  Every timed
command writes one report file; its check reads the file back and compares
it with values computed apart from the program (closed forms, ``fsum``
means) and with properties every correct result has.  A check returns a
list of problems; an empty list means the output is correct.

* ``singular``: catalog entries on the two-point space under
  ``osc-singular``.  Millions of pieces per division and two outcomes, so the
  time is in gauge evaluation, bisection and rebuilt divisions.
* ``sampled-separable``: a seeded rank-2 separable scenario over 10^4
  weighted outcomes.  Divisions stay small; the time is in the dense
  outcomes x tags matrix, the n-outcome ``fsum`` kernels and the reports.
* ``sampled-pathwise``: f(t, w) = cos(a_w t + b_w) over 5 * 10^3 weighted
  outcomes, through the library (the CLI cannot describe pathwise
  functions).  No structure to exploit; every (outcome, tag) cell is
  computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from gaugeprob import catalog, cli, probability, random_functions, schemas
from gaugeprob import stochastic
from gaugeprob.gauges import Interval

import inputs

# The CLI's default tolerance, which the catalog commands below run at.
CLI_TOL = 1e-6
# Coefficient values (1, 2) of every random catalog entry used here.
TWO_POINT_COEFFICIENTS = (1.0, 2.0)

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Operation:
    """One timed command: ``run`` returns an exit status and writes ``out``."""

    label: str
    run: Callable[[], int]
    out: Path
    check: Check


# ---------------------------------------------------------------------------
# property checks shared by the workloads


def _close(label, values, expected, limit) -> list:
    if len(values) != len(expected):
        return [f"{label}: {len(values)} values, expected {len(expected)}"]
    worst = max((abs(v - e) for v, e in zip(values, expected)), default=0.0)
    if not worst <= limit:
        return [f"{label}: off by {worst:.3g} > {limit:.3g}"]
    return []


def _tails(label, tails, two_point: bool) -> list:
    problems = []
    for tail in tails:
        if not 0.0 <= tail <= 1.0:
            problems.append(f"{label}: tail {tail!r} outside [0, 1]")
        elif two_point and 2.0 * tail != round(2.0 * tail):
            problems.append(f"{label}: tail {tail!r} not a multiple of 1/2")
    return problems


def _deviation_rows(label, rows, two_point: bool) -> list:
    """Tails P(|X - Y| >= eps) in [0, 1], not decreasing as eps decreases."""
    problems = _tails(label, [r["deviation_probability"] for r in rows],
                      two_point)
    ordered = sorted(rows, key=lambda r: -r["eps"])
    for hi, lo in zip(ordered, ordered[1:]):
        if lo["deviation_probability"] < hi["deviation_probability"]:
            problems.append(f"{label}: tail falls from eps={hi['eps']} "
                            f"to eps={lo['eps']}")
    return problems


def _flags(label, result: dict, **wanted) -> list:
    return [f"{label}: {key}={result.get(key)!r}, expected {value!r}"
            for key, value in wanted.items() if result.get(key) != value]


def _integration(label, result: dict, expected, tol, two_point) -> list:
    return (_flags(label, result, verified=True, failed_outcomes=[])
            + _close(f"{label} integral", result["integral"], expected,
                     10 * tol)
            + _tails(f"{label} certificate",
                     [r["achieved_tail"] for r in result["certificate"]],
                     two_point))


def _uniqueness(label, result: dict, expected, tol, two_point) -> list:
    return (_flags(label, result, conclusive=True, almost_surely_equal=True,
                   verified=[True, True])
            + _close(f"{label} integral_1", result["integral_1"], expected,
                     10 * tol)
            + _close(f"{label} integral_2", result["integral_2"], expected,
                     10 * tol)
            + _deviation_rows(label, result["deviation_rows"], two_point))


def _fubini(label, result: dict, mean, tol) -> list:
    problems = _flags(label, result, hypothesis_ok=True, passed=True,
                      bound_ok=True, lhs_converged=True, rhs_verified=True)
    for side in ("lhs", "rhs"):
        value = result.get(side)
        if value is None or not abs(value - mean) <= 20 * tol:
            problems.append(f"{label}: {side}={value!r} not within "
                            f"{20 * tol:.3g} of the mean {mean!r}")
    return problems


def _report_check(status: str, check: Callable[[dict], list]) -> Check:
    def run(report: dict) -> list:
        problems = []
        if report.get("status") != status:
            problems.append(f"status {report.get('status')!r}, "
                            f"expected {status!r}")
        return problems + check(report["result"])
    return run


# ---------------------------------------------------------------------------
# workloads


def _cli_operation(label: str, argv: list, out: Path, check: Check):
    full = argv + ["--out", str(out)]
    return Operation(label=label, run=lambda: cli.main(full), out=out,
                     check=check)


def singular(seed: int, work: Path) -> list[Operation]:
    """Catalog commands on the two-point space; the seed does not enter."""
    sin1 = inputs.OSC_DERIVATIVE_INTEGRAL
    expected = [c * sin1 for c in TWO_POINT_COEFFICIENTS]

    def integrate(result):
        return (_flags("integrate", result, converged=True)
                + _close("integrate value", [result["value"]], [sin1],
                         10 * CLI_TOL))

    def table(result):
        rows = result["rows"]
        problems = _tails("table", [r["worst_tail"] for r in rows], True)
        if [r["level"] for r in rows] != [0, 1, 2]:
            problems.append(f"table: levels {[r['level'] for r in rows]}")
        if not all(r["mesh_bound"] > 0 for r in rows):
            problems.append("table: nonpositive mesh bound")
        return problems

    def ftc(result):
        return (_flags("ftc", result, integral_verified=True,
                       almost_surely_equal=True)
                + _close("ftc integral", result["integral_values"], expected,
                         10 * CLI_TOL)
                + _close("ftc increment", result["increment_values"],
                         expected, 10 * CLI_TOL)
                + _deviation_rows("ftc", result["deviation_rows"], True)
                + _tails("ftc derivative",
                         [p["worst_tail"] for p in result["derivative_points"]],
                         True))

    return [
        _cli_operation(
            "integrate", ["integrate", "--catalog", "osc-derivative",
                          "--tol", "1e-6"],
            work / "integrate.json", _report_check("pass", integrate)),
        _cli_operation(
            "integrate-prob", ["integrate-prob", "--catalog", "osc-coeff"],
            work / "integrate-prob.json",
            _report_check("verified", lambda r: _integration(
                "integrate-prob", r, expected, CLI_TOL, True))),
        _cli_operation(
            "convergence-table", ["convergence-table", "--catalog",
                                  "osc-coeff", "--levels", "2"],
            work / "convergence-table.json", _report_check("table", table)),
        _cli_operation(
            "ftc", ["ftc", "--catalog", "ftc-singular"],
            work / "ftc.json", _report_check("pass", ftc)),
    ]


def _load(paths) -> tuple[dict, dict, dict]:
    return tuple(json.loads(Path(paths[key]).read_text(encoding="utf-8"))
                 for key in ("scenario", "arrays", "expected"))


def sampled_separable(seed: int, work: Path) -> list[Operation]:
    paths = inputs.write_inputs("sampled-separable", seed, work)
    scenario, _, expected = _load(paths)
    # Reject a malformed scenario in set-up rather than in every command.
    schemas.load_scenario_text(paths["scenario"].read_text(encoding="utf-8"))
    tol = scenario["tol"]
    integral, mean = expected["integral"], expected["mean"]
    source = ["--scenario", str(paths["scenario"])]
    return [
        _cli_operation(
            "integrate-prob", ["integrate-prob", *source],
            work / "integrate-prob.json",
            _report_check("verified", lambda r: _integration(
                "integrate-prob", r, integral, tol, False))),
        _cli_operation(
            "uniqueness", ["uniqueness", *source], work / "uniqueness.json",
            _report_check("pass", lambda r: _uniqueness(
                "uniqueness", r, integral, tol, False))),
        _cli_operation(
            "fubini", ["fubini", *source], work / "fubini.json",
            _report_check("pass", lambda r: _fubini("fubini", r, mean, tol))),
    ]


def sampled_pathwise(seed: int, work: Path) -> list[Operation]:
    """Library calls shaped like the CLI's: each command loads the scenario,
    builds the space and the function, runs, and writes a JSON report."""
    paths = inputs.write_inputs("sampled-pathwise", seed, work)
    _, arrays, expected = _load(paths)
    a = np.array(arrays["a"])
    b = np.array(arrays["b"])
    integral, mean = expected["integral"], expected["mean"]

    def evaluate(t: float, outcome: int) -> float:
        return math.cos(a[outcome] * t + b[outcome])

    def matrix_evaluate(ts: np.ndarray) -> np.ndarray:
        return np.cos(np.multiply.outer(a, ts) + b[:, None])

    def command(name: str, out: Path) -> int:
        text = paths["scenario"].read_text(encoding="utf-8")
        scenario = schemas.load_scenario_text(text)
        space = probability.DiscreteProbabilitySpace.from_dict(
            scenario["space"])
        f = random_functions.PathwiseRandomFunction(
            space=space, evaluate=evaluate, matrix_evaluate=matrix_evaluate)
        domain = Interval.coerce(scenario["domain"])
        eps, eta, tol = scenario["eps"], scenario["eta"], scenario["tol"]
        parameters = {"domain": list(scenario["domain"]), "eps": eps,
                      "eta": eta, "tol": tol}
        if name == "integrate-prob":
            res = stochastic.integrate_pathwise(f, domain, eps, eta, tol)
            status = "verified" if res.verified else "unverified"
        elif name == "uniqueness":
            strategies = tuple(catalog.gauge_family(i, domain)
                               for i in scenario["strategies"])
            res = stochastic.verify_uniqueness(f, domain, strategies, eps,
                                               eta, tol)
            ok = res.conclusive and res.almost_surely_equal
            status = "pass" if ok else "fail"
        else:
            dominator = probability.RandomVariable(
                space=space, values=scenario["dominator"]["values"])
            res = stochastic.fubini_check(f, domain, dominator, tol)
            status = "pass" if res.passed else "fail"
        report = schemas.build_report(
            command=name, source={"scenario": str(paths["scenario"])},
            seed=seed, parameters=parameters, result=res.as_dict(),
            status=status,
            generated_at=datetime.now(timezone.utc).isoformat(
                timespec="seconds"))
        with out.open("w", encoding="utf-8") as stream:
            schemas.write_report(report, stream, "json")
        return 0 if status in ("verified", "pass") else 2

    def operation(name, status, check):
        out = work / f"{name}.json"
        return Operation(label=name, run=lambda: command(name, out), out=out,
                         check=_report_check(status, check))

    tol = inputs.PARAMETERS["tol"]
    return [
        operation("integrate-prob", "verified", lambda r: _integration(
            "integrate-prob", r, integral, tol, False)),
        operation("uniqueness", "pass", lambda r: _uniqueness(
            "uniqueness", r, integral, tol, False)),
        operation("fubini", "pass", lambda r: _fubini("fubini", r, mean, tol)),
    ]


WORKLOADS = {
    "singular": singular,
    "sampled-separable": sampled_separable,
    "sampled-pathwise": sampled_pathwise,
}


def warm_up() -> None:
    """Once-per-process work the first command would otherwise pay."""
    catalog.scalar_ids()
    catalog.random_ids()
    catalog.ftc_ids()
    for name in catalog.gauge_family_ids():
        catalog.gauge_family(name, catalog.UNIT)
    np.ones((64, 64)) @ np.ones(64)
