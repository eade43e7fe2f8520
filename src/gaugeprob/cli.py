"""Batch command-line surface.

One invocation runs one scenario (from the builtin catalog or a JSON file)
and writes one report.  Exit status contract: 0 when the computation's
claim held (verified/pass), 2 when the computation completed but the claim
did not hold (unverified/fail), 1 on errors of any kind.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import catalog
from .errors import GaugeProbError, ScenarioError
from .gauges import GaugeFamily, Interval, constant_gauge
from .probability import DiscreteProbabilitySpace, RandomVariable
from .quadrature import (
    DEFAULT_MAX_LEVELS,
    kh_integrate,
    kh_levels,
    resolve_gauge_family,
)
from .random_functions import RandomFunction, SeparableRandomFunction
from .sampling import check_distribution, sample_values
from .schemas import (
    COMMANDS,
    build_report,
    is_number,
    load_scenario_text,
    validate_scenario,
    write_report,
)
from .stochastic import (
    DEFAULT_ETA,
    DERIVATIVE_EPS,
    convergence_tails,
    derivative_grid,
    derivative_in_probability_at,
    fubini_check,
    ftc_experiment,
    integrate_pathwise,
    integrate_riemann_in_probability,
    verify_uniqueness,
)

log = logging.getLogger("gaugeprob")

_STATUS_EXIT = {"verified": 0, "pass": 0, "table": 0, "unverified": 2, "fail": 2}

# A sampled space holds one label, weight and coefficient per outcome, so a
# larger n runs out of memory before any work starts.  Fixed, not a setting.
MAX_SAMPLED_OUTCOMES = 10_000_000

# derivative's grid is built point by point, so a larger count runs out of
# memory before any error.  Fixed, not a setting.
MAX_GRID_POINTS = 10_000

# Each command's numeric settings, in the order they are resolved, with
# their defaults.  Every one is reported in the report's parameters block.
_IN_PROBABILITY = {"eps": 1e-3, "eta": DEFAULT_ETA, "tol": 1e-6,
                   "levels": DEFAULT_MAX_LEVELS}
_SETTINGS = {
    "integrate": {"tol": 1e-9, "levels": DEFAULT_MAX_LEVELS},
    "integrate-prob": _IN_PROBABILITY,
    "riemann-prob": _IN_PROBABILITY,
    "uniqueness": _IN_PROBABILITY,
    "fubini": {"tol": _IN_PROBABILITY["tol"], "levels": DEFAULT_MAX_LEVELS},
    "derivative": {"eps": DERIVATIVE_EPS, "eta": DEFAULT_ETA},
    "ftc": _IN_PROBABILITY,
    "convergence-table": {"levels": 10, "eps": _IN_PROBABILITY["eps"],
                          "eta": DEFAULT_ETA},
}


def _configure_logging():
    level_name = os.environ.get("GAUGEPROB_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        try:
            level = int(level_name)
        except ValueError:
            level = logging.WARNING
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeprob",
        description="Gauge integration with convergence-in-probability "
                    "certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--scenario", metavar="PATH",
                         help="scenario JSON file")
        src.add_argument("--catalog", metavar="ID",
                         help="builtin catalog id")
        p.add_argument("--out", metavar="PATH", help="report path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--levels", type=int, default=None)
    return parser


def _load_scenario(args: argparse.Namespace) -> dict:
    if args.catalog is not None:
        return validate_scenario({"catalog": args.catalog})
    path = Path(args.scenario)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"scenario {path}: {exc}") from None
    return load_scenario_text(text, where=f"scenario {path}")


def _float(name: str, value) -> float:
    """A scenario number as a float; a value that is not a number, or an
    integer too large for a float, is an error that names its field."""
    if not is_number(value):
        raise ScenarioError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(f"{name}: {exc}") from None


def _numbers(name: str, values):
    """``values`` unchanged, once no entry of a list is a JSON boolean, which
    NumPy would take as 0 or 1.  Other entries that are not numbers are
    refused where NumPy converts them, in its own words."""
    # The set of entry types is built in C, in a third of the time of a
    # Python loop over the entries; scenario lists hold 10^4 and more.
    if isinstance(values, list) and bool in set(map(type, values)):
        index = list(map(type, values)).index(bool)
        raise ScenarioError(
            f"{name}[{index}]: expected a number, got {values[index]!r}")
    return values


def _finite(name: str, value) -> float:
    value = _float(name, value)
    if not math.isfinite(value):
        raise ScenarioError(f"{name}: must be finite, got {value}")
    return value


def _domain(scenario: dict, default) -> Interval:
    try:
        return Interval.coerce(scenario.get("domain", default))
    except (OverflowError, ValueError) as exc:
        raise ScenarioError(f"scenario.domain: {exc}") from None


def _positive(name: str, value) -> float:
    value = _finite(name, value)
    if not value > 0:
        raise ScenarioError(f"{name}: must be positive, got {value}")
    return value


def _setting(args: argparse.Namespace, scenario: dict, key: str, default):
    """The flag, else the scenario's field, else ``default``; ``levels`` is
    an integer, the others finite and positive."""
    value, name = getattr(args, key), f"--{key}"
    if value is None:
        value, name = scenario.get(key, default), f"scenario.{key}"
    return int(value) if key == "levels" else _positive(name, value)


def _resolve_space(data) -> DiscreteProbabilitySpace:
    if not isinstance(data, dict):
        raise ScenarioError("scenario.space: expected an object")
    if "sample" in data:
        sample = data["sample"]
        if not isinstance(sample, dict):
            raise ScenarioError("scenario.space.sample: expected an object")
        for key in ("distribution", "n"):
            if key not in sample:
                raise ScenarioError(f"scenario.space.sample.{key}: missing")
        try:
            check_distribution(sample["distribution"])
        except ScenarioError as exc:
            raise ScenarioError(
                f"scenario.space.sample.distribution: {exc}") from None
        n = sample["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ScenarioError(
                f"scenario.space.sample.n: expected an integer >= 1, got {n!r}")
        if n > MAX_SAMPLED_OUTCOMES:
            raise ScenarioError(
                f"scenario.space.sample.n: at most {MAX_SAMPLED_OUTCOMES} "
                f"outcomes, got {n}")
        return DiscreteProbabilitySpace.uniform(n)
    for key in ("outcomes", "weights"):
        if key not in data:
            raise ScenarioError(f"scenario.space.{key}: missing")
    _numbers("scenario.space.weights", data["weights"])
    try:
        return DiscreteProbabilitySpace.from_dict(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"scenario.space: {exc}") from None


def _resolve_coefficient(term, index: int, space, seed: int) -> RandomVariable:
    where = f"scenario.function.terms[{index}]"
    if not isinstance(term, dict):
        raise ScenarioError(f"{where}: expected an object")
    if "values" in term:
        values = term["values"]
        if isinstance(values, dict) and "sample" in values:
            sample = values["sample"]
            if not (isinstance(sample, dict) and "distribution" in sample):
                raise ScenarioError(
                    f"{where}.values.sample.distribution: missing")
            try:
                drawn = sample_values(sample["distribution"], space.size,
                                      int(sample.get("seed", seed)) + index)
                return RandomVariable(space=space, values=drawn)
            except (TypeError, ValueError, OverflowError, ScenarioError) as exc:
                raise ScenarioError(f"{where}.values: {exc}") from None
        if not isinstance(values, list):
            raise ScenarioError(f"{where}.values: expected a list or a sample spec")
        _numbers(f"{where}.values", values)
        try:
            return RandomVariable(space=space, values=values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{where}.values: {exc}") from None
    raise ScenarioError(f"{where}.values: missing")


def _resolve_function(scenario: dict, seed: int
                      ) -> tuple[RandomFunction, Interval, catalog.RandomEntry | None]:
    if "catalog" in scenario:
        entry = catalog.random_entry(scenario["catalog"])
        domain = _domain(scenario, entry.domain)
        return entry.function, domain, entry
    if "function" not in scenario:
        raise ScenarioError("scenario.function: missing (and no catalog id)")
    spec = scenario["function"]
    if spec.get("form") != "separable":
        raise ScenarioError(
            "scenario.function.form: only 'separable' functions can be "
            "described in JSON; use a catalog id for pathwise forms"
        )
    if "space" not in scenario:
        raise ScenarioError("scenario.space: required with an explicit function")
    space = _resolve_space(scenario["space"])
    terms = spec.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ScenarioError("scenario.function.terms: expected a nonempty list")
    coefficients = []
    bases = []
    for i, term in enumerate(terms):
        coefficients.append(_resolve_coefficient(term, i, space, seed))
        basis_id = term.get("basis")
        if basis_id is None:
            raise ScenarioError(f"scenario.function.terms[{i}].basis: missing")
        bases.append(catalog.scalar_integrand(basis_id))
    function = SeparableRandomFunction(coefficients=tuple(coefficients),
                                       bases=tuple(bases))
    domain = _domain(scenario, catalog.UNIT)
    return function, domain, None


def _resolve_gauge(scenario: dict, integrand, domain: Interval) -> GaugeFamily:
    """The scenario's ``"gauge"``, else the integrand's own family."""
    if "gauge" not in scenario:
        return resolve_gauge_family(integrand, domain)
    spec = scenario["gauge"]
    if isinstance(spec, str):
        return catalog.gauge_family(spec, domain)
    if isinstance(spec, dict) and "constant" in spec:
        width = _positive("scenario.gauge.constant", spec["constant"])

        def at_level(level: int):
            return constant_gauge(width * 2.0 ** -level)

        return GaugeFamily(name=f"constant({width})", at_level=at_level,
                           nested=True)
    raise ScenarioError("scenario.gauge: expected a family id or {'constant': w}")


# ---------------------------------------------------------------------------
# command handlers: called with the command's settings as keywords; return
# (extra parameters, result, status)


def _run_integrate(args: argparse.Namespace, scenario: dict, tol, levels):
    if "catalog" not in scenario:
        raise ScenarioError("scenario.catalog: the integrate command needs a "
                            "scalar integrand id")
    integrand = catalog.scalar_integrand(scenario["catalog"])
    domain = _domain(scenario, integrand.domain)
    family = _resolve_gauge(scenario, integrand, domain)
    result = kh_integrate(integrand, domain, tol, gauge_family=family,
                          max_levels=levels)
    extra = {"domain": domain, "integrand": integrand.name,
             "gauge": family.name}
    status = "pass" if result.converged else "unverified"
    return extra, asdict(result), status


def _run_integrate_prob(args: argparse.Namespace, scenario: dict, eps, eta,
                        tol, levels):
    function, domain, entry = _resolve_function(scenario, args.seed)
    if args.command == "riemann-prob":
        result = integrate_riemann_in_probability(function, domain, eps, eta,
                                                  tol, max_levels=levels)
        gauge_name = "uniform"
    else:
        family = _resolve_gauge(scenario, function, domain)
        result = integrate_pathwise(function, domain, eps, eta, tol,
                                    gauge_family=family, max_levels=levels)
        gauge_name = family.name
    status = "verified" if result.verified else "unverified"
    return {"domain": domain, "gauge": gauge_name}, result.as_dict(), status


def _run_uniqueness(args: argparse.Namespace, scenario: dict, eps, eta, tol,
                    levels):
    function, domain, entry = _resolve_function(scenario, args.seed)
    if "strategies" in scenario:
        ids = scenario["strategies"]
        if not (isinstance(ids, list) and len(ids) == 2):
            raise ScenarioError("scenario.strategies: expected two gauge ids")
        strategies = tuple(catalog.gauge_family(i, domain) for i in ids)
    elif entry is not None:
        strategies = entry.strategies
    else:
        strategies = (catalog.gauge_family("uniform", domain),
                      catalog.gauge_family("uniform-2/3", domain))
    report = verify_uniqueness(function, domain, strategies, eps, eta, tol,
                               max_levels=levels)
    extra = {"domain": domain, "gauge": "+".join(report.strategy_names)}
    ok = report.conclusive and report.almost_surely_equal
    return extra, report.as_dict(), "pass" if ok else "fail"


def _run_fubini(args: argparse.Namespace, scenario: dict, tol, levels):
    function, domain, entry = _resolve_function(scenario, args.seed)
    if "dominator" in scenario:
        spec = scenario["dominator"]
        if not (isinstance(spec, dict) and "values" in spec):
            raise ScenarioError("scenario.dominator: expected {'values': [...]}")
        values = _numbers("scenario.dominator.values", spec["values"])
        try:
            dominator = RandomVariable(space=function.space, values=values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"scenario.dominator.values: {exc}") from None
    elif entry is not None and entry.dominator is not None:
        dominator = entry.dominator
    else:
        raise ScenarioError("scenario.dominator: missing and the entry ships "
                            "no dominating variable")
    report = fubini_check(function, domain, dominator, tol, max_levels=levels)
    extra = {"domain": domain, "dominator": dominator.values.tolist()}
    return extra, report.as_dict(), "pass" if report.passed else "fail"


def _resolve_pair(scenario: dict, seed: int):
    if "catalog" in scenario:
        entry = catalog.ftc_entry(scenario["catalog"])
        domain = _domain(scenario, entry.domain)
        return (entry.antiderivative, entry.derivative, domain,
                _finite("scenario.t0", scenario.get("t0", entry.t0)))
    if "F" not in scenario or "f" not in scenario:
        raise ScenarioError("scenario.F / scenario.f: both required without "
                            "a catalog id")
    upper, domain, _ = _resolve_function(
        {**scenario, "function": scenario["F"]}, seed)
    lower, _, _ = _resolve_function(
        {**scenario, "function": scenario["f"]}, seed)
    return (upper, lower, domain,
            _finite("scenario.t0", scenario.get("t0", 0.5)))


def _run_derivative(args: argparse.Namespace, scenario: dict, eps, eta):
    radius = _finite("scenario.grid_radius", scenario.get("grid_radius", 1e-3))
    if radius == 0:
        raise ScenarioError("scenario.grid_radius: must be non-zero")
    points = int(scenario.get("grid_points", 16))
    if points > MAX_GRID_POINTS:
        raise ScenarioError(f"scenario.grid_points: at most {MAX_GRID_POINTS} "
                            f"points, got {points}")
    F, f, domain, t0 = _resolve_pair(scenario, args.seed)
    grid = derivative_grid(t0, radius, points)
    if t0 in grid:
        raise ScenarioError(
            f"scenario.t0, scenario.grid_radius: a grid point rounds to t0 = "
            f"{t0!r}; grid_radius {radius!r} is too small for this t0")
    report = derivative_in_probability_at(F, f, t0, eps, eta, grid=grid)
    extra = {"domain": domain, "t0": t0, "grid_radius": radius,
             "grid_points": points}
    return extra, report.as_dict(), "pass" if report.passed else "fail"


def _run_ftc(args: argparse.Namespace, scenario: dict, eps, eta, tol, levels):
    F, f, domain, _ = _resolve_pair(scenario, args.seed)
    report = ftc_experiment(F, f, domain, eps, eta, tol, max_levels=levels)
    status = "pass" if report.integral_verified else "unverified"
    return {"domain": domain}, report.as_dict(), status


def _run_convergence_table(args: argparse.Namespace, scenario: dict, levels,
                           eps, eta):
    identifier = scenario.get("catalog")
    if identifier is not None and identifier in catalog.scalar_ids():
        integrand = catalog.scalar_integrand(identifier)
        domain = _domain(scenario, integrand.domain)
        family = _resolve_gauge(scenario, integrand, domain)
        table = [(level, division.mesh, value, None) for level, division, value
                 in kh_levels(integrand, domain, family, max_levels=levels)]
    else:
        function, domain, entry = _resolve_function(scenario, args.seed)
        tol = _setting(args, scenario, "tol", _IN_PROBABILITY["tol"])
        family = _resolve_gauge(scenario, function, domain)
        table = [(level, mesh, None, tail) for level, mesh, tail
                 in convergence_tails(function, domain, eps, tol,
                                      gauge_family=family, max_levels=levels)]
    rows = [{"level": level, "mesh_bound": mesh, "value": value,
             "worst_tail": tail, "eps": eps, "eta": eta}
            for level, mesh, value, tail in table]
    return {"domain": domain, "gauge": family.name}, {"rows": rows}, "table"


_HANDLERS = {
    "integrate": _run_integrate,
    "integrate-prob": _run_integrate_prob,
    "riemann-prob": _run_integrate_prob,
    "uniqueness": _run_uniqueness,
    "fubini": _run_fubini,
    "derivative": _run_derivative,
    "ftc": _run_ftc,
    "convergence-table": _run_convergence_table,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Execute one parsed invocation; returns (exit status, report dict)."""
    if args.levels is not None and args.levels < 0:
        raise ScenarioError(f"--levels: must be >= 0, got {args.levels}")
    scenario = _load_scenario(args)
    settings = {key: _setting(args, scenario, key, default)
                for key, default in _SETTINGS[args.command].items()}
    extra, payload, status = _HANDLERS[args.command](args, scenario,
                                                     **settings)
    domain = extra.pop("domain")
    parameters = {**settings, "domain": [domain.lower, domain.upper], **extra}
    source = ({"catalog": args.catalog} if args.catalog is not None
              else {"scenario": str(args.scenario)})
    report = build_report(
        command=args.command, source=source, seed=args.seed,
        parameters=parameters, result=payload, status=status,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return _STATUS_EXIT[status], report


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        status, report = run(args)
        if args.out is None:
            write_report(report, sys.stdout, args.format)
        else:
            out_path = Path(args.out)
            with out_path.open("w", encoding="utf-8") as stream:
                write_report(report, stream, args.format)
        return status
    except (GaugeProbError, ValueError, OSError, MemoryError) as exc:
        log.debug("failure detail", exc_info=True)
        what = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"gaugeprob: error: {what}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
