"""Batch command-line surface.

One invocation runs one scenario (from the builtin catalog or a JSON file)
and writes one report.  Exit status contract: 0 when the computation's
claim held (verified/pass), 2 when the computation completed but the claim
did not hold (unverified/fail), 1 on errors of any kind.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import catalog
from .errors import GaugeProbError, ScenarioError
from .gauges import GaugeFamily, Interval, constant_gauge
from .probability import DiscreteProbabilitySpace, RandomVariable
from .quadrature import kh_integrate, kh_levels, resolve_gauge_family
from .random_functions import RandomFunction, SeparableRandomFunction
from .sampling import check_distribution, sample_values
from .schemas import (
    COMMANDS,
    build_report,
    load_scenario_text,
    validate_scenario,
    write_report,
)
from .stochastic import (
    convergence_tails,
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

_DEFAULTS = {
    "eps": 1e-3,
    "eta": 1e-2,
    "tol": 1e-6,
    "scalar_tol": 1e-9,
    "levels": 40,
    "table_levels": 10,
    "derivative_eps": 1e-2,
}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, scenario source, output, overrides."""

    command: str
    catalog: str | None
    scenario: str | None
    out: str | None
    format: str
    seed: int
    eps: float | None
    eta: float | None
    tol: float | None
    levels: int | None


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


def _load_scenario(config: RunConfig) -> dict:
    if config.catalog is not None:
        return validate_scenario({"catalog": config.catalog})
    path = Path(config.scenario)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"scenario {path}: {exc}") from None
    return load_scenario_text(text, where=f"scenario {path}")


def _float(name: str, value) -> float:
    """A scenario number as a float; an integer too large for one is an
    error that names its field."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(f"{name}: {exc}") from None


def _domain(scenario: dict, default) -> Interval:
    try:
        return Interval.coerce(scenario.get("domain", default))
    except OverflowError as exc:
        raise ScenarioError(f"scenario.domain: {exc}") from None


def _positive(name: str, value) -> float:
    value = _float(name, value)
    if not value > 0:
        raise ScenarioError(f"{name}: must be positive, got {value}")
    return value


def _number(config: RunConfig, scenario: dict, key: str, default=None):
    """The flag, else the scenario's value, else ``_DEFAULTS[default or
    key]``; ``levels`` is an integer, the others must be positive."""
    value, name = getattr(config, key), f"--{key}"
    if value is None:
        value, name = (scenario.get(key, _DEFAULTS[default or key]),
                       f"scenario.{key}")
    return int(value) if key == "levels" else _positive(name, value)


def _resolve_space(data, seed: int) -> DiscreteProbabilitySpace:
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
    space = _resolve_space(scenario["space"], seed)
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

        return GaugeFamily(name=f"constant({width})", at_level=at_level)
    raise ScenarioError("scenario.gauge: expected a family id or {'constant': w}")


# ---------------------------------------------------------------------------
# command handlers: return (parameters, result, status)


def _run_integrate(config: RunConfig, scenario: dict):
    if "catalog" not in scenario:
        raise ScenarioError("scenario.catalog: the integrate command needs a "
                            "scalar integrand id")
    integrand = catalog.scalar_integrand(scenario["catalog"])
    domain = _domain(scenario, integrand.domain)
    tol = _number(config, scenario, "tol", "scalar_tol")
    levels = _number(config, scenario, "levels")
    family = _resolve_gauge(scenario, integrand, domain)
    result = kh_integrate(integrand, domain, tol, gauge_family=family,
                          max_levels=levels)
    parameters = {
        "integrand": integrand.name,
        "domain": [domain.lower, domain.upper],
        "tol": tol,
        "levels": levels,
        "gauge": family.name,
    }
    payload = {
        "value": result.value,
        "refinement_levels": result.refinement_levels,
        "final_mesh_bound": result.final_mesh_bound,
        "converged": result.converged,
    }
    return parameters, payload, "pass" if result.converged else "unverified"


def _stochastic_parameters(domain, eps, eta, tol, levels, gauge_name):
    return {
        "domain": [domain.lower, domain.upper],
        "eps": eps, "eta": eta, "tol": tol, "levels": levels,
        "gauge": gauge_name,
    }


def _run_integrate_prob(config: RunConfig, scenario: dict, riemann=False):
    function, domain, entry = _resolve_function(scenario, config.seed)
    eps = _number(config, scenario, "eps")
    eta = _number(config, scenario, "eta")
    tol = _number(config, scenario, "tol")
    levels = _number(config, scenario, "levels")
    if riemann:
        result = integrate_riemann_in_probability(function, domain, eps, eta,
                                                  tol, max_levels=levels)
        gauge_name = "uniform"
    else:
        family = _resolve_gauge(scenario, function, domain)
        result = integrate_pathwise(function, domain, eps, eta, tol,
                                    gauge_family=family, max_levels=levels)
        gauge_name = family.name
    parameters = _stochastic_parameters(domain, eps, eta, tol, levels,
                                        gauge_name)
    status = "verified" if result.verified else "unverified"
    return parameters, result.as_dict(), status


def _run_uniqueness(config: RunConfig, scenario: dict):
    function, domain, entry = _resolve_function(scenario, config.seed)
    eps = _number(config, scenario, "eps")
    eta = _number(config, scenario, "eta")
    tol = _number(config, scenario, "tol")
    levels = _number(config, scenario, "levels")
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
    parameters = _stochastic_parameters(domain, eps, eta, tol, levels,
                                        "+".join(report.strategy_names))
    ok = report.conclusive and report.almost_surely_equal
    return parameters, report.as_dict(), "pass" if ok else "fail"


def _run_fubini(config: RunConfig, scenario: dict):
    function, domain, entry = _resolve_function(scenario, config.seed)
    tol = _number(config, scenario, "tol")
    if "dominator" in scenario:
        spec = scenario["dominator"]
        if not (isinstance(spec, dict) and "values" in spec):
            raise ScenarioError("scenario.dominator: expected {'values': [...]}")
        try:
            dominator = RandomVariable(space=function.space,
                                       values=spec["values"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"scenario.dominator.values: {exc}") from None
    elif entry is not None and entry.dominator is not None:
        dominator = entry.dominator
    else:
        raise ScenarioError("scenario.dominator: missing and the entry ships "
                            "no dominating variable")
    levels = _number(config, scenario, "levels")
    report = fubini_check(function, domain, dominator, tol, max_levels=levels)
    parameters = {
        "domain": [domain.lower, domain.upper],
        "tol": tol,
        "levels": levels,
        "dominator": dominator.values.tolist(),
    }
    return parameters, report.as_dict(), "pass" if report.passed else "fail"


def _resolve_pair(scenario: dict, seed: int):
    if "catalog" in scenario:
        entry = catalog.ftc_entry(scenario["catalog"])
        domain = _domain(scenario, entry.domain)
        return (entry.antiderivative, entry.derivative, domain,
                _float("scenario.t0", scenario.get("t0", entry.t0)))
    if "F" not in scenario or "f" not in scenario:
        raise ScenarioError("scenario.F / scenario.f: both required without "
                            "a catalog id")
    upper, domain, _ = _resolve_function(
        {**scenario, "function": scenario["F"]}, seed)
    lower, _, _ = _resolve_function(
        {**scenario, "function": scenario["f"]}, seed)
    return (upper, lower, domain,
            _float("scenario.t0", scenario.get("t0", 0.5)))


def _run_derivative(config: RunConfig, scenario: dict):
    F, f, domain, t0 = _resolve_pair(scenario, config.seed)
    eps = _number(config, scenario, "eps", "derivative_eps")
    eta = _number(config, scenario, "eta")
    radius = _float("scenario.grid_radius", scenario.get("grid_radius", 1e-3))
    points = int(scenario.get("grid_points", 16))
    report = derivative_in_probability_at(F, f, t0, eps, eta,
                                          radius=radius, points=points)
    parameters = {
        "domain": [domain.lower, domain.upper],
        "t0": t0, "eps": eps, "eta": eta,
        "grid_radius": radius, "grid_points": points,
    }
    return parameters, report.as_dict(), "pass" if report.passed else "fail"


def _run_ftc(config: RunConfig, scenario: dict):
    F, f, domain, _ = _resolve_pair(scenario, config.seed)
    eps = _number(config, scenario, "eps")
    eta = _number(config, scenario, "eta")
    tol = _number(config, scenario, "tol")
    levels = _number(config, scenario, "levels")
    report = ftc_experiment(F, f, domain, eps, eta, tol, max_levels=levels)
    parameters = {
        "domain": [domain.lower, domain.upper],
        "eps": eps, "eta": eta, "tol": tol, "levels": levels,
    }
    status = "pass" if report.integral_verified else "unverified"
    return parameters, report.as_dict(), status


def _run_convergence_table(config: RunConfig, scenario: dict):
    levels = _number(config, scenario, "levels", "table_levels")
    eps = _number(config, scenario, "eps")
    eta = _number(config, scenario, "eta")
    identifier = scenario.get("catalog")
    if identifier is not None and identifier in catalog.scalar_ids():
        integrand = catalog.scalar_integrand(identifier)
        domain = _domain(scenario, integrand.domain)
        family = _resolve_gauge(scenario, integrand, domain)
        table = [(level, division.mesh, value, None) for level, division, value
                 in kh_levels(integrand, domain, family, max_levels=levels)]
    else:
        function, domain, entry = _resolve_function(scenario, config.seed)
        tol = _number(config, scenario, "tol")
        family = _resolve_gauge(scenario, function, domain)
        table = [(level, mesh, None, tail) for level, mesh, tail
                 in convergence_tails(function, domain, eps, tol,
                                      gauge_family=family, max_levels=levels)]
    rows = [{"level": level, "mesh_bound": mesh, "value": value,
             "worst_tail": tail, "eps": eps, "eta": eta}
            for level, mesh, value, tail in table]
    parameters = {
        "domain": [domain.lower, domain.upper],
        "levels": levels, "eps": eps, "eta": eta, "gauge": family.name,
    }
    return parameters, {"rows": rows}, "table"


_HANDLERS = {
    "integrate": _run_integrate,
    "integrate-prob": lambda c, s: _run_integrate_prob(c, s, riemann=False),
    "riemann-prob": lambda c, s: _run_integrate_prob(c, s, riemann=True),
    "uniqueness": _run_uniqueness,
    "fubini": _run_fubini,
    "derivative": _run_derivative,
    "ftc": _run_ftc,
    "convergence-table": _run_convergence_table,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one configuration; returns (exit status, report dict)."""
    if config.levels is not None and config.levels < 0:
        raise ScenarioError(f"--levels: must be >= 0, got {config.levels}")
    scenario = _load_scenario(config)
    parameters, payload, status = _HANDLERS[config.command](config, scenario)
    source = ({"catalog": config.catalog} if config.catalog is not None
              else {"scenario": str(config.scenario)})
    report = build_report(
        command=config.command, source=source, seed=config.seed,
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
    config = RunConfig(
        command=args.command, catalog=args.catalog, scenario=args.scenario,
        out=args.out, format=args.format, seed=args.seed,
        eps=args.eps, eta=args.eta, tol=args.tol, levels=args.levels,
    )
    try:
        status, report = run(config)
        if config.out is None:
            write_report(report, sys.stdout, config.format)
        else:
            out_path = Path(config.out)
            with out_path.open("w", encoding="utf-8") as stream:
                write_report(report, stream, config.format)
        return status
    except (GaugeProbError, ValueError, OSError, MemoryError) as exc:
        log.debug("failure detail", exc_info=True)
        what = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"gaugeprob: error: {what}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
