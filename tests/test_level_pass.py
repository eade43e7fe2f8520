"""The pathwise level pass builds each division once and hands it on."""

import json

import numpy as np
import pytest

from gaugeprob import (
    Interval,
    as_pathwise,
    catalog,
    cousin_partition,
    deviation_probability,
    fubini_check,
    integrate_pathwise,
    integrate_separable,
    kh_levels,
    random_riemann_sum,
    resolve_gauge_family,
    stochastic,
)
from gaugeprob.cli import main
from gaugeprob.stochastic import convergence_tails

UNIT = Interval(0.0, 1.0)


@pytest.fixture
def built(monkeypatch):
    """Record (builder, pieces, points bytes, tags bytes) of every division
    that the stochastic layer builds or re-tags.

    The builder is part of the entry: a re-tagging legitimately equals its
    base wherever only the midpoint is accepted (constant gauges).
    """
    record = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            division = fn(*args, **kwargs)
            record.append((name, division.pieces, division.points.tobytes(),
                           division.tags.tobytes()))
            return division
        return wrapper

    for name in ("cousin_partition", "repick_tags"):
        monkeypatch.setattr(stochastic, name,
                            recording(name, getattr(stochastic, name)))
    return record


RUNS = {
    "integrate_pathwise": lambda e: integrate_pathwise(
        e.function, e.domain, 1e-3, 1e-2, 1e-6),
    "fubini_check": lambda e: fubini_check(
        e.function, e.domain, e.dominator, 1e-6),
    "convergence_tails": lambda e: convergence_tails(
        e.function, e.domain, 1e-3, 1e-6, max_levels=6),
}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("identifier", ["linear-coeff", "trig-coeff"])
def test_no_division_built_twice(built, identifier, run):
    RUNS[run](catalog.random_entry(identifier))
    assert built
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("identifier, extra", [
    ("linear-coeff", ["--levels", "6"]),
    ("quadratic-coeff", ["--levels", "2", "--tol", "1e-12"]),
])
def test_table_tails_match_rebuilt_divisions(capsys, identifier, extra):
    """Oracle: rebuild every level and measure it against integrate_pathwise."""
    assert main(["convergence-table", "--catalog", identifier, *extra]) == 0
    report = json.loads(capsys.readouterr().out)
    params = report["parameters"]
    levels, eps = params["levels"], params["eps"]
    tol = float(extra[extra.index("--tol") + 1]) if "--tol" in extra else 1e-6
    entry = catalog.random_entry(identifier)
    family = resolve_gauge_family(entry.function, entry.domain)
    view = as_pathwise(entry.function)
    reference = integrate_pathwise(entry.function, entry.domain, eps,
                                   params["eta"], tol, gauge_family=family,
                                   max_levels=levels).integral
    expected = [
        deviation_probability(
            random_riemann_sum(view, cousin_partition(family(level),
                                                      entry.domain)),
            reference, eps)
        for level in range(levels + 1)
    ]
    assert [row["worst_tail"] for row in report["result"]["rows"]] == expected


def test_library_rejects_negative_levels():
    entry = catalog.random_entry("linear-coeff")
    f, domain = entry.function, entry.domain
    with pytest.raises(ValueError, match="max_levels"):
        next(kh_levels(lambda t: t, UNIT, max_levels=-1))
    with pytest.raises(ValueError, match="max_levels"):
        integrate_pathwise(f, domain, 1e-3, 1e-2, 1e-6, max_levels=-1)
    with pytest.raises(ValueError, match="max_levels"):
        integrate_separable(f, domain, 1e-6, max_levels=-1)
    with pytest.raises(ValueError, match="max_levels"):
        fubini_check(f, domain, entry.dominator, 1e-6, max_levels=-1)
    with pytest.raises(ValueError, match="max_levels"):
        convergence_tails(f, domain, 1e-3, 1e-6, max_levels=-1)


LEVEL_COMMANDS = [
    ("integrate", "monomial2"),
    ("integrate-prob", "linear-coeff"),
    ("riemann-prob", "linear-coeff"),
    ("uniqueness", "linear-coeff"),
    ("fubini", "linear-coeff"),
    ("derivative", "ftc-quadratic"),
    ("ftc", "ftc-quadratic"),
    ("convergence-table", "linear-coeff"),
    ("convergence-table", "monomial2"),
]


@pytest.mark.parametrize("source", ["flag", "scenario"])
@pytest.mark.parametrize("command, identifier", LEVEL_COMMANDS)
def test_cli_rejects_negative_levels(capsys, tmp_path, command, identifier,
                                     source):
    if source == "flag":
        argv = [command, "--catalog", identifier, "--levels", "-1"]
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"catalog": identifier, "levels": -1}),
                        encoding="utf-8")
        argv = [command, "--scenario", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gaugeprob: error: ")
    assert "levels" in captured.err
    assert "Traceback" not in captured.err


def test_cli_names_out_of_memory(capsys, monkeypatch):
    def exhausted(f, division):
        raise MemoryError("Unable to allocate 164. GiB for an array")

    monkeypatch.setattr(stochastic, "random_riemann_sum", exhausted)
    assert main(["integrate-prob", "--catalog", "linear-coeff"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("gaugeprob: error: out of memory: Unable to "
                            "allocate 164. GiB for an array\n")


def test_zero_levels_leaves_every_outcome_unsettled():
    """With one level nothing can agree: every outcome keeps its level-0 sum."""
    entry = catalog.random_entry("quadratic-coeff")
    res = integrate_pathwise(entry.function, entry.domain, 1e-3, 1e-2, 1e-12,
                             max_levels=0)
    assert res.levels_used == 0
    assert res.failed_outcomes == (0, 1)
    assert np.all(np.isfinite(res.integral.to_array()))
