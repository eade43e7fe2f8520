"""The level pass builds each division once and hands it on."""

import json
import logging

import numpy as np
import pytest

from gaugeprob import (
    DiscreteProbabilitySpace,
    Interval,
    PathwiseRandomFunction,
    RandomVariable,
    as_pathwise,
    catalog,
    cousin_partition,
    deviation_probability,
    fubini_check,
    integrate_pathwise,
    integrate_separable,
    kh_integrate,
    kh_levels,
    quadrature,
    random_riemann_sum,
    resolve_gauge_family,
    stochastic,
    uniform_gauge_family,
)
from gaugeprob.cli import main
from gaugeprob.stochastic import convergence_tails

UNIT = Interval(0.0, 1.0)


@pytest.fixture
def built(monkeypatch):
    """Record (builder, pieces, points bytes, tags bytes) of every division
    that the level pass (in quadrature) or the stochastic layer builds or
    re-tags.

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

    for module, name in ((quadrature, "cousin_partition"),
                         (stochastic, "cousin_partition"),
                         (stochastic, "repick_tags")):
        monkeypatch.setattr(module, name,
                            recording(name, getattr(module, name)))
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


def late_mean_function():
    """cos(2 pi m t) with m = (8, 4) on two equally weighted outcomes.

    Both outcomes settle by level 3 (m = 8 falsely, at 1.0, on sums whose
    tags alias its period); the mean path settles only at level 4.
    """
    space = DiscreteProbabilitySpace.uniform(("w1", "w2"))
    m = np.array([8.0, 4.0])
    return PathwiseRandomFunction(
        space=space,
        evaluate=lambda t, i: float(np.cos(2.0 * np.pi * m[i] * t)),
        matrix_evaluate=lambda ts: np.cos(2.0 * np.pi * np.outer(m, ts)),
    ), RandomVariable(space=space, values=(1.0, 1.0))


def test_fubini_sides_share_divisions_when_the_mean_settles_late(built):
    f, dominator = late_mean_function()
    report = fubini_check(f, UNIT, dominator, 1e-6)
    assert (report.lhs_converged, report.rhs_verified, report.passed) == (
        True, False, False)
    # Chebyshev grid, then the LHS's level-4 and the RHS's level-3 tags.
    assert report.grid_points == 257 + 32 + 16
    assert len(set(built)) == len(built)


def test_unmoved_retagging_is_not_summed_again(monkeypatch):
    """Under uniform halving every re-tagging equals its base, so each
    certificate level sums only the off-center division afresh."""
    calls = {"sums": 0, "retags": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stochastic, "random_riemann_sum", counting(
        "sums", stochastic.random_riemann_sum))
    monkeypatch.setattr(stochastic, "repick_tags", counting(
        "retags", stochastic.repick_tags))
    entry = catalog.random_entry("linear-coeff")
    res = integrate_pathwise(entry.function, entry.domain, 1e-3, 1e-2, 1e-6,
                             gauge_family=uniform_gauge_family(entry.domain))
    assert calls["retags"] >= 1
    # levels 0..levels_used, then per certificate level the fresh division
    # and, past the first, the next level of the pass.
    assert calls["sums"] == res.levels_used + 2 * calls["retags"]


def test_each_distinct_division_tail_is_measured_once(monkeypatch):
    """Under uniform halving every re-tagging hands back the base sums, so
    each certificate level measures two tails per pair, not three."""
    measured = []

    def recording(sums, integral, eps):
        measured.append((sums, eps))  # kept alive, so ids stay distinct
        return deviation_probability(sums, integral, eps)

    monkeypatch.setattr(stochastic, "deviation_probability", recording)
    entry = catalog.random_entry("linear-coeff")
    res = integrate_pathwise(entry.function, entry.domain, 1e-3, 1e-2, 1e-6,
                             gauge_family=uniform_gauge_family(entry.domain))
    assert res.verified and measured
    assert len({(id(sums), eps) for sums, eps in measured}) == len(measured)


def test_each_level_is_logged(caplog):
    with caplog.at_level(logging.INFO, logger="gaugeprob"):
        res = kh_integrate(lambda t: t * t, UNIT, 1e-15, max_levels=3)
    records = [r.getMessage() for r in caplog.records if r.name == "gaugeprob"]
    assert res.refinement_levels == 3
    assert len(records) == 4
    for level, message in enumerate(records):
        assert message.startswith(
            f"level {level}: {2 ** (level + 1)} pieces, built in ")
        assert " s, summed in " in message


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
    assert np.all(np.isfinite(res.integral.values))
