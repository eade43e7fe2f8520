import math

import numpy as np
import pytest

from gaugeprob import (GaugeFamily, Interval, ScenarioError, as_pathwise,
                       cousin_partition, intersect_families, is_sharp)
from gaugeprob import catalog
from gaugeprob.cli import _resolve_gauge
from gaugeprob.random_functions import values_matrix

UNIT = Interval(0.0, 1.0)


def test_scalar_ids_are_stable():
    assert catalog.scalar_ids() == (
        "constant", "finite-indicator", "linear", "monomial2", "monomial3",
        "osc-derivative", "poly-deg5", "trig-mix",
    )


def test_random_ids_are_stable():
    assert catalog.random_ids() == (
        "affine-pair", "indicator-coeff", "linear-coeff", "osc-coeff",
        "quadratic-coeff", "trig-coeff", "zero",
    )


def test_ftc_ids_are_stable():
    assert catalog.ftc_ids() == ("ftc-quadratic", "ftc-singular")


def test_unknown_ids_raise_scenario_error():
    with pytest.raises(ScenarioError):
        catalog.scalar_integrand("nope")
    with pytest.raises(ScenarioError):
        catalog.random_entry("nope")
    with pytest.raises(ScenarioError):
        catalog.ftc_entry("nope")
    with pytest.raises(ScenarioError):
        catalog.gauge_family("nope", UNIT)


def test_sup_bounds_hold_on_a_grid():
    ts = np.linspace(0.0, 1.0, 2001)
    for name in catalog.scalar_ids():
        entry = catalog.scalar_integrand(name)
        if entry.sup_abs is not None:
            assert np.max(np.abs(entry.values_at(ts))) <= entry.sup_abs + 1e-12


def test_indicator_points_structure():
    points = catalog.indicator_points()
    assert len(points) == 100
    assert len(set(points)) == 100
    assert all(0.0 < p < 1.0 for p in points)
    for depth, count in catalog.INDICATOR_DEPTH_COUNTS.items():
        scale = 2.0 ** depth
        expected = {(2 * i + 1) / scale for i in range(count)}
        assert expected <= set(points)
    assert sum(catalog.INDICATOR_DEPTH_COUNTS.values()) == 100


def test_indicator_evaluates_exactly_on_points():
    entry = catalog.scalar_integrand("finite-indicator")
    points = np.array(catalog.indicator_points())
    assert np.all(entry.values_at(points) == 1.0)
    assert np.all(entry.values_at(points + 1e-9) == 0.0)


def test_dominators_cover_their_functions():
    ts = np.linspace(0.0, 1.0, 101)
    for name in catalog.dominated_ids():
        entry = catalog.random_entry(name)
        f = entry.function
        matrix = np.abs(values_matrix(as_pathwise(f), ts))
        for i, values in enumerate(matrix):
            assert np.all(values <= entry.dominator.values[i] + 1e-12), name


def test_osc_entry_not_dominated():
    assert "osc-coeff" not in catalog.dominated_ids()
    assert catalog.random_entry("osc-coeff").dominator is None


def test_strategies_are_distinct_families():
    for name in catalog.random_ids():
        entry = catalog.random_entry(name)
        fam1, fam2 = entry.strategies
        assert fam1.name != fam2.name


def test_singular_family_levels_shrink():
    family = catalog.osc_singular_family()
    ts = np.array([0.0, 1e-3, 0.1, 0.9])
    a0, b0 = family(0).half_widths(ts)
    a3, b3 = family(3).half_widths(ts)
    # the origin pinch is level-independent; everything else shrinks
    assert a3[0] == a0[0]
    assert np.all(a3[1:] <= a0[1:])
    d = cousin_partition(family(0), UNIT)
    assert is_sharp(d, family(0))
    assert d.points[1] == 2.0 ** -10  # the tag-0 piece


def _declared_nested_families():
    """Every family that declares itself nested: the catalog's, the CLI's
    constant family, and intersections of them."""
    families = {name: catalog.gauge_family(name, UNIT)
                for name in catalog.gauge_family_ids()}
    families["cli-constant"] = _resolve_gauge({"gauge": {"constant": 0.3}},
                                              None, UNIT)
    families["all"] = intersect_families(list(families.values()))
    for name in catalog.random_ids():
        own = catalog.random_entry(name).function.gauge_family
        if own is not None:
            families[f"{name}-bases"] = own
    return families


_NESTED = _declared_nested_families()


@pytest.mark.parametrize("name", sorted(_NESTED))
def test_declared_nested_families_shrink_pointwise(name):
    # Refinement relies on every half width at level m + 1 being at most
    # the one at level m, in floating point, at every point.
    family = _NESTED[name]
    assert family.nested
    grid = np.concatenate([np.linspace(0.0, 1.0, 10_000),
                           np.arange(2 ** 14 + 1) / 2 ** 14,
                           catalog.indicator_points()])
    alpha, beta = family(0).half_widths(grid)
    for level in range(1, 14):
        finer_alpha, finer_beta = family(level).half_widths(grid)
        assert np.all(finer_alpha <= alpha) and np.all(finer_beta <= beta)
        alpha, beta = finer_alpha, finer_beta


def test_families_are_undeclared_by_default():
    family = GaugeFamily("probe", _NESTED["uniform"].at_level)
    assert not family.nested
    assert not intersect_families([family, _NESTED["uniform"]]).nested


def test_pinch_family_sharp_and_never_tags_the_set():
    family = catalog.indicator_pinch_family()
    d = cousin_partition(family(0), UNIT)
    assert is_sharp(d, family(0))
    assert not (set(float(t) for t in d.tags) & set(catalog.indicator_points()))


def test_two_point_space_and_gauge_ids():
    sp = catalog.two_point_space()
    assert sp.weights.tolist() == [0.5, 0.5]
    assert "uniform" in catalog.gauge_family_ids()
    fam = catalog.gauge_family("uniform", UNIT)
    lo, hi = fam(0).at(0.5)
    assert hi - lo == pytest.approx(1.0)


def test_poly5_reference_value():
    entry = catalog.scalar_integrand("poly-deg5")
    # antiderivative t^6/6 - t^4/2 + t^2/2 - t/2 evaluated at 1
    assert 1.0 / 6.0 - 0.5 + 0.5 - 0.5 == pytest.approx(-1.0 / 3.0)
    assert entry.fn(1.0) == pytest.approx(-0.5)


def test_trig_mix_reference_value():
    exact = (1.0 - math.cos(3.0)) / 3.0 + math.sin(2.0) / 2.0
    assert exact == pytest.approx(1.1179795, abs=1e-6)


@pytest.mark.parametrize("lookup, kind", [
    (lambda i: catalog.gauge_family(i, UNIT), "gauge family"),
    (catalog.scalar_integrand, "integrand"),
    (catalog.random_entry, "random function"),
    (catalog.ftc_entry, "antiderivative pair"),
])
@pytest.mark.parametrize("identifier", [["linear"], {"id": "linear"}, None,
                                        1.5, "nosuch"])
def test_an_id_that_is_not_a_known_string_is_unknown(lookup, kind,
                                                     identifier):
    with pytest.raises(ScenarioError,
                       match=f"^unknown {kind} .*; known: "):
        lookup(identifier)
