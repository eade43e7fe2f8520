import dataclasses
import math

import numpy as np
import pytest

from gaugeprob import (
    DiscreteProbabilitySpace,
    Gauge,
    GaugeFamily,
    Interval,
    NonConvergenceError,
    PathwiseRandomFunction,
    RandomVariable,
    SeparableRandomFunction,
    TaggedDivision,
    constant_gauge,
    cousin_partition,
    deviation_probability,
    gauge_from_delta,
    integrate_pathwise,
    integrate_riemann_in_probability,
    integrate_separable,
    is_sharp,
    kh_integrate,
    random_riemann_sum,
    resolve_gauge_family,
    uniform_gauge_family,
    verify_uniqueness,
)
from gaugeprob import catalog

UNIT = Interval(0.0, 1.0)
SPACE = DiscreteProbabilitySpace.uniform(("w1", "w2"))


def rv(*values):
    return RandomVariable(space=SPACE, values=values)


def linear_function():
    return catalog.random_entry("linear-coeff").function


class TestIntegrateSeparable:
    def test_linear_coefficient(self):
        res = integrate_separable(linear_function(), UNIT, 1e-9)
        assert res.integral.values[0] == pytest.approx(0.5, abs=1e-9)
        assert res.integral.values[1] == pytest.approx(1.0, abs=2e-9)
        assert res.verified
        assert res.method == "separable"

    def test_all_zero_coefficients(self):
        f = SeparableRandomFunction(
            coefficients=(rv(0.0, 0.0),),
            bases=(catalog.scalar_integrand("linear"),))
        res = integrate_separable(f, UNIT, 1e-9)
        assert res.integral.values.tolist() == [0.0, 0.0]
        assert res.verified

    def test_two_terms(self):
        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 1.0), rv(0.0, 3.0)),
            bases=(catalog.scalar_integrand("constant"),
                   catalog.scalar_integrand("linear")))
        res = integrate_separable(f, UNIT, 1e-9)
        assert res.integral.values[0] == pytest.approx(1.0, abs=1e-8)
        assert res.integral.values[1] == pytest.approx(2.5, abs=1e-8)

    def test_matches_manual_combination_exactly(self):
        f = SeparableRandomFunction(
            coefficients=(rv(1.25, -0.5),),
            bases=(catalog.scalar_integrand("monomial2"),))
        res = integrate_separable(f, UNIT, 1e-8)
        basis_value = kh_integrate(catalog.scalar_integrand("monomial2"),
                                   UNIT, 1e-8).value
        expected = tuple(math.fsum([c * basis_value]) for c in (1.25, -0.5))
        assert tuple(res.integral.values) == expected

    def test_non_convergence_names_term(self):
        # midpoint sums of t^2 cannot meet an impossible tolerance inside a
        # two-level budget; the linear basis converges exactly, so the
        # failure points at term 1
        f = SeparableRandomFunction(
            coefficients=(rv(1.0, 2.0), rv(1.0, 1.0)),
            bases=(catalog.scalar_integrand("linear"),
                   catalog.scalar_integrand("monomial2")))
        with pytest.raises(NonConvergenceError) as err:
            integrate_separable(f, UNIT, 1e-30, max_levels=2)
        assert err.value.index == 1

    def test_certificate_rows_pass(self):
        res = integrate_separable(linear_function(), UNIT, 1e-6)
        assert res.certificate
        for row in res.certificate:
            assert row.achieved_tail < row.eta
            assert row.mesh_bound > 0


class TestIntegratePathwise:
    def test_agrees_with_separable(self):
        tol = 1e-6
        f = linear_function()
        alg = integrate_separable(f, UNIT, tol)
        path = integrate_pathwise(f, UNIT, 1e-3, 1e-2, tol)
        for a, b in zip(alg.integral.values, path.integral.values):
            assert abs(a - b) <= 10 * tol
        assert path.verified
        assert path.method == "pathwise"

    def test_deterministic_function_collapses_to_scalar(self):
        f = PathwiseRandomFunction(
            space=SPACE, evaluate=lambda t, i: math.sin(t),
            matrix_evaluate=lambda ts: np.tile(np.sin(ts), (2, 1)))
        tol = 1e-7
        res = integrate_pathwise(f, UNIT, 1e-3, 1e-2, tol)
        scalar = kh_integrate(np.sin, UNIT, tol)
        for v in res.integral.values:
            assert abs(v - scalar.value) <= tol

    def test_unconverged_paths_reported_in_band(self):
        f = catalog.random_entry("indicator-coeff").function
        res = integrate_riemann_in_probability(f, UNIT, 1e-3, 1e-2, 1e-9,
                                               max_levels=3)
        assert not res.verified
        assert res.failed_outcomes == (0, 1)

    def test_validates_parameters(self):
        f = linear_function()
        with pytest.raises(ValueError):
            integrate_pathwise(f, UNIT, 0.0, 1e-2, 1e-6)
        with pytest.raises(ValueError):
            integrate_pathwise(f, UNIT, 1e-3, -1.0, 1e-6)
        with pytest.raises(ValueError):
            integrate_pathwise(f, UNIT, 1e-3, 1e-2, math.nan)

    def test_verified_implies_certificate_rows_met(self):
        res = integrate_pathwise(linear_function(), UNIT, 1e-3, 1e-2, 1e-6)
        assert res.verified
        assert all(row.achieved_tail < row.eta for row in res.certificate)
        assert res.certificate[0].eps == 1e-3


class TestRiemannReduction:
    def test_constant_gauges_reproduce_pathwise_on_smooth(self):
        tol = 1e-6
        f = linear_function()
        varying = GaugeFamily(
            name="tilted",
            at_level=lambda m: constant_gauge(0.7 * 2.0 ** -m))
        path = integrate_pathwise(f, UNIT, 1e-3, 1e-2, tol,
                                  gauge_family=varying)
        riem = integrate_riemann_in_probability(f, UNIT, 1e-3, 1e-2, tol)
        assert riem.method == "riemann"
        for a, b in zip(path.integral.values, riem.integral.values):
            assert abs(a - b) <= 10 * tol

    def test_zero_function_verified_immediately(self):
        f = SeparableRandomFunction(
            coefficients=(rv(0.0, 0.0),),
            bases=(catalog.scalar_integrand("constant"),))
        res = integrate_riemann_in_probability(f, UNIT, 1e-3, 1e-2, 1e-9)
        assert res.verified
        assert res.integral.values.tolist() == [0.0, 0.0]
        assert res.levels_used <= 1

    @pytest.mark.parametrize("ident", ["linear-coeff", "trig-coeff"])
    def test_is_pathwise_under_uniform_gauges(self, ident):
        entry = catalog.random_entry(ident)
        args = (entry.function, entry.domain, 1e-3, 1e-2, 1e-6)
        riem = integrate_riemann_in_probability(*args)
        path = integrate_pathwise(
            *args, gauge_family=uniform_gauge_family(entry.domain))
        assert (riem.method, path.method) == ("riemann", "pathwise")
        assert riem.integral.space == path.integral.space
        assert riem.integral.values.tobytes() == path.integral.values.tobytes()
        for field in dataclasses.fields(path):
            if field.name not in ("method", "integral"):
                assert (getattr(riem, field.name)
                        == getattr(path, field.name)), field.name


class TestVerifyUniqueness:
    def test_same_strategy_twice_exactly_equal(self):
        f = linear_function()
        fam = uniform_gauge_family(UNIT)
        rep = verify_uniqueness(f, UNIT, (fam, fam), 1e-3, 1e-2, 1e-6)
        assert rep.conclusive
        assert rep.integrals[0].values.tolist() == rep.integrals[1].values.tolist()
        assert all(p == 0.0 for _, p in rep.deviation_rows)

    def test_distinct_strategies_agree(self):
        entry = catalog.random_entry("affine-pair")
        rep = verify_uniqueness(entry.function, entry.domain, entry.strategies,
                                1e-3, 1e-2, 1e-6)
        assert rep.conclusive
        assert rep.almost_surely_equal
        assert rep.equal_tolerance == pytest.approx(1e-5)

    def test_deviation_grid_descends_and_tails_monotone(self):
        entry = catalog.random_entry("quadratic-coeff")
        rep = verify_uniqueness(entry.function, entry.domain, entry.strategies,
                                1e-2, 1e-2, 1e-6)
        eps_values = [e for e, _ in rep.deviation_rows]
        assert eps_values == sorted(eps_values, reverse=True)
        tails = [p for _, p in rep.deviation_rows]
        assert all(tails[i + 1] >= tails[i] for i in range(len(tails) - 1))

    def test_inconclusive_when_strategy_unverified(self):
        f = catalog.random_entry("indicator-coeff").function
        uniform = uniform_gauge_family(UNIT)
        rep = verify_uniqueness(f, UNIT, (uniform, uniform), 1e-3, 1e-2, 1e-9,
                                max_levels=3)
        assert not rep.conclusive


class TestConvergenceInProbability:
    def test_tails_shrink_over_levels_for_catalog_entries(self):
        # deviation tails of Riemann sums against the accepted integral are
        # non-increasing in the refinement level (plateaus at 0 allowed)
        eps = 1e-3
        for name in ("linear-coeff", "affine-pair", "quadratic-coeff",
                     "trig-coeff"):
            entry = catalog.random_entry(name)
            res = integrate_separable(entry.function, entry.domain, 1e-8)
            family = resolve_gauge_family(entry.function, entry.domain)
            tails = []
            for level in range(0, 14, 2):
                division = cousin_partition(family(level), entry.domain)
                sums = random_riemann_sum(entry.function, division)
                tails.append(
                    deviation_probability(sums, res.integral, eps))
            assert all(tails[i + 1] <= tails[i]
                       for i in range(len(tails) - 1)), name
            assert tails[-1] == 0.0, name

    def test_width_function_and_symmetric_gauge_routes_coincide(self):
        # a positive width function and the symmetric gauge it generates
        # accept exactly the same divisions, so integration driven by
        # either is bit-identical
        delta = lambda t: 0.3 + 0.2 * t
        from_delta = GaugeFamily(
            name="via-delta",
            at_level=lambda m: gauge_from_delta(
                lambda t, m=m: delta(t) * 2.0 ** -m))
        explicit = GaugeFamily(
            name="explicit",
            at_level=lambda m: Gauge(
                width=lambda t, m=m: (delta(t) * 2.0 ** -m / 2.0,
                                      delta(t) * 2.0 ** -m / 2.0)))
        rng = np.random.default_rng(42)
        for _ in range(50):
            cuts = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(1, 6)))
            points = np.concatenate([[0.0], cuts, [1.0]])
            points = np.unique(points)
            fractions = rng.uniform(0.0, 1.0, size=points.size - 1)
            tags = points[:-1] + fractions * np.diff(points)
            d = TaggedDivision(points=points, tags=tags)
            for m in (0, 1, 3):
                assert is_sharp(d, from_delta(m)) == is_sharp(d, explicit(m))
        f = linear_function()
        r1 = integrate_pathwise(f, UNIT, 1e-3, 1e-2, 1e-7,
                                gauge_family=from_delta)
        r2 = integrate_pathwise(f, UNIT, 1e-3, 1e-2, 1e-7,
                                gauge_family=explicit)
        assert r1.integral.values.tolist() == r2.integral.values.tolist()
        assert r1.levels_used == r2.levels_used

    def test_singular_pathwise_value(self):
        entry = catalog.random_entry("osc-coeff")
        res = integrate_pathwise(entry.function, entry.domain, 1e-3, 1e-2,
                                 1e-6)
        assert res.verified
        for value, c in zip(res.integral.values, (1.0, 2.0)):
            assert abs(value - c * math.sin(1.0)) <= c * 1e-6


def test_resolve_gauge_family_priorities():
    f = catalog.random_entry("osc-coeff").function
    paired = resolve_gauge_family(f, UNIT)
    assert paired.name == "osc-singular"
    override = uniform_gauge_family(UNIT)
    assert resolve_gauge_family(f, UNIT, override) is override
    plain = linear_function()
    assert resolve_gauge_family(plain, UNIT).name == "uniform"


def test_riemann_sum_on_sharp_division_close_to_integral():
    f = linear_function()
    res = integrate_separable(f, UNIT, 1e-8)
    family = resolve_gauge_family(f, UNIT)
    division = cousin_partition(family(8), UNIT)
    sums = random_riemann_sum(f, division)
    for s, v in zip(sums.values, res.integral.values):
        assert abs(s - v) < 1e-2
