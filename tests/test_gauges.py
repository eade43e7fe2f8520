import math

import numpy as np
import pytest
from hypothesis import given

from gaugeprob import (
    Gauge,
    Interval,
    InvalidGaugeError,
    delta_from_gauge,
    gauge_from_delta,
    gauge_intersection,
    intersect_families,
    is_fine,
    is_sharp,
    scaled_uniform_family,
    uniform_gauge_family,
)

from conftest import divisions, simple_gauges


class TestInterval:
    def test_width_and_contains(self):
        iv = Interval(0.0, 3.0)
        assert iv.width == 3.0
        assert iv.contains(0.0) and iv.contains(3.0) and iv.contains(1.5)
        assert not iv.contains(3.1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_coerce(self):
        assert Interval.coerce((0, 2)) == Interval(0.0, 2.0)
        iv = Interval(0.0, 1.0)
        assert Interval.coerce(iv) is iv


class TestGaugeFromDelta:
    def test_constant_delta_halves(self):
        g = gauge_from_delta(lambda t: 0.4)
        for t in (0.0, 0.3, 1.0):
            lo, hi = g.at(t)
            assert lo == pytest.approx(t - 0.2)
            assert hi == pytest.approx(t + 0.2)

    def test_varying_delta_at_zero(self):
        g = gauge_from_delta(lambda t: t + 1.0)
        assert g.at(0.0) == (-0.5, 0.5)

    def test_tiny_delta(self):
        g = gauge_from_delta(lambda t: 1e-9)
        alpha, beta = g.half_widths(np.array([0.5]))
        assert alpha[0] == 5e-10 and beta[0] == 5e-10

    def test_nonpositive_delta_raises(self):
        g = gauge_from_delta(lambda t: t - 0.5)
        with pytest.raises(InvalidGaugeError):
            g.half_widths(np.array([0.2]))

    def test_nonfinite_width_raises(self):
        g = Gauge(width=lambda t: (math.nan, 1.0))
        with pytest.raises(InvalidGaugeError):
            g.half_widths(np.array([0.0]))


class TestDeltaFromGauge:
    def test_symmetric(self):
        g = gauge_from_delta(lambda t: 0.4)
        delta = delta_from_gauge(g)
        assert delta(0.7) == pytest.approx(0.2)

    def test_asymmetric_takes_min(self):
        g = Gauge(width=lambda t: (0.1, 0.5))
        delta = delta_from_gauge(g)
        assert delta(0.3) == pytest.approx(0.1)

    def test_round_trip_halves(self):
        delta0 = lambda t: 0.4
        delta1 = delta_from_gauge(gauge_from_delta(delta0))
        assert delta1(0.1) == pytest.approx(0.2)

    def test_round_trip_from_gauge(self):
        g = Gauge(width=lambda ts: (0.1 + ts / 4.0, 0.2))
        ts = np.linspace(0.0, 1.0, 9)
        alpha, beta = gauge_from_delta(delta_from_gauge(g)).half_widths(ts)
        np.testing.assert_array_equal(alpha, np.minimum(0.1 + ts / 4.0, 0.2) / 2)
        np.testing.assert_array_equal(beta, alpha)

    def test_min_rule_brute_force(self):
        # the asymmetric gauge (t-.1, t+.5): any piece of width < .1 is
        # inside gamma(tag) wherever the tag sits in the piece
        g = Gauge(width=lambda ts: (0.1, 0.5))
        delta = delta_from_gauge(g)
        width = 0.99 * delta(0.0)
        for u in np.linspace(0.0, 0.9, 10):
            v = u + width
            for frac in np.linspace(0.0, 1.0, 11):
                tag = u + frac * width
                assert tag - 0.1 < u and v < tag + 0.5


class TestIntersection:
    def test_componentwise_min(self):
        g1 = gauge_from_delta(lambda t: 0.4)
        g2 = Gauge(width=lambda t: (0.1, 0.3))
        g = gauge_intersection(g1, g2)
        assert g.at(1.0) == (0.9, 1.2)

    def test_idempotent(self):
        g = gauge_from_delta(lambda t: 0.25)
        gg = gauge_intersection(g, g)
        for t in (0.0, 0.4, 1.0):
            assert gg.at(t) == g.at(t)

    @given(divisions(), simple_gauges(), simple_gauges())
    def test_sharp_for_intersection_implies_sharp_for_both(self, d, g1, g2):
        g = gauge_intersection(g1, g2)
        if is_sharp(d, g):
            assert is_sharp(d, g1) and is_sharp(d, g2)


@given(divisions(), simple_gauges())
def test_fine_for_min_width_implies_sharp(d, g):
    delta = delta_from_gauge(g)
    if is_fine(d, delta):
        assert is_sharp(d, g)


def test_uniform_family_halves(unit_interval):
    family = uniform_gauge_family(unit_interval)
    for level in (0, 1, 5):
        lo, hi = family(level).at(0.5)
        assert hi - lo == pytest.approx(2.0 ** -level)


def test_scaled_family(unit_interval):
    family = scaled_uniform_family(unit_interval, 0.5, "half")
    lo, hi = family(0).at(0.5)
    assert hi - lo == pytest.approx(0.5)
    assert family.name == "half"


def test_intersect_families(unit_interval):
    fam = intersect_families([
        uniform_gauge_family(unit_interval),
        scaled_uniform_family(unit_interval, 0.5, "half"),
    ])
    lo, hi = fam(0).at(0.5)
    assert hi - lo == pytest.approx(0.5)
    with pytest.raises(ValueError):
        intersect_families([])


class TestArrayEvaluator:
    def test_constant_result_broadcasts_to_the_points(self):
        calls = []

        def width(ts):
            calls.append(ts.shape)
            return 0.5, 0.25

        ts = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        alpha, beta = Gauge(width=width).half_widths(ts)
        assert calls == [(3, 4)]
        assert alpha.shape == beta.shape == (3, 4)
        assert np.all(alpha == 0.5) and np.all(beta == 0.25)
        assert not alpha.flags.writeable and not beta.flags.writeable

    def test_invalid_width_names_t_under_broadcasting(self):
        g = Gauge(width=lambda ts: (0.1, 0.2 - (ts > 0.65).astype(float)))
        ts = np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])
        with pytest.raises(InvalidGaugeError, match=r"offending t=0\.7\b"):
            g.half_widths(ts)
