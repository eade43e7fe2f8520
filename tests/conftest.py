import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from gaugeprob import Gauge, TaggedDivision, constant_gauge, gauge_from_delta

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def divisions(draw, a=0.0, b=1.0, max_pieces=8):
    """Random valid tagged divisions of [a, b]."""
    n = draw(st.integers(min_value=1, max_value=max_pieces))
    raw = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                        min_size=n, max_size=n))
    widths = np.array(raw) * (b - a) / sum(raw)
    points = np.concatenate([[a], a + np.cumsum(widths)])
    points[-1] = b
    fractions = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                              min_size=n, max_size=n))
    tags = points[:-1] + np.array(fractions) * np.diff(points)
    return TaggedDivision(points=points, tags=tags)


@st.composite
def simple_gauges(draw):
    """Constant or affine-width gauges, possibly asymmetric."""
    kind = draw(st.sampled_from(["constant", "affine", "asymmetric"]))
    if kind == "constant":
        return constant_gauge(draw(st.floats(min_value=0.02, max_value=1.5)))
    if kind == "affine":
        lo = draw(st.floats(min_value=0.02, max_value=0.3))
        slope = draw(st.floats(min_value=0.0, max_value=1.0))
        return gauge_from_delta(
            lambda ts, lo=lo, slope=slope: lo + slope * np.abs(ts))
    alpha = draw(st.floats(min_value=0.02, max_value=0.8))
    beta = draw(st.floats(min_value=0.02, max_value=0.8))
    return Gauge(width=lambda ts, a=alpha, b=beta: (a, b))


@pytest.fixture
def unit_interval():
    from gaugeprob import Interval
    return Interval(0.0, 1.0)
