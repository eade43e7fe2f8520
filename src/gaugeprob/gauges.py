"""Gauges: open-interval-valued fineness constraints on a compact interval.

A gauge assigns to every point t an open interval gamma(t) = (t - alpha(t),
t + beta(t)) with alpha(t), beta(t) > 0, so that t is always interior.  A
partition is accepted (is "sharp") where each piece fits inside the gauge
interval of its own tag; see ``partitions.is_sharp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidGaugeError

Width = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lower, upper] with lower < upper."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("interval endpoints must be finite")
        if not self.lower < self.upper:
            raise ValueError(
                f"interval requires lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, t: float) -> bool:
        return self.lower <= t <= self.upper

    @staticmethod
    def coerce(value) -> "Interval":
        if isinstance(value, Interval):
            return value
        lo, hi = value
        return Interval(float(lo), float(hi))


@dataclass(frozen=True)
class Gauge:
    """Width pair (alpha(t), beta(t)) defining gamma(t) = (t-alpha, t+beta).

    ``width`` maps an ndarray of points to the pair (alpha, beta); a result
    that broadcasts to the points' shape, such as a constant, is accepted.
    The evaluator must be pure: the same t always yields the same pair.
    Up to two threads call it at once, on disjoint arrays of points, so it
    must also be thread-safe (see ``cousin_partition``).
    """

    width: Width

    def half_widths(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (alpha, beta) over an array of points, validating both;
        each comes back with the points' shape (a read-only view)."""
        ts = np.asarray(ts, dtype=float)
        alpha, beta = (np.broadcast_to(np.asarray(w, dtype=float), ts.shape)
                       for w in self.width(ts))
        bad = ~(np.isfinite(alpha) & np.isfinite(beta) & (alpha > 0) & (beta > 0))
        if bad.any():
            t_bad = float(ts[bad].ravel()[0])
            raise InvalidGaugeError(
                f"gauge width must be positive and finite; offending t={t_bad!r}"
            )
        return alpha, beta

    def at(self, t: float) -> tuple[float, float]:
        """The open interval gamma(t) as an endpoint pair."""
        alpha, beta = self.half_widths(np.array([t]))
        return t - float(alpha[0]), t + float(beta[0])


def gauge_from_delta(delta: Callable[[np.ndarray], np.ndarray]) -> Gauge:
    """Symmetric gauge gamma(t) = (t - delta(t)/2, t + delta(t)/2).

    ``delta`` maps an ndarray of points to their full widths and must be
    strictly positive wherever it is evaluated; violations surface as
    :class:`InvalidGaugeError` at evaluation time.
    """

    def width(ts):
        h = np.asarray(delta(ts), dtype=float) / 2.0
        return h, h

    return Gauge(width=width)


def constant_gauge(width: float) -> Gauge:
    """Symmetric gauge of constant full width ``width``."""
    if not (np.isfinite(width) and width > 0):
        raise InvalidGaugeError(f"constant gauge width must be positive, got {width}")
    half = width / 2.0
    return Gauge(width=lambda ts: (half, half))


def delta_from_gauge(gauge: Gauge) -> Callable[[np.ndarray], np.ndarray]:
    """Width function delta(t) = min(alpha(t), beta(t)), on arrays of points
    like the ``delta`` that :func:`gauge_from_delta` takes.

    The min makes the fineness implication hold pointwise: any piece of width
    below delta at its own tag sits inside gamma(tag), regardless of where
    the tag falls within the piece.
    """
    return lambda ts: np.minimum(*gauge.half_widths(ts))


def gauge_intersection(g1: Gauge, g2: Gauge) -> Gauge:
    """Pointwise intersection: componentwise min of the half widths.

    The result is finer than both inputs, so any division sharp for it is
    sharp for each input.
    """
    return Gauge(width=lambda ts: tuple(map(np.minimum, g1.width(ts),
                                            g2.width(ts))))


@dataclass(frozen=True)
class GaugeFamily:
    """A named sequence of gauges indexed by refinement level.

    Families drive iterative integration: widths must shrink to zero
    pointwise as the level grows.

    ``nested`` declares that gamma_{m+1}(t) is a subset of gamma_m(t) for
    every t and every level m; then each level's division is refined from
    the previous level's instead of built from the domain (see
    ``cousin_partition``'s ``parent``).  Declare it only when it holds for
    every t in floating point: each half width at level m + 1 at most the
    one at level m.  An undeclared family is rebuilt at every level.
    """

    name: str
    at_level: Callable[[int], Gauge]
    nested: bool = False

    def __call__(self, level: int) -> Gauge:
        return self.at_level(level)


def uniform_gauge_family(domain: Interval) -> GaugeFamily:
    """Constant-width family delta_m just under (b - a) * 2^-m (uniform
    halving)."""
    return scaled_uniform_family(domain, 1.0, "uniform")


def scaled_uniform_family(domain: Interval, factor: float, name: str) -> GaugeFamily:
    """Constant-width family delta_m = factor * (b - a) * 2^-m * (1 - 2^-40)."""
    domain = Interval.coerce(domain)
    span = domain.width * factor

    def at_level(level: int) -> Gauge:
        # Just under the nominal width, so a piece of width delta/2 keeps its
        # midpoint as tag: where rounding of a non-dyadic domain's points
        # makes it a hair narrower, it would otherwise fit the gauge interval
        # of its left endpoint, and endpoint tags stall the sums.
        return constant_gauge(span * 2.0 ** -level * (1.0 - 2.0 ** -40))

    return GaugeFamily(name=name, at_level=at_level, nested=True)


def intersect_families(families) -> GaugeFamily:
    """Levelwise intersection of several gauge families, nested when every
    member is."""
    families = tuple(families)
    if not families:
        raise ValueError("need at least one family to intersect")
    if len(families) == 1:
        return families[0]

    def at_level(level: int) -> Gauge:
        gauge = families[0](level)
        for fam in families[1:]:
            gauge = gauge_intersection(gauge, fam(level))
        return gauge

    return GaugeFamily(name="&".join(f.name for f in families),
                       at_level=at_level,
                       nested=all(f.nested for f in families))
