"""Builtin catalog: named integrands, gauge families, and random functions.

Catalog ids are stable public API (adding entries is non-breaking, renaming
is breaking).  Every entry that needs a non-uniform gauge ships with one:

* ``osc-derivative`` -- the derivative of t^2 sin(1/t^2) (extended by 0 at
  the origin), unbounded near 0 and beyond any constant-width refinement;
  its family pinches a tag-0 piece at the origin and tracks the local
  oscillation scale elsewhere.
* ``finite-indicator`` -- the indicator of a 100-point set; its family
  pinches the gauge at exactly those points, so sharp divisions can only
  tag them with negligible width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ScenarioError
from .gauges import (
    Gauge,
    GaugeFamily,
    Interval,
    scaled_uniform_family,
    uniform_gauge_family,
)
from .probability import DiscreteProbabilitySpace, RandomVariable
from .quadrature import ScalarIntegrand
from .random_functions import RandomFunction, SeparableRandomFunction

UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# scalar integrands


def _poly5(t):
    return t ** 5 - 2.0 * t ** 3 + t - 0.5


def _trig_mix(t):
    return np.sin(3.0 * t) + np.cos(2.0 * t)


def _osc_antiderivative(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    safe = np.where(ts == 0.0, 1.0, ts)
    return np.where(ts == 0.0, 0.0, ts * ts * np.sin(1.0 / (safe * safe)))


def _osc_derivative(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    safe = np.where(ts == 0.0, 1.0, ts)
    inv2 = 1.0 / (safe * safe)
    values = 2.0 * safe * np.sin(inv2) - (2.0 / safe) * np.cos(inv2)
    return np.where(ts == 0.0, 0.0, values)


# The exceptional set for the indicator entry: dyadic midpoints
# (2i+1) / 2^d at depths d = 2..13, with a fixed count per depth.  Uniform
# halving tags exactly the depth-(m+2) midpoints at level m, so constant
# gauges keep colliding with the set at every level of an 11-level budget,
# while the pinch family below never lets a set point become a tag at all.
INDICATOR_DEPTH_COUNTS: dict[int, int] = {
    2: 1, 3: 3, 4: 5, 5: 9, 6: 10, 7: 10, 8: 10,
    9: 10, 10: 10, 11: 10, 12: 10, 13: 12,
}


@lru_cache(maxsize=1)
def indicator_points() -> tuple[float, ...]:
    """The 100 exceptional points of the ``finite-indicator`` entry."""
    points = []
    for depth, count in INDICATOR_DEPTH_COUNTS.items():
        scale = 2.0 ** depth
        points.extend((2 * i + 1) / scale for i in range(count))
    return tuple(sorted(points))


@lru_cache(maxsize=1)
def _indicator_array() -> np.ndarray:
    arr = np.array(indicator_points())
    arr.setflags(write=False)
    return arr


def _indicator(ts: np.ndarray) -> np.ndarray:
    return np.isin(np.asarray(ts, dtype=float), _indicator_array()).astype(float)


# ---------------------------------------------------------------------------
# gauge families


def osc_singular_family(c0: float = 1e-3, name: str = "osc-singular") -> GaugeFamily:
    """Gauge schedule for ``osc-derivative`` on [0, 1].

    Three zones, intersected:  near the origin the width follows 0.4 t^3,
    a fixed fraction of the local oscillation period pi t^3 of sin(1/t^2);
    above that a t^2 law c_m t^2 whose quadrature error telescopes against
    the antiderivative of cos(1/s^2)/s^3 and totals O(c_m^2); and a flat
    cap c_m / 2 for the tame outer region.  At the origin itself the width
    is a constant 2.5e-3, which makes bisection accept one piece
    [0, 2^-10] tagged at zero, contributing |F(2^-10)| < 1e-6 instead of a
    divergent tail.  The level schedule shrinks c_m by 2^(-m/2).

    Calibrated so a two-level run lands within a few 1e-7 of the true
    value at roughly 2e6 pieces per level.
    """
    w0 = 2.5e-3
    steep = 0.4

    def at_level(level: int) -> Gauge:
        c = c0 * 2.0 ** (-level / 2.0)
        cap = c / 2.0

        def width(ts: np.ndarray):
            d = np.minimum(np.minimum(steep * ts ** 3, c * ts * ts), cap)
            d = np.where(ts == 0.0, w0, d)
            half = d / 2.0
            return half, half

        return Gauge(width=width)

    return GaugeFamily(name=name, at_level=at_level, nested=True)


def indicator_pinch_family(pinch: float = 1e-11, base: float = 0.25,
                           name: str = "indicator-pinch") -> GaugeFamily:
    """Pinches the gauge to ``pinch * 2^-m`` at the exceptional points.

    Bisection then never tags an exceptional point (a neighbour candidate
    always accepts first), so every Riemann sum of the indicator is exactly
    zero; a point could only sneak in as a tag with a piece thinner than
    the pinch width.
    """
    points = _indicator_array()

    def at_level(level: int) -> Gauge:
        pw = pinch * 2.0 ** -level
        bw = base * 2.0 ** -level

        def width(ts: np.ndarray):
            d = np.where(np.isin(ts, points), pw, bw)
            half = d / 2.0
            return half, half

        return Gauge(width=width)

    return GaugeFamily(name=name, at_level=at_level, nested=True)


_GAUGE_BUILDERS = {
    "uniform": lambda domain: uniform_gauge_family(domain),
    "uniform-2/3": lambda domain: scaled_uniform_family(domain, 2.0 / 3.0,
                                                        "uniform-2/3"),
    "osc-singular": lambda domain: osc_singular_family(),
    "osc-singular-fine": lambda domain: osc_singular_family(
        c0=5e-4, name="osc-singular-fine"),
    "indicator-pinch": lambda domain: indicator_pinch_family(),
    "indicator-pinch-alt": lambda domain: indicator_pinch_family(
        pinch=1e-12, base=0.2, name="indicator-pinch-alt"),
}


def gauge_family_ids() -> tuple[str, ...]:
    return tuple(sorted(_GAUGE_BUILDERS))


def _lookup(entries: dict, identifier, kind: str):
    """The entry under a string id; any other id is unknown."""
    if isinstance(identifier, str) and identifier in entries:
        return entries[identifier]
    raise ScenarioError(f"unknown {kind} {identifier!r}; "
                        f"known: {', '.join(sorted(entries))}")


def gauge_family(identifier: str, domain: Interval) -> GaugeFamily:
    builder = _lookup(_GAUGE_BUILDERS, identifier, "gauge family")
    return builder(Interval.coerce(domain))


# ---------------------------------------------------------------------------
# scalar catalog

@lru_cache(maxsize=None)
def _scalar_entries() -> dict[str, ScalarIntegrand]:
    return {
        "constant": ScalarIntegrand(
            name="constant", fn=lambda ts: np.ones_like(ts), sup_abs=1.0),
        "linear": ScalarIntegrand(
            name="linear", fn=lambda ts: ts, sup_abs=1.0),
        "monomial2": ScalarIntegrand(
            name="monomial2", fn=lambda ts: ts ** 2, sup_abs=1.0),
        "monomial3": ScalarIntegrand(
            name="monomial3", fn=lambda ts: ts ** 3, sup_abs=1.0),
        "poly-deg5": ScalarIntegrand(
            name="poly-deg5", fn=_poly5, sup_abs=0.5),
        "trig-mix": ScalarIntegrand(
            name="trig-mix", fn=_trig_mix, sup_abs=2.0),
        "osc-derivative": ScalarIntegrand(
            name="osc-derivative", fn=_osc_derivative,
            gauge_family=osc_singular_family(), sup_abs=None),
        "finite-indicator": ScalarIntegrand(
            name="finite-indicator", fn=_indicator,
            gauge_family=indicator_pinch_family(), sup_abs=1.0),
    }


def scalar_ids() -> tuple[str, ...]:
    return tuple(sorted(_scalar_entries()))


def scalar_integrand(identifier: str) -> ScalarIntegrand:
    return _lookup(_scalar_entries(), identifier, "integrand")


# ---------------------------------------------------------------------------
# random-function catalog


@dataclass(frozen=True)
class RandomEntry:
    """A catalog random function with its shipped integration strategies."""

    name: str
    description: str
    function: RandomFunction
    domain: Interval
    strategies: tuple[GaugeFamily, GaugeFamily]
    dominator: RandomVariable | None


@lru_cache(maxsize=1)
def two_point_space() -> DiscreteProbabilitySpace:
    return DiscreteProbabilitySpace.uniform(("w1", "w2"))


def _dominator_from_bases(coefficients, bases) -> RandomVariable | None:
    """A(omega) = max_k |C_k(omega)| * sum_k sup|phi_k|; None when a basis
    has no finite sup bound."""
    sups = [b.sup_abs for b in bases]
    if any(s is None for s in sups):
        return None
    total = math.fsum(sups)
    values = np.max(np.abs([c.values for c in coefficients]), axis=0) * total
    return RandomVariable(space=coefficients[0].space, values=values)


def _separable(coefficient_values, basis_ids, extra_bases=()) -> SeparableRandomFunction:
    space = two_point_space()
    coefficients = tuple(
        RandomVariable(space=space, values=vals)
        for vals in coefficient_values
    )
    bases = tuple(scalar_integrand(b) for b in basis_ids) + tuple(extra_bases)
    return SeparableRandomFunction(coefficients=coefficients, bases=bases)


def _random_entry(name, description, values, basis_ids,
                  strategies=None) -> RandomEntry:
    """A two-point separable entry on [0, 1]; the uniform strategies unless
    others are given."""
    f = _separable(values, basis_ids)
    if strategies is None:
        strategies = (uniform_gauge_family(UNIT),
                      scaled_uniform_family(UNIT, 2.0 / 3.0, "uniform-2/3"))
    return RandomEntry(
        name=name, description=description, function=f, domain=UNIT,
        strategies=strategies,
        dominator=_dominator_from_bases(f.coefficients, f.bases))


@lru_cache(maxsize=None)
def _random_entries() -> dict[str, RandomEntry]:
    entries = (
        _random_entry("zero", "identically zero", [(0.0, 0.0)], ["constant"]),
        _random_entry("linear-coeff", "C * t with C = (1, 2)", [(1.0, 2.0)],
                      ["linear"]),
        _random_entry("affine-pair", "C1 * 1 + C2 * t",
                      [(1.0, 1.0), (0.0, 3.0)], ["constant", "linear"]),
        _random_entry("quadratic-coeff", "C * t^2", [(1.0, 2.0)],
                      ["monomial2"]),
        _random_entry("trig-coeff", "C * (sin 3t + cos 2t)", [(1.0, 2.0)],
                      ["trig-mix"]),
        _random_entry(
            "osc-coeff",
            "C * d/dt[t^2 sin(1/t^2)]; needs the singular family",
            [(1.0, 2.0)], ["osc-derivative"],
            strategies=(osc_singular_family(),
                        osc_singular_family(c0=5e-4,
                                            name="osc-singular-fine"))),
        _random_entry(
            "indicator-coeff",
            "C * indicator of the 100-point exceptional set",
            [(1.0, 2.0)], ["finite-indicator"],
            strategies=(indicator_pinch_family(),
                        indicator_pinch_family(pinch=1e-12, base=0.2,
                                               name="indicator-pinch-alt"))),
    )
    return {entry.name: entry for entry in entries}


def random_ids() -> tuple[str, ...]:
    return tuple(sorted(_random_entries()))


def dominated_ids() -> tuple[str, ...]:
    """Entries shipping a finite dominating variable (exchange-check ready)."""
    return tuple(
        name for name in random_ids()
        if _random_entries()[name].dominator is not None
    )


def random_entry(identifier: str) -> RandomEntry:
    return _lookup(_random_entries(), identifier, "random function")


# ---------------------------------------------------------------------------
# antiderivative / derivative pairs


@dataclass(frozen=True)
class FtcEntry:
    """A random antiderivative with its pathwise derivative."""

    name: str
    antiderivative: RandomFunction
    derivative: RandomFunction
    domain: Interval
    t0: float


@lru_cache(maxsize=None)
def _ftc_entries() -> dict[str, FtcEntry]:
    double_linear = ScalarIntegrand(
        name="double-linear", fn=lambda ts: 2.0 * ts, sup_abs=2.0)
    osc_anti = ScalarIntegrand(
        name="osc-antiderivative", fn=_osc_antiderivative, sup_abs=1.0)
    entries = {
        "ftc-quadratic": FtcEntry(
            name="ftc-quadratic",
            antiderivative=_separable([(1.0, 2.0)], ["monomial2"]),
            derivative=_separable([(1.0, 2.0)], [], extra_bases=(double_linear,)),
            domain=UNIT, t0=0.5),
        "ftc-singular": FtcEntry(
            name="ftc-singular",
            antiderivative=_separable([(1.0, 2.0)], [], extra_bases=(osc_anti,)),
            derivative=_separable([(1.0, 2.0)], ["osc-derivative"]),
            domain=UNIT, t0=0.5),
    }
    return entries


def ftc_ids() -> tuple[str, ...]:
    return tuple(sorted(_ftc_entries()))


def ftc_entry(identifier: str) -> FtcEntry:
    return _lookup(_ftc_entries(), identifier, "antiderivative pair")
