"""Deterministic gauge quadrature: Riemann sums over sharp divisions.

The integral of phi is approximated by sums  sum phi(xi_i) (x_{i+1} - x_i)
over divisions built from a shrinking gauge family; two successive levels
agreeing within the tolerance is the stopping certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import EvaluationError
from .gauges import GaugeFamily, Interval, uniform_gauge_family
from .partitions import DEFAULT_MAX_DEPTH, TaggedDivision, cousin_partition

DEFAULT_MAX_LEVELS = 40


@dataclass(frozen=True)
class ScalarIntegrand:
    """A named real function of one variable with optional extras.

    ``vector_fn`` evaluates a whole tag array at once.  ``gauge_family``
    pairs the integrand with the gauge schedule that integrates it (needed
    for integrands that no constant-width family can handle).  ``sup_abs``
    is an upper bound for |fn| on ``domain`` when one is finite, used to
    assemble dominating variables.
    """

    name: str
    fn: Callable[[float], float]
    vector_fn: Callable[[np.ndarray], np.ndarray] | None = None
    gauge_family: GaugeFamily | None = None
    sup_abs: float | None = None
    domain: Interval = Interval(0.0, 1.0)

    def __call__(self, t: float) -> float:
        return self.fn(t)

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        if self.vector_fn is not None:
            return np.asarray(self.vector_fn(ts), dtype=float)
        return np.array([self.fn(float(t)) for t in ts], dtype=float)


def _evaluate(phi, tags: np.ndarray) -> np.ndarray:
    if isinstance(phi, ScalarIntegrand):
        return phi.values_at(tags)
    try:
        values = np.asarray(phi(tags), dtype=float)
        if values.shape == tags.shape:
            return values
    except Exception:
        pass
    return np.array([phi(float(t)) for t in tags], dtype=float)


def riemann_sum_scalar(phi, division: TaggedDivision) -> float:
    """sum phi(xi_i) (x_{i+1} - x_i) over the division's pieces."""
    values = _evaluate(phi, division.tags)
    bad = ~np.isfinite(values)
    if bad.any():
        t_bad = float(division.tags[bad][0])
        raise EvaluationError(
            f"integrand returned a non-finite value at tag {t_bad!r}", tag=t_bad
        )
    return float(np.sum(values * division.widths))


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus the certificate of how it was reached."""

    value: float
    refinement_levels: int
    final_mesh_bound: float
    converged: bool


def kh_levels(phi, domain: Interval, gauge_family: GaugeFamily | None = None,
              max_levels: int = DEFAULT_MAX_LEVELS,
              max_depth: int = DEFAULT_MAX_DEPTH,
              ) -> Iterator[tuple[int, TaggedDivision, float]]:
    """Yield (level, division, riemann sum) for successive gauge levels."""
    if max_levels < 0:
        raise ValueError(f"max_levels must be >= 0, got {max_levels}")
    domain = Interval.coerce(domain)
    family = _resolve_family(phi, domain, gauge_family)
    for level in range(max_levels + 1):
        division = cousin_partition(family(level), domain, max_depth=max_depth)
        yield level, division, riemann_sum_scalar(phi, division)


def _resolve_family(phi, domain: Interval,
                    gauge_family: GaugeFamily | None) -> GaugeFamily:
    if gauge_family is not None:
        return gauge_family
    if isinstance(phi, ScalarIntegrand) and phi.gauge_family is not None:
        return phi.gauge_family
    return uniform_gauge_family(domain)


def kh_integrate(phi, domain: Interval, tol: float,
                 gauge_family: GaugeFamily | None = None,
                 max_levels: int = DEFAULT_MAX_LEVELS,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> QuadratureResult:
    """Iterate gauge levels until two successive sums agree within ``tol``.

    The default family halves a uniform width each level; integrands that
    need local pinching (a singular point, an exceptional set) supply their
    own family.  Hitting the level cap is reported in-band via
    ``converged=False`` with the best estimate, not as an error.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    previous = None
    level = mesh = value = None
    for level, division, value in kh_levels(
            phi, domain, gauge_family, max_levels, max_depth):
        mesh = division.mesh
        if previous is not None and abs(value - previous) <= tol:
            return QuadratureResult(
                value=value, refinement_levels=level,
                final_mesh_bound=mesh, converged=True,
            )
        previous = value
    return QuadratureResult(
        value=value, refinement_levels=level,
        final_mesh_bound=mesh, converged=False,
    )
