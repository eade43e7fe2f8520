"""Deterministic gauge quadrature: Riemann sums over sharp divisions.

The integral of phi is approximated by sums  sum phi(xi_i) (x_{i+1} - x_i)
over divisions built from a shrinking gauge family; two successive levels
agreeing within the tolerance is the stopping certificate.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import EvaluationError
from .gauges import GaugeFamily, Interval, uniform_gauge_family
from .partitions import TaggedDivision, cousin_partition

DEFAULT_MAX_LEVELS = 40

# Integrands, and the pathwise values of random functions, are evaluated in
# column blocks of about this many (row, tag) cells, so no temporary spans
# a whole multi-million-piece division.
_BLOCK_CELLS = 1 << 20

log = logging.getLogger("gaugeprob")


@dataclass(frozen=True)
class ScalarIntegrand:
    """A named real function of one variable with optional extras.

    ``fn`` maps an ndarray of tags to their values; a result that
    broadcasts to the tags' shape, such as a constant, is accepted.
    ``gauge_family`` pairs the integrand with the gauge schedule that
    integrates it (needed for integrands that no constant-width family can
    handle).  ``sup_abs`` is an upper bound for |fn| on ``domain`` when one
    is finite, used to assemble dominating variables.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    gauge_family: GaugeFamily | None = None
    sup_abs: float | None = None
    domain: Interval = Interval(0.0, 1.0)

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        return _evaluate(self, ts)


def _evaluate(phi, tags: np.ndarray) -> np.ndarray:
    """phi, a :class:`ScalarIntegrand` or a bare array callable, called on
    one array of tags; the result is broadcast to the tags' shape.  Sums
    call it on contiguous slices of a division's tags, so an integrand must
    be pointwise."""
    fn = phi.fn if isinstance(phi, ScalarIntegrand) else phi
    tags = np.asarray(tags, dtype=float)
    return np.broadcast_to(np.asarray(fn(tags), dtype=float), tags.shape)


def values_in_blocks(integrands, tags: np.ndarray) -> np.ndarray:
    """The len(integrands) x tags.size array of the integrands' values,
    filled in column blocks of at most _BLOCK_CELLS cells (at least one
    column), so an integrand's temporaries never span a whole division.
    A NumPy ufunc gives the same bits at any array length."""
    tags = np.asarray(tags, dtype=float)
    values = np.empty((len(integrands), tags.size))
    step = max(1, _BLOCK_CELLS // len(integrands))
    for start in range(0, tags.size, step):
        block = tags[start:start + step]
        for row, phi in zip(values, integrands):
            row[start:start + step] = _evaluate(phi, block)
    return values


def riemann_sum_scalar(phi, division: TaggedDivision) -> float:
    """sum phi(xi_i) (x_{i+1} - x_i) over the division's pieces."""
    values = values_in_blocks((phi,), division.tags)[0]
    bad = ~np.isfinite(values)
    if bad.any():
        t_bad = float(division.tags[bad][0])
        raise EvaluationError(
            f"integrand returned a non-finite value at tag {t_bad!r}", tag=t_bad
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values *= division.widths
        total = float(np.sum(values))
    if not math.isfinite(total):
        raise EvaluationError("Riemann sum of the integrand is not finite")
    return total


def resolve_gauge_family(integrand, domain: Interval,
                         override: GaugeFamily | None = None) -> GaugeFamily:
    """The override, else the integrand's own ``gauge_family``, else uniform."""
    if override is not None:
        return override
    own = getattr(integrand, "gauge_family", None)
    return own if own is not None else uniform_gauge_family(domain)


# Split ratio of the certificate's one draw beyond the constructed division:
# a fresh partition, sharp for the same gauge, cut off-center.
_FRESH_SPLIT = 0.45


class LevelPass:
    """The one pass over levels ``start..stop`` of the integrand's resolved
    family.  ``advance()`` builds the next level's division once, takes
    ``sum_over(division)`` and logs one INFO record on ``gaugeprob``;
    ``level``, ``gauge``, ``division`` and ``sums`` stay current until the
    next advance, and a consumer may swap ``sum_over`` between levels."""

    def __init__(self, integrand, domain: Interval, family: GaugeFamily | None,
                 start: int, stop: int, sum_over):
        self.family = resolve_gauge_family(integrand, domain, family)
        self.domain, self.stop, self.sum_over = domain, stop, sum_over
        self.level, self.gauge = start - 1, None
        self.division = self.sums = None

    def advance(self) -> bool:
        """Move to the next level; False, and nothing built, past ``stop``."""
        if self.level >= self.stop:
            return False
        self.level += 1
        began = time.perf_counter()
        self.gauge = self.family(self.level)
        parent = self.division if self.family.nested else None
        self.division = cousin_partition(self.gauge, self.domain,
                                         parent=parent)
        built = time.perf_counter()
        self.sums = self.sum_over(self.division)
        log.info("level %d: %d pieces, built in %.3f s, summed in %.3f s",
                 self.level, self.division.pieces, built - began,
                 time.perf_counter() - built)
        return True

    def fresh(self) -> TaggedDivision:
        """A second division sharp for the current gauge, split off-center."""
        return cousin_partition(self.gauge, self.domain, split=_FRESH_SPLIT)


class Settle:
    """The settle rule over successive levels' sums: each component freezes
    at its first successive-level agreement within ``tol``, and one that
    never agrees keeps its latest sum."""

    def __init__(self, tol: float):
        self.tol, self.values, self.settled, self.done = tol, None, None, False

    def feed(self, sums) -> bool:
        """Take one level's sums; True once every component has settled."""
        sums = np.array(sums, dtype=float, ndmin=1)
        if self.values is None:
            self.settled = np.zeros(sums.shape, dtype=bool)
        else:
            agree = np.abs(sums - self.values) <= self.tol
            sums = np.where(self.settled, self.values, sums)
            self.settled = self.settled | agree
        self.values = sums
        self.done = bool(self.settled.all())
        return self.done


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus the certificate of how it was reached."""

    value: float
    refinement_levels: int
    final_mesh_bound: float
    converged: bool


def kh_levels(phi, domain: Interval, gauge_family: GaugeFamily | None = None,
              max_levels: int = DEFAULT_MAX_LEVELS,
              ) -> Iterator[tuple[int, TaggedDivision, float]]:
    """Yield (level, division, riemann sum) for successive gauge levels."""
    if max_levels < 0:
        raise ValueError(f"max_levels must be >= 0, got {max_levels}")
    levels = LevelPass(phi, domain, gauge_family, 0, max_levels,
                       lambda division: riemann_sum_scalar(phi, division))
    while levels.advance():
        yield levels.level, levels.division, levels.sums


def kh_integrate(phi, domain: Interval, tol: float,
                 gauge_family: GaugeFamily | None = None,
                 max_levels: int = DEFAULT_MAX_LEVELS) -> QuadratureResult:
    """Iterate gauge levels until two successive sums agree within ``tol``.

    The default family halves a uniform width each level; integrands that
    need local pinching (a singular point, an exceptional set) supply their
    own family.  Hitting the level cap is reported in-band via
    ``converged=False`` with the best estimate, not as an error.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    rule = Settle(tol)
    for level, division, value in kh_levels(phi, domain, gauge_family,
                                            max_levels):
        if rule.feed(value):
            break
    return QuadratureResult(float(rule.values[0]), level, division.mesh,
                            rule.done)
