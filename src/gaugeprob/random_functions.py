"""Random functions: maps t -> random variable on a finite space.

Two concrete forms:

* ``SeparableRandomFunction`` -- sum_k C_k(omega) * phi_k(t) with random
  coefficients and deterministic basis functions; integrates exactly
  through the scalar integrals of its bases.
* ``PathwiseRandomFunction`` -- a bare evaluator of its (outcomes x tags)
  value matrix; the general form, integrated path by path under one shared
  gauge.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import InitVar, dataclass
from typing import Callable, Union

import numpy as np

from .errors import SpaceMismatchError
from .gauges import GaugeFamily, intersect_families
from .probability import DiscreteProbabilitySpace, RandomVariable
from .quadrature import _BLOCK_CELLS, ScalarIntegrand, values_in_blocks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# Pathwise values are evaluated in column blocks, so no outcomes x tags
# matrix is held whole.  About _BLOCK_CELLS (outcome, tag) cells are in
# flight: a separable view takes blocks of up to _BLOCK_CELLS cells one
# after another, a genuine pathwise evaluator blocks of _BLOCK_CELLS // 2
# cells on up to _WORKERS threads.  A block holds at least one column, so
# with more outcomes than that it is one column.
_WORKERS = min(2, _usable_cpus())
_pool = None  # created on the first parallel call


def _forget_pool() -> None:
    # A forked child has none of the pool's threads; it makes its own.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass(frozen=True)
class SeparableRandomFunction:
    """f(t, omega) = sum_k coefficients[k](omega) * bases[k](t)."""

    coefficients: tuple[RandomVariable, ...]
    bases: tuple[ScalarIntegrand, ...]

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("separable form needs at least one term")
        if len(self.coefficients) != len(self.bases):
            raise ValueError("need exactly one basis per coefficient")
        space = self.coefficients[0].space
        for c in self.coefficients[1:]:
            if c.space != space:
                raise SpaceMismatchError(
                    "all coefficients must live on the same space"
                )

    @property
    def space(self) -> DiscreteProbabilitySpace:
        return self.coefficients[0].space

    @property
    def terms(self) -> int:
        return len(self.coefficients)

    def coefficient_matrix(self) -> np.ndarray:
        return np.stack([c.values for c in self.coefficients], axis=1)

    @property
    def gauge_family(self) -> GaugeFamily | None:
        """The levelwise intersection of the bases' families, if any: one
        gauge must serve every term (and every outcome) at once."""
        families = [b.gauge_family for b in self.bases
                    if b.gauge_family is not None]
        return intersect_families(families) if families else None


@dataclass(frozen=True)
class PathwiseRandomFunction:
    """f given by a pure pathwise evaluator.

    ``matrix_evaluate`` maps a tag array to its (outcomes x tags) value
    matrix.  It is called on contiguous slices of a division's tags and
    must return one row per outcome for any slice: the dense sum, the mean
    path and the domination check evaluate f in the same column blocks of
    ``_BLOCK_CELLS // 2`` (2^19) cells.  Up to two threads call it at once,
    on disjoint slices, so it must be pure and thread-safe.  A pointwise
    ``evaluate(t, outcome)`` may be given instead, at construction only: it
    is lifted once to the loop over every outcome and tag that fills the
    matrix.
    """

    space: DiscreteProbabilitySpace
    evaluate: InitVar[Callable[[float, int], float] | None] = None
    matrix_evaluate: Callable[[np.ndarray], np.ndarray] | None = None
    gauge_family: GaugeFamily | None = None

    def __post_init__(self, evaluate):
        if self.matrix_evaluate is not None:
            return
        if evaluate is None:
            raise TypeError("PathwiseRandomFunction needs matrix_evaluate "
                            "or evaluate")
        n = self.space.size

        def matrix_evaluate(ts: np.ndarray) -> np.ndarray:
            return np.array(
                [[evaluate(float(t), i) for t in ts] for i in range(n)],
                dtype=float)

        object.__setattr__(self, "matrix_evaluate", matrix_evaluate)


class _SeparableView(PathwiseRandomFunction):
    """``as_pathwise``'s view of a separable function.  Its blocks are
    evaluated in the calling thread: its evaluator is cheap, and a second
    thread's malloc arena costs more peak memory than the thread saves in
    time."""


RandomFunction = Union[SeparableRandomFunction, PathwiseRandomFunction]


def as_pathwise(f: RandomFunction) -> PathwiseRandomFunction:
    """View any random function through its pointwise values f(t, omega).

    For a separable function this evaluates the sum of coefficient-scaled
    basis values at each (t, omega), as an (outcomes x tags) matrix.  The
    view serves pointwise values: domination checks, derivatives and
    endpoint values.  Sums do not go through it; ``random_riemann_sum``
    sums a separable function with rank K, and a pathwise integration of
    the view itself is a dense, independent route to the same integral.
    """
    if isinstance(f, PathwiseRandomFunction):
        return f
    coeffs = f.coefficient_matrix()  # outcomes x terms

    def matrix_evaluate(ts: np.ndarray) -> np.ndarray:
        return coeffs @ values_in_blocks(f.bases, ts)

    return _SeparableView(
        space=f.space,
        matrix_evaluate=matrix_evaluate,
        gauge_family=f.gauge_family,
    )


def values_matrix(f: PathwiseRandomFunction, ts: np.ndarray) -> np.ndarray:
    """All pathwise values as an (outcomes x tags) matrix.

    Overflow and invalid operations raise no NumPy warning; the values
    come back non-finite, for the caller to report with their place."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(f.matrix_evaluate(ts), dtype=float)


def _executor():
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_WORKERS,
                                   thread_name_prefix="gaugeprob-blocks")
    return _pool


def map_blocks(f: PathwiseRandomFunction, ts: np.ndarray, work):
    """Yield work(start, values_matrix(f, ts[start:start + step])) over
    consecutive column blocks of the tags, in block order.

    A block holds at least one column.  A separable view's blocks hold at
    most _BLOCK_CELLS cells and are evaluated here, one after another.  A
    genuine pathwise function's blocks hold _BLOCK_CELLS // 2 cells, and
    ``work`` runs on them in up to _WORKERS pool threads, at most _WORKERS
    blocks at a time.  The block size never depends on the CPU count, so
    neither do the results.  An exception raised by one block is raised
    here when its turn comes.  Closing the generator early cancels the
    blocks not yet begun and waits for those running."""
    view = isinstance(f, _SeparableView)
    cells = _BLOCK_CELLS if view else _BLOCK_CELLS // 2
    step = max(1, cells // f.space.size)
    starts = range(0, ts.size, step)
    if view or _WORKERS == 1 or len(starts) == 1:
        for start in starts:
            # The previous block is freed only once this one is built:
            # freeing it first costs page faults on every block.
            block = values_matrix(f, ts[start:start + step])
            yield work(start, block)
        return

    def task(start):
        return work(start, values_matrix(f, ts[start:start + step]))

    from concurrent.futures import wait
    pool, pending = _executor(), deque()
    try:
        for start in starts:
            if len(pending) == _WORKERS:
                yield pending.popleft().result()
            pending.append(pool.submit(task, start))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def expectation_function(f: RandomFunction) -> ScalarIntegrand:
    """The deterministic function t -> E[f(t, .)], as a scalar integrand.

    A pathwise mean is taken block by block over ``map_blocks``, as the
    weighted column sums ``(weights[:, None] * block).sum(axis=0)``: each
    column is summed over the outcomes in order, so the result does not
    change a bit with the block size.  (``weights @ block`` would: BLAS
    rounds a column by its position in the product.)"""
    weights = f.space.weights

    if isinstance(f, SeparableRandomFunction):
        means = np.array([float(weights @ c.values) for c in f.coefficients])

        def fn(ts: np.ndarray) -> np.ndarray:
            return means @ values_in_blocks(f.bases, ts)

    else:
        def column_means(start, block):
            with np.errstate(invalid="ignore"):  # 0 * inf: NaN, reported later
                return (weights[:, None] * block).sum(axis=0)

        def fn(ts: np.ndarray) -> np.ndarray:
            means = list(map_blocks(f, np.asarray(ts, dtype=float),
                                    column_means))
            return np.concatenate(means or [np.empty(0)])

    return ScalarIntegrand(name="mean-path", fn=fn, gauge_family=f.gauge_family)
