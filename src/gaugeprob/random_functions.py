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

from dataclasses import InitVar, dataclass
from typing import Callable, Union

import numpy as np

from .errors import SpaceMismatchError
from .gauges import GaugeFamily, intersect_families
from .probability import DiscreteProbabilitySpace, RandomVariable
from .quadrature import ScalarIntegrand


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

    ``matrix_evaluate`` maps a tag array to the full (outcomes x tags) value
    matrix.  A pointwise ``evaluate(t, outcome)`` may be given instead, at
    construction only: it is lifted once to the loop over every outcome and
    tag that fills the matrix.
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
        basis_values = np.stack([b.values_at(ts) for b in f.bases], axis=0)
        return coeffs @ basis_values

    return PathwiseRandomFunction(
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


def expectation_function(f: RandomFunction) -> ScalarIntegrand:
    """The deterministic function t -> E[f(t, .)], as a scalar integrand."""
    weights = np.array(f.space.weights)

    if isinstance(f, SeparableRandomFunction):
        means = np.array([float(weights @ c.values) for c in f.coefficients])
        bases = f.bases

        def fn(ts: np.ndarray) -> np.ndarray:
            basis_values = np.stack([b.values_at(ts) for b in bases], axis=0)
            return means @ basis_values

    else:
        def fn(ts: np.ndarray) -> np.ndarray:
            return weights @ values_matrix(f, np.asarray(ts, dtype=float))

    return ScalarIntegrand(name="mean-path", fn=fn, gauge_family=f.gauge_family)
