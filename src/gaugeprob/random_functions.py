"""Random functions: maps t -> random variable on a finite space.

Two concrete forms:

* ``SeparableRandomFunction`` -- sum_k C_k(omega) * phi_k(t) with random
  coefficients and deterministic basis functions; integrates exactly
  through the scalar integrals of its bases.
* ``PathwiseRandomFunction`` -- a bare evaluator (t, outcome index) -> real;
  the general form, integrated path by path under one shared gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def evaluate(self, t: float, outcome: int) -> float:
        return sum(
            c.values[outcome] * basis.fn(t)
            for c, basis in zip(self.coefficients, self.bases)
        )

    def coefficient_matrix(self) -> np.ndarray:
        return np.stack([c.to_array() for c in self.coefficients], axis=1)

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

    ``vector_evaluate`` optionally maps (tag array, outcome) -> value array;
    ``matrix_evaluate`` optionally maps a tag array to the full
    (outcomes x tags) value matrix.  Both must agree with ``evaluate``.
    """

    space: DiscreteProbabilitySpace
    evaluate: Callable[[float, int], float]
    vector_evaluate: Callable[[np.ndarray, int], np.ndarray] | None = None
    matrix_evaluate: Callable[[np.ndarray], np.ndarray] | None = None
    gauge_family: GaugeFamily | None = None


RandomFunction = Union[SeparableRandomFunction, PathwiseRandomFunction]


def as_pathwise(f: RandomFunction) -> PathwiseRandomFunction:
    """View any random function through its pointwise values f(t, omega).

    For a separable function this evaluates the sum of coefficient-scaled
    basis values at each (t, omega); no scalar integrals are reused, so a
    pathwise integration of the view is an independent route to the same
    integral.
    """
    if isinstance(f, PathwiseRandomFunction):
        return f
    coeffs = f.coefficient_matrix()  # outcomes x terms

    def matrix_evaluate(ts: np.ndarray) -> np.ndarray:
        basis_values = np.stack([b.values_at(ts) for b in f.bases], axis=0)
        return coeffs @ basis_values

    return PathwiseRandomFunction(
        space=f.space,
        evaluate=f.evaluate,
        matrix_evaluate=matrix_evaluate,
        gauge_family=f.gauge_family,
    )


def values_matrix(f: PathwiseRandomFunction, ts: np.ndarray) -> np.ndarray:
    """All pathwise values as an (outcomes x tags) matrix."""
    if f.matrix_evaluate is not None:
        return np.asarray(f.matrix_evaluate(ts), dtype=float)
    n = f.space.size
    if f.vector_evaluate is not None:
        return np.stack(
            [np.asarray(f.vector_evaluate(ts, i), dtype=float) for i in range(n)],
            axis=0,
        )
    return np.array(
        [[f.evaluate(float(t), i) for t in ts] for i in range(n)], dtype=float
    )


def expectation_function(f: RandomFunction) -> ScalarIntegrand:
    """The deterministic function t -> E[f(t, .)], as a scalar integrand."""
    weights = np.array(f.space.weights)

    if isinstance(f, SeparableRandomFunction):
        means = np.array([float(weights @ c.to_array()) for c in f.coefficients])
        bases = f.bases

        def fn(t: float) -> float:
            return float(sum(m * b.fn(t) for m, b in zip(means, bases)))

        def vector_fn(ts: np.ndarray) -> np.ndarray:
            basis_values = np.stack([b.values_at(ts) for b in bases], axis=0)
            return means @ basis_values

    else:
        def fn(t: float) -> float:
            return float(sum(
                w * f.evaluate(t, i) for i, w in enumerate(weights)
            ))

        def vector_fn(ts: np.ndarray) -> np.ndarray:
            return weights @ values_matrix(f, np.asarray(ts, dtype=float))

    return ScalarIntegrand(name="mean-path", fn=fn, vector_fn=vector_fn,
                           gauge_family=f.gauge_family)
