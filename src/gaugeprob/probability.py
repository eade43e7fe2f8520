"""Finite discrete probability spaces with exact event arithmetic.

Everything here is a finite weighted outcome set, so probabilities,
expectations and moments are exact sums (math.fsum), never estimates.
Events over the full power set are expressed as predicates on outcome
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpaceMismatchError

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteProbabilitySpace:
    """Outcome labels plus nonnegative weights summing to one.

    ``weights`` is a read-only 1-D float64 array, copied from the input on
    construction.  The weights must already sum to 1 within 1e-12; each is
    divided by their ``math.fsum`` total, so downstream sums see total
    mass 1.  Spaces compare and hash by value: equal labels and equal
    weights.
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        weights = np.array(self.weights, dtype=float)
        if len(labels) == 0:
            raise ValueError("a probability space needs at least one outcome")
        if weights.shape != (len(labels),):
            raise ValueError("labels and weights must have equal length")
        if not (np.isfinite(weights) & (weights >= 0)).all():
            raise ValueError("weights must be finite and nonnegative")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}"
            )
        weights /= total
        weights.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DiscreteProbabilitySpace):
            return NotImplemented
        return (self.labels == other.labels
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        # + 0.0 turns a -0.0 weight into 0.0, which compares equal to it.
        return hash((self.labels, (self.weights + 0.0).tobytes()))

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def uniform(cls, outcomes) -> "DiscreteProbabilitySpace":
        """Uniform space over an outcome count or an iterable of labels."""
        if isinstance(outcomes, int):
            labels = tuple(f"w{i}" for i in range(outcomes))
        else:
            labels = tuple(str(x) for x in outcomes)
        n = len(labels)
        if n == 0:
            raise ValueError("a probability space needs at least one outcome")
        return cls(labels=labels, weights=np.full(n, 1.0 / n))

    def as_dict(self) -> dict:
        return {"outcomes": list(self.labels), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteProbabilitySpace":
        return cls(labels=tuple(data["outcomes"]), weights=data["weights"])


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A real value per outcome of a finite space.

    ``values`` is a read-only 1-D float64 array, copied from the input on
    construction.  There is no value ``==``: compare with
    :func:`almost_surely_equal` or ``np.array_equal``.
    """

    space: DiscreteProbabilitySpace
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.space.size,):
            raise ValueError("need exactly one value per outcome")
        if not np.isfinite(values).all():
            raise ValueError("random variable values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, space: DiscreteProbabilitySpace, c: float) -> "RandomVariable":
        return cls(space=space, values=np.full(space.size, float(c)))

    def _check_space(self, other: "RandomVariable"):
        if self.space != other.space:
            raise SpaceMismatchError(
                "random variables live on different probability spaces"
            )

    def _zip_with(self, other, op) -> "RandomVariable":
        if isinstance(other, RandomVariable):
            self._check_space(other)
            other = other.values
        else:
            other = float(other)
        return RandomVariable(space=self.space, values=op(self.values, other))

    def __add__(self, other):
        return self._zip_with(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip_with(other, np.subtract)

    def __rsub__(self, other):
        return self._zip_with(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._zip_with(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return RandomVariable(space=self.space, values=-self.values)

    def __abs__(self):
        return RandomVariable(space=self.space, values=np.abs(self.values))


def prob_event(space: DiscreteProbabilitySpace,
               predicate: Callable[[int], bool]) -> float:
    """Exact probability of the event {i : predicate(i)}."""
    return math.fsum(w for i, w in enumerate(space.weights.tolist())
                     if predicate(i))


def deviation_probability(x: RandomVariable, y: RandomVariable,
                          eps: float) -> float:
    """P(|x - y| >= eps), exact.  The inequality is inclusive."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    x._check_space(y)
    return math.fsum(x.space.weights[np.abs(x.values - y.values) >= eps])


def expectation(x: RandomVariable) -> float:
    """Exact weighted mean."""
    return math.fsum(x.space.weights * x.values)


def moment(x: RandomVariable, p: float) -> float:
    """The p-th absolute moment, p >= 1.

    Always finite on a finite space; exposed because dominated-convergence
    style hypotheses are stated through first moments.  The power is
    Python's, value by value: NumPy's ``**`` can differ in the last bit.
    """
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"moment order must be >= 1, got {p}")
    return math.fsum(w * abs(v) ** p for w, v in
                     zip(x.space.weights.tolist(), x.values.tolist()))


def almost_surely_equal(x: RandomVariable, y: RandomVariable,
                        tol: float = 1e-9) -> bool:
    """True iff x and y agree within ``tol`` on every positive-weight outcome.

    Zero-weight outcomes are null sets and are ignored.
    """
    x._check_space(y)
    positive = x.space.weights > 0
    return bool(np.all((np.abs(x.values - y.values) <= tol)[positive]))
