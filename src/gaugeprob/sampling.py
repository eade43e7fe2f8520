"""Seeded construction of finite spaces and coefficient variables.

Larger ensembles are modeled as uniform-weight n-outcome spaces whose
coefficient values come from a named, versioned deterministic generator:
identical (spec, n, seed) always reproduce bit-identical output.  The
generator is the stdlib Mersenne Twister, whose ``random()`` stream is
stable across Python versions.
"""

from __future__ import annotations

import random as _random

from .errors import ScenarioError
from .probability import DiscreteProbabilitySpace, RandomVariable

GENERATOR_VERSION = "mt19937/v1"


def _parse_params(spec: str, name: str, count: int) -> list[float]:
    body = spec[len(name):].strip()
    parts = [p for p in body.split("|") if p != ""]
    if len(parts) != count:
        raise ScenarioError(
            f"distribution {spec!r}: expected {count} '|'-separated parameters"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ScenarioError(f"distribution {spec!r}: bad parameter ({exc})") from None


def check_distribution(spec) -> tuple[str, list[float]]:
    """Validate a distribution spec without drawing: (kind, parameters).

    Supported specs:

    * ``"two-point A|B"``  -- deterministic alternation A, B, A, B, ...
      (seed-independent by construction).
    * ``"uniform01"``      -- seeded draws in [0, 1).
    * ``"uniform A|B"``    -- seeded draws in [A, B).
    """
    if not isinstance(spec, str):
        raise ScenarioError(f"distribution {spec!r}: expected a string")
    spec = spec.strip()
    if spec.startswith("two-point"):
        return "two-point", _parse_params(spec, "two-point", 2)
    if spec == "uniform01":
        return "uniform", [0.0, 1.0]
    if spec.startswith("uniform"):
        return "uniform", _parse_params(spec, "uniform", 2)
    raise ScenarioError(
        f"unknown distribution {spec!r}; "
        "known: 'two-point A|B', 'uniform01', 'uniform A|B'"
    )


def sample_values(spec: str, n: int, seed: int) -> tuple[float, ...]:
    """Draw ``n`` values for a spec (see :func:`check_distribution`)."""
    if n < 1:
        raise ScenarioError(f"sample size must be >= 1, got {n}")
    kind, (a, b) = check_distribution(spec)
    if kind == "two-point":
        return tuple(a if i % 2 == 0 else b for i in range(n))
    rng = _random.Random(seed)
    return tuple(a + (b - a) * rng.random() for _ in range(n))


def sample_space(spec: str, n: int, seed: int
                 ) -> tuple[DiscreteProbabilitySpace, RandomVariable]:
    """A uniform-weight n-outcome space plus one sampled coefficient variable."""
    values = sample_values(spec, n, seed)
    space = DiscreteProbabilitySpace.uniform(n)
    return space, RandomVariable(space=space, values=values)


def sample_coefficients(spec: str, n: int, seed: int,
                        count: int) -> list[RandomVariable]:
    """Several coefficient variables on one uniform-weight n-outcome space,
    from one seeded stream (seed+k per draw)."""
    space = DiscreteProbabilitySpace.uniform(n)
    return [
        RandomVariable(space=space, values=sample_values(spec, n, seed + k))
        for k in range(count)
    ]
