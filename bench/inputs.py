"""Seeded inputs for the sampled workloads, with their expected integrals.

The generator uses only the standard library, so the expected values it
writes are computed apart from the program under test:

* sampled-separable: f(t, w) = C1(w) (sin 3t + cos 2t) + C2(w) t on [0, 1],
  with C1, C2 uniform in [-2, 2] and I(w) = C1 (1 - cos 3)/3 + C1 sin 2 / 2
  + C2 / 2.
* sampled-pathwise: f(t, w) = cos(a(w) t + b(w)) with a uniform in [1, 20]
  and b uniform in [0, 2 pi), so I(w) = (sin(a + b) - sin b) / a.

Both spaces have non-uniform positive weights; expectations are
``math.fsum``-weighted means.  Equal seeds give byte-identical files.

Run as a script to write one workload's files:

    python3 bench/inputs.py --workload sampled-separable --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

SEPARABLE_OUTCOMES = 10_000
PATHWISE_OUTCOMES = 5_000

# Integration parameters shared by both sampled workloads.
PARAMETERS = {"domain": [0.0, 1.0], "eps": 1e-3, "eta": 1e-2, "tol": 1e-6,
              "strategies": ["uniform", "uniform-2/3"]}

TRIG_MIX_INTEGRAL = (1.0 - math.cos(3.0)) / 3.0 + math.sin(2.0) / 2.0
LINEAR_INTEGRAL = 0.5
# Integral of d/dt[t^2 sin(1/t^2)] over [0, 1].
OSC_DERIVATIVE_INTEGRAL = math.sin(1.0)


def _weights(rng: random.Random, n: int) -> list[float]:
    raw = [0.5 + rng.random() for _ in range(n)]
    total = math.fsum(raw)
    return [w / total for w in raw]


def _space(weights: list[float]) -> dict:
    return {"outcomes": [f"w{i}" for i in range(len(weights))],
            "weights": weights}


def weighted_mean(weights, values) -> float:
    return math.fsum(w * v for w, v in zip(weights, values))


def separable_inputs(seed: int, n: int = SEPARABLE_OUTCOMES) -> dict:
    """Scenario plus expected values for the rank-2 separable workload."""
    rng = random.Random(f"sampled-separable/{seed}")
    weights = _weights(rng, n)
    c1 = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    c2 = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    # |sin 3t + cos 2t| <= 2 and |t| <= 1 on [0, 1].
    dominator = [3.0 * max(abs(x), abs(y)) for x, y in zip(c1, c2)]
    scenario = {
        "schema": "gaugeprob.scenario/1",
        "space": _space(weights),
        "function": {"form": "separable", "terms": [
            {"values": c1, "basis": "trig-mix"},
            {"values": c2, "basis": "linear"},
        ]},
        "dominator": {"values": dominator},
        **PARAMETERS,
    }
    integrals = [math.fsum((x * TRIG_MIX_INTEGRAL, y * LINEAR_INTEGRAL))
                 for x, y in zip(c1, c2)]
    return {"scenario": scenario, "arrays": {"weights": weights, "c1": c1,
                                             "c2": c2},
            "expected": {"integral": integrals,
                         "mean": weighted_mean(weights, integrals)}}


def pathwise_inputs(seed: int, n: int = PATHWISE_OUTCOMES) -> dict:
    """Scenario (space and parameters), frequency and phase arrays, and
    expected values for the pathwise workload."""
    rng = random.Random(f"sampled-pathwise/{seed}")
    weights = _weights(rng, n)
    a = [rng.uniform(1.0, 20.0) for _ in range(n)]
    b = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    scenario = {
        "schema": "gaugeprob.scenario/1",
        "space": _space(weights),
        "dominator": {"values": [1.0] * n},
        **PARAMETERS,
    }
    integrals = [(math.sin(x + y) - math.sin(y)) / x for x, y in zip(a, b)]
    return {"scenario": scenario, "arrays": {"weights": weights, "a": a,
                                             "b": b},
            "expected": {"integral": integrals,
                         "mean": weighted_mean(weights, integrals)}}


GENERATORS = {"sampled-separable": separable_inputs,
              "sampled-pathwise": pathwise_inputs}


def write_inputs(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write scenario.json, arrays.json and expected.json under ``out``."""
    data = GENERATORS[workload](seed)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key in ("scenario", "arrays", "expected"):
        paths[key] = out / f"{key}.json"
        paths[key].write_text(json.dumps(data[key]), encoding="utf-8")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write_inputs(args.workload, args.seed, args.out).values():
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
