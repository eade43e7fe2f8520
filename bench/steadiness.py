"""Run a workload on several seeds and print each metric's spread.

    python3 bench/steadiness.py --workload singular --runs 10

The spread of a metric is the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  Runs are sequential; seeds are 1..runs unless --first-seed
moves them.  The bounds in BENCHMARK.json should be at least three times
the spreads printed here.  Run results are appended to --log as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, default=HERE / "out" / "steadiness.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    args.log.parent.mkdir(parents=True, exist_ok=True)

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with args.log.open("a", encoding="utf-8") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, **result}) + "\n")
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"(failed, attempted, correct) per run: {sorted(shares)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(median):.2%}"
        else:
            spread = "n/a"
        bound = bounds.get(name)
        print(f"{name:32s} median {median:<14.6g} spread {spread:>8s}"
              + (f"  bound {bound:.0%}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
