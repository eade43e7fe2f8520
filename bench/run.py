"""Run one workload of the gaugeprob benchmark and print its metrics.

    python3 bench/run.py --workload singular --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are taken from
this file).  Each workload runs in fresh processes started by this script:
``SETUP_SAMPLES - 1`` processes that only set up and exit, then one that
sets up and runs the timed rounds, closed loop, one command at a time.
Set-up time is measured here, from starting a process until it prints
READY, and reported as the median over all of them.

With ``--trace 0`` the last line of output holds the end-to-end metrics:
``wall_s`` (median time of one round of the workload's commands),
``setup_s``, ``peak_rss_mb`` (``ru_maxrss`` of the measured process) and
``cmd_p50_ms`` (median latency of one command; a run has fewer than forty
commands, so no tail percentile is given).  With ``--trace 1`` it holds the
per-layer metrics of a traced run instead; see README.md.

Exit status is 0 when the run completed (``correct`` says whether every
check passed), and non-zero without a result line when it could not run,
for instance when ``src/gaugeprob`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("singular", "sampled-separable", "sampled-pathwise")
SETUP_SAMPLES = 9
# Every run must end within 180 s; the worker is stopped well before that.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _start(args, setup_only: bool) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "GAUGEPROB_LOG"}
    return subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)


def _read_until(proc, deadline: float, want_ready: bool) -> bytes:
    """Read the worker's stdout until READY (or until it closes)."""
    data = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            if want_ready and b"READY\n" in data:
                return data
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError("worker did not finish in time")
            if not selector.select(timeout=remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return data
            data += chunk


def _run_worker(args, setup_only: bool, deadline: float):
    """Start one worker; return (set-up seconds, its final JSON or None)."""
    started = time.perf_counter()
    proc = _start(args, setup_only)
    try:
        head = _read_until(proc, deadline, want_ready=True)
        setup_s = time.perf_counter() - started
        if b"READY\n" not in head:
            raise WorkerError("worker exited during set-up")
        tail = _read_until(proc, deadline, want_ready=False)
        status = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if status != 0:
        raise WorkerError(f"worker exited with status {status}")
    if setup_only:
        return setup_s, None
    lines = (head + tail).decode().strip().splitlines()
    return setup_s, json.loads(lines[-1])


def _per_layer(report: dict) -> dict:
    """Counts of the first traced round (every round repeats them) and the
    median over traced rounds of every time."""
    rounds = report["per_round"]
    metrics = {}
    for name, value in rounds[0].items():
        if name.endswith("_s"):
            value = statistics.median(r[name] for r in rounds)
        metrics[name] = value
    untraced = statistics.median(sum(r) for r in report["rounds"])
    traced = statistics.median(sum(r) for r in report["traced_rounds"])
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaugeprob benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaugeprob" / "__init__.py").is_file():
        print(f"run.py: no gaugeprob sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_run_worker(args, True, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, report = _run_worker(args, False, deadline)
    except (WorkerError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    rounds = report["rounds"] + report.get("traced_rounds", [])
    attempted = sum(len(r) for r in rounds)
    if args.trace:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in _per_layer(report).items()}
        if report["missing"]:
            print(f"run.py: not found in the program: "
                  f"{', '.join(report['missing'])}; metrics that only they "
                  f"provide are left out", file=sys.stderr)
    else:
        latencies = [t for r in report["rounds"] for t in r]
        values = {
            "wall_s": statistics.median(sum(r) for r in report["rounds"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            "cmd_p50_ms": 1e3 * statistics.median(latencies),
        }
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        print(f"run.py: {len(report['rounds'])} rounds, {len(latencies)} "
              f"commands, {len(setups)} set-up samples", file=sys.stderr)
    print(json.dumps({"correct": report["wrong"] == 0,
                      "attempted": attempted,
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
