"""One workload process: set up, print READY, run timed rounds, report.

``run.py`` starts this script once per set-up sample and once for the
measured run; it is not meant to be run by hand.  Set-up covers importing
gaugeprob from ``src/``, writing and loading the inputs and the lazy
once-per-process work.  A round runs each of the workload's commands once,
in-process and one at a time; rounds repeat until ``--seconds`` have passed.
With ``--trace 1`` the untraced rounds are followed by as many seconds of
traced rounds.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_program():
    if not (SRC / "gaugeprob" / "__init__.py").is_file():
        raise SystemExit(f"worker: no gaugeprob sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaugeprob

    if Path(gaugeprob.__file__).resolve().parent != SRC / "gaugeprob":
        raise SystemExit(f"worker: imported gaugeprob from {gaugeprob.__file__}")


def _round(operations, tracer=None) -> tuple[list[float], int, int]:
    """Run every operation once.

    Returns the latencies, the number of operations that failed and how
    many of those completed with a wrong output.  An operation fails when it
    raises, or when it exits non-zero or its check finds a problem (a wrong
    output).  Each failure is printed to stderr.
    """
    latencies, failed, wrong = [], 0, 0
    for op in operations:
        op.out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            if tracer is None:
                status = op.run()
            else:
                with tracer.command(op.label):
                    status = op.run()
        except Exception:
            latencies.append(time.perf_counter() - start)
            failed += 1
            print(f"worker: FAILED {op.label}: {traceback.format_exc()}",
                  file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - start)
        try:
            problems = op.check(json.loads(op.out.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"report unreadable: {exc!r}"]
        if status != 0:
            problems.insert(0, f"exit status {status}")
        failed += bool(problems)
        wrong += bool(problems)
        for problem in problems:
            print(f"worker: FAILED {op.label}: {problem}", file=sys.stderr)
    return latencies, failed, wrong


def _phase(operations, seconds: float, tally: dict, tracer=None):
    """Whole rounds until ``seconds`` have passed; failures go to ``tally``."""
    rounds, per_round = [], []
    begin = time.perf_counter()
    while True:
        latencies, failed, wrong = _round(operations, tracer)
        rounds.append(latencies)
        tally["failed"] += failed
        tally["wrong"] += wrong
        if tracer is not None:
            per_round.append(tracer.take_round())
        if time.perf_counter() - begin >= seconds:
            return rounds, per_round


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    work = OUT / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    operations = workloads.WORKLOADS[args.workload](args.seed, work)
    workloads.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"failed": 0, "wrong": 0}
    result["rounds"], _ = _phase(operations, args.seconds, result)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, per_round = _phase(operations, args.seconds, result,
                                       tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        result.update(traced_rounds=traced, per_round=per_round,
                      missing=tracer.missing)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
