"""Compare two source trees' reports, exit codes and stderr.

    python scripts/compare_reports.py OLD_TREE NEW_TREE
    python scripts/compare_reports.py OLD_TREE NEW_TREE --numeric

Each tree (a checkout with ``src/gaugeprob``) runs the gate list below in one
worker process of its own: every command goes through
``gaugeprob.cli.main`` in-process, with ``--out`` into a temporary
directory.  The reports are compared as text with the ``generated_at`` line
removed, together with the exit code and what the command wrote to stderr.
After the CLI commands, the same worker runs the library cases: library
calls on functions and gauges built in code, the route no CLI command
takes, whose ``as_dict()`` (or dataclass fields) are compared as JSON.
Among them are the partition cases: ``cousin_partition`` on every catalog
gauge family at levels 0-3 under splits 0.5 and 0.45, compared by the
sha256 of the ``points`` and ``tags`` bytes, or by the error's text.  Four
cases put non-finite values of a pathwise function in different column
blocks of one division and compare the error each call names (its type,
text, tag and outcome) or, where a call returns, its result.
Every command or case that differs is printed; the exit status is 0 only
when none does.

With ``--numeric`` the reports are parsed as JSON and walked side by side.
Float fields may move: per command, the largest absolute difference of each
float field is printed (list indices are folded, so ``result.integral[]``
covers every outcome), and the comparison fails when one exceeds
``NUMERIC_ATOL`` (1e-12).  Everything else must match exactly: the exit
code, stderr, the report's shape, every string, integer and flag
(``verified``, ``converged``, ...), and every tail (``achieved_tail``,
``worst_tail``, ``tail``, ``deviation_probability``), which are exact
``fsum`` probabilities.  Byte identity stays the default.

Scenario files, including the sampled scenarios that ``bench/inputs.py``
generates, two copies of its seed-1 separable scenario with dominators that
only the dense domination check decides, and a sampled separable scenario of
10^5 outcomes, are written to the same temporary directory, which is
removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

RANDOM_IDS = ("affine-pair", "indicator-coeff", "linear-coeff", "osc-coeff",
              "quadratic-coeff", "trig-coeff", "zero")
DOMINATED_IDS = ("affine-pair", "indicator-coeff", "linear-coeff",
                 "quadratic-coeff", "trig-coeff", "zero")
SCALAR_IDS = ("constant", "finite-indicator", "linear", "monomial2",
              "monomial3", "osc-derivative", "poly-deg5", "trig-mix")
FTC_IDS = ("ftc-quadratic", "ftc-singular")
SAMPLED_SEEDS = (1, 3)

SCENARIOS = {
    "fubini-violation": {"catalog": "linear-coeff",
                         "dominator": {"values": [2.0, 0.5]}},
    "trig-mix-uniform-2-3": {"catalog": "trig-mix", "gauge": "uniform-2/3"},
    "trig-mix-constant": {"catalog": "trig-mix", "gauge": {"constant": 0.3}},
    "trig-coeff-constant": {"catalog": "trig-coeff",
                            "gauge": {"constant": 0.3}},
    "sampled-uniform01": {
        "space": {"sample": {"distribution": "uniform01", "n": 32}},
        "function": {"form": "separable", "terms": [
            {"values": {"sample": {"distribution": "uniform01"}},
             "basis": "linear"}]}},
    "sampled-100k": {
        "space": {"sample": {"distribution": "uniform01", "n": 100_000}},
        "function": {"form": "separable", "terms": [
            {"values": {"sample": {"distribution": "uniform -2|2"}},
             "basis": "trig-mix"},
            {"values": {"sample": {"distribution": "uniform -2|2"}},
             "basis": "linear"}]}},
    "unknown-distribution": {
        "space": {"sample": {"distribution": "nonsense", "n": 16}},
        "function": {"form": "separable", "terms": [
            {"values": {"sample": {"distribution": "uniform01"}},
             "basis": "linear"}]}},
}


def gate_commands(scenario_dir: Path) -> list[list[str]]:
    """The gate list: argv lists without ``--out``."""
    def scenario(name):
        return ["--scenario", str(scenario_dir / f"{name}.json")]

    commands = []
    for ident in RANDOM_IDS:
        table_levels = "2" if ident == "osc-coeff" else "6"
        commands += [
            ["integrate-prob", "--catalog", ident],
            ["riemann-prob", "--catalog", ident, "--levels", "8"],
            ["convergence-table", "--catalog", ident, "--levels",
             table_levels],
        ]
    for ident in DOMINATED_IDS:
        commands += [["uniqueness", "--catalog", ident],
                     ["fubini", "--catalog", ident]]
    for ident in FTC_IDS:
        commands += [["ftc", "--catalog", ident],
                     ["derivative", "--catalog", ident]]
    for command in ("integrate-prob", "convergence-table", "uniqueness"):
        commands.append([command, "--catalog", "quadratic-coeff",
                         "--levels", "2", "--tol", "1e-12"])
    for ident in SCALAR_IDS:
        commands += [["integrate", "--catalog", ident],
                     ["convergence-table", "--catalog", ident,
                      "--levels", "4"]]
    commands += [
        ["integrate", "--catalog", "monomial2", "--tol", "1e-13",
         "--levels", "3"],
        ["integrate", "--catalog", "osc-derivative", "--tol", "1e-6"],
        ["fubini", *scenario("fubini-violation")],
        ["integrate", *scenario("trig-mix-uniform-2-3")],
        ["integrate", *scenario("trig-mix-constant")],
        ["integrate-prob", *scenario("trig-coeff-constant")],
        ["integrate-prob", *scenario("sampled-uniform01"), "--seed", "11"],
        ["integrate-prob", *scenario("unknown-distribution")],
        ["integrate-prob", *scenario("sampled-100k"), "--seed", "5"],
        ["uniqueness", *scenario("sampled-100k"), "--seed", "5"],
    ]
    for seed in SAMPLED_SEEDS:
        sampled = scenario(f"sampled-separable-{seed}")
        commands += [["integrate-prob", *sampled],
                     ["uniqueness", *sampled],
                     ["fubini", *sampled],
                     ["convergence-table", *sampled, "--levels", "8"]]
    commands += [
        ["fubini", *scenario("sampled-separable-1-equality")],
        ["fubini", *scenario("sampled-separable-1-halved")],
        ["integrate", "--catalog", "linear", "--levels", "-1"],
        ["fubini", "--catalog", "linear-coeff", "--levels", "0"],
        ["fubini", "--catalog", "trig-coeff", "--levels", "3"],
    ]
    # One CSV report per command: the rows that schemas lays out.
    for command, ident in (("integrate", "monomial2"),
                           ("integrate-prob", "linear-coeff"),
                           ("riemann-prob", "linear-coeff"),
                           ("uniqueness", "linear-coeff"),
                           ("fubini", "linear-coeff"),
                           ("derivative", "ftc-quadratic"),
                           ("ftc", "ftc-quadratic"),
                           ("convergence-table", "linear-coeff")):
        commands.append([command, "--catalog", ident, "--format", "csv"])
    return commands


# Runs inside the worker process: argv is (src dir, commands file, out dir,
# results file, scenario dir).
WORKER = r'''
import contextlib, io, json, sys, traceback
from pathlib import Path
src, commands_file, out_dir, results_file, scenario_dir = sys.argv[1:]
sys.path.insert(0, src)
import gaugeprob
from gaugeprob.cli import main
if Path(gaugeprob.__file__).resolve().parent != Path(src).resolve() / "gaugeprob":
    raise SystemExit(f"imported gaugeprob from {gaugeprob.__file__}")
results = []
for index, argv in enumerate(json.loads(Path(commands_file).read_text())):
    out = Path(out_dir) / f"{index}.report"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", str(out)])
        except Exception:
            traceback.print_exc()
            code = "exception"
    report = None
    if out.exists():
        report = "".join(line for line in
                         out.read_text(encoding="utf-8").splitlines(True)
                         if '"generated_at"' not in line)
    results.append({"exit": code, "stderr": err.getvalue(), "report": report})
# Then the library calls.  They use only API that both trees accept: a
# pathwise function given `evaluate` plus `matrix_evaluate` (as
# bench/workloads.py builds it) on the sampled-pathwise seed-1 inputs, the
# same paths with non-finite cells in two column blocks (compared by the
# error each call names or the report it returns), an `evaluate`-only
# function, bare callables, a `gauge_from_delta` family,
# `integrate_separable` on catalog and sampled separable functions, and the
# probability kernels and arithmetic on sampled variables.
# `library_cases(dir)` returns (name, thunk) pairs; each thunk returns a
# JSON-ready dict.
import dataclasses, math
import numpy as np
from gaugeprob import (DiscreteProbabilitySpace, GaugeFamily,
                       GaugeProbError, Interval, PathwiseRandomFunction,
                       RandomVariable, SeparableRandomFunction,
                       almost_surely_equal, catalog, cousin_partition,
                       deviation_probability, expectation, fubini_check,
                       gauge_from_delta, integrate_pathwise,
                       integrate_separable, kh_integrate, moment,
                       random_riemann_sum, sample_coefficients,
                       verify_uniqueness)

def _random_calls(label, f, domain, dominator, eps, eta, tol):
    strategies = tuple(catalog.gauge_family(name, domain)
                       for name in ("uniform", "uniform-2/3"))
    return [
        (f"integrate_pathwise {label}", lambda: integrate_pathwise(
            f, domain, eps, eta, tol).as_dict()),
        (f"verify_uniqueness {label}", lambda: verify_uniqueness(
            f, domain, strategies, eps, eta, tol).as_dict()),
        (f"fubini_check {label}", lambda: fubini_check(
            f, domain, dominator, tol).as_dict()),
    ]

def _named_error(call):
    # The call's result, or its error's type, text, tag and outcome without
    # the traceback, whose file paths differ between the trees.
    try:
        return {"result": call()}
    except GaugeProbError as exc:
        return {"error": f"{type(exc).__name__}: {exc}",
                "tag": getattr(exc, "tag", None),
                "outcome": getattr(exc, "outcome", None)}

def _holed_cases(a, b, space, domain, dominator, eps, eta, tol):
    # Non-finite cells in different column blocks of the level-8 uniform
    # division (512 tags; 5000 outcomes make blocks of 209 tags): outcome
    # 4000 at the first tag, outcome 7 at the last.  Coarser levels have
    # neither tag.  The sums must name outcome 7, the lowest; fubini_check
    # reports the infinite value as a domination violation instead.
    def holed(ts):
        values = np.cos(np.multiply.outer(a, ts) + b[:, None])
        values[4000, ts < domain.lower + domain.width * 2.0 ** -9] = math.inf
        values[7, ts > domain.upper - domain.width * 2.0 ** -9] = math.nan
        return values

    f = PathwiseRandomFunction(space=space, matrix_evaluate=holed)
    level8 = cousin_partition(catalog.gauge_family("uniform", domain)(8),
                              domain)
    calls = [("random_riemann_sum non-finite in two blocks",
              lambda: random_riemann_sum(f, level8).values.tolist())]
    calls += _random_calls("non-finite in two blocks", f, domain, dominator,
                           eps, eta, tol)
    return [(name, lambda call=call: _named_error(call))
            for name, call in calls]

def library_cases(scenario_dir):
    base = scenario_dir / "sampled-pathwise-1"
    scenario = json.loads((base / "scenario.json").read_text())
    arrays = json.loads((base / "arrays.json").read_text())
    a, b = np.array(arrays["a"]), np.array(arrays["b"])
    space = DiscreteProbabilitySpace.from_dict(scenario["space"])
    sampled = PathwiseRandomFunction(
        space=space,
        evaluate=lambda t, i: math.cos(a[i] * t + b[i]),
        matrix_evaluate=lambda ts: np.cos(np.multiply.outer(a, ts) + b[:, None]))
    dominator = RandomVariable(space=space,
                               values=scenario["dominator"]["values"])
    domain = Interval.coerce(scenario["domain"])
    tolerances = scenario["eps"], scenario["eta"], scenario["tol"]
    cases = _random_calls("sampled-pathwise-1", sampled, domain, dominator,
                          *tolerances)
    cases += _holed_cases(a, b, space, domain, dominator, *tolerances)

    two = DiscreteProbabilitySpace.uniform(("w1", "w2"))
    pointwise = PathwiseRandomFunction(
        space=two,
        evaluate=lambda t, i: (i + 1.0) * math.sin(3.0 * t) + t * t)
    unit = Interval(0.0, 1.0)
    bound = RandomVariable(space=two, values=(2.0, 3.0))
    cases += _random_calls("evaluate-only", pointwise, unit, bound,
                           1e-3, 1e-2, 1e-6)

    family = GaugeFamily(name="delta", at_level=lambda m: gauge_from_delta(
        lambda t, m=m: (0.3 + 0.2 * t) * 2.0 ** -m))
    fields = dataclasses.asdict
    cases += [
        ("kh_integrate lambda t: 2.0",
         lambda: fields(kh_integrate(lambda t: 2.0, Interval(0.0, 3.0), 1e-12))),
        ("kh_integrate np.sin",
         lambda: fields(kh_integrate(np.sin, unit, 1e-8))),
        ("kh_integrate np.sin, gauge_from_delta family",
         lambda: fields(kh_integrate(np.sin, unit, 1e-6,
                                     gauge_family=family))),
        ("integrate_pathwise evaluate-only, gauge_from_delta family",
         lambda: integrate_pathwise(pointwise, unit, 1e-3, 1e-2, 1e-6,
                                    gauge_family=family).as_dict()),
    ]
    return (cases + _separable_cases() + _kernel_cases()
            + _partition_cases())

def _separable_cases():
    # integrate_separable is the only route to the fsum combination of the
    # basis integrals and to the separable branch of random_riemann_sum.
    cases = []
    for ident in ("linear-coeff", "affine-pair", "trig-coeff",
                  "indicator-coeff"):
        entry = catalog.random_entry(ident)
        cases.append((f"integrate_separable {ident}",
                      lambda entry=entry: integrate_separable(
                          entry.function, entry.domain, 1e-6).as_dict()))
    cases.append(("integrate_separable 10^4 outcomes, trig-mix + linear",
                  lambda: integrate_separable(
                      _sampled_separable(), Interval(0.0, 1.0),
                      1e-6).as_dict()))
    return cases

def _sampled_separable():
    coefficients = sample_coefficients("uniform -2|2", 10000, 1, 2)
    return SeparableRandomFunction(
        coefficients=tuple(coefficients),
        bases=tuple(catalog.scalar_integrand(b)
                    for b in ("trig-mix", "linear")))

def _values(rv):
    # Runs on both the tuple and the array form of `values`.
    return [float(v) for v in rv.values]

def _kernel_cases():
    x, y = sample_coefficients("uniform -2|2", 10000, 1, 2)
    cases = [(f"moment p={p}", lambda p=p: {"x": moment(x, p), "y": moment(y, p)})
             for p in (1, 1.5, 2)]
    cases += [
        ("expectation", lambda: {"x": expectation(x), "y": expectation(y)}),
        ("deviation_probability", lambda: {
            str(eps): deviation_probability(x, y, eps)
            for eps in (1e-3, 0.5, 1.0, 2.0)}),
        ("almost_surely_equal", lambda: {
            "x, y": almost_surely_equal(x, y),
            "x, x + 1e-12": almost_surely_equal(x, x + 1e-12),
            "x, y at tol 4": almost_surely_equal(x, y, tol=4.0)}),
        ("x + y", lambda: _values(x + y)),
        ("x - 2.0", lambda: _values(x - 2.0)),
        ("3.0 * x", lambda: _values(3.0 * x)),
        ("-x", lambda: _values(-x)),
        ("abs(x)", lambda: _values(abs(x))),
    ]
    return cases

def _partition_cases():
    import hashlib
    from gaugeprob import cousin_partition
    unit = Interval(0.0, 1.0)

    def build(gauge, split):
        try:
            division = cousin_partition(gauge, unit, split=split)
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {key: hashlib.sha256(getattr(division, key).tobytes()).hexdigest()
                for key in ("points", "tags")}

    return [(f"partition {name} level {level} split {split}",
             lambda gauge=catalog.gauge_family(name, unit)(level), split=split:
             build(gauge, split))
            for name in catalog.gauge_family_ids()
            for level in range(4) for split in (0.5, 0.45)]

for name, case in library_cases(Path(scenario_dir)):
    err = io.StringIO()
    report = None
    with contextlib.redirect_stderr(err):
        try:
            report = json.dumps(case(), sort_keys=True)
            code = 0
        except Exception:
            traceback.print_exc()
            code = "exception"
    results.append({"name": name, "exit": code, "stderr": err.getvalue(),
                    "report": report})
Path(results_file).write_text(json.dumps(results), encoding="utf-8")
'''


NUMERIC_ATOL = 1e-12
TAIL_FIELDS = frozenset(("achieved_tail", "worst_tail", "tail",
                         "deviation_probability"))


def _walk(a, b, path: str, floats: dict, mismatches: list) -> None:
    """Compare parsed JSON a and b: float gaps go to ``floats`` (largest
    per field), anything else that differs to ``mismatches``."""
    where = path or "."
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            mismatches.append(f"{where}: keys {sorted(a)} -> {sorted(b)}")
            return
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}" if path else key, floats,
                  mismatches)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            mismatches.append(f"{where}: length {len(a)} -> {len(b)}")
            return
        for x, y in zip(a, b):
            _walk(x, y, f"{path}[]", floats, mismatches)
    elif (type(a) is float and type(b) is float
          and path.rsplit(".", 1)[-1] not in TAIL_FIELDS
          and not (math.isnan(a) or math.isnan(b))):
        gap = 0.0 if a == b else abs(a - b)
        floats[path] = max(floats.get(path, 0.0), gap)
    elif not (type(a) is type(b) and (a == b or a != a and b != b)):
        mismatches.append(f"{where}: {a!r} -> {b!r}")


def numeric_differences(old: dict, new: dict) -> tuple[dict, list]:
    """(float field -> largest absolute difference, exact mismatches) between
    two results of the worker."""
    floats, mismatches = {}, []
    for key in ("exit", "stderr"):
        if old[key] != new[key]:
            mismatches.append(f"{key}: {old[key]!r} -> {new[key]!r}")
    try:
        reports = [None if r["report"] is None else json.loads(r["report"])
                   for r in (old, new)]
    except ValueError:
        reports = [old["report"], new["report"]]
    _walk(*reports, "", floats, mismatches)
    return floats, mismatches


def _write_scenarios(scenario_dir: Path, env: dict) -> None:
    for name, data in SCENARIOS.items():
        (scenario_dir / f"{name}.json").write_text(json.dumps(data),
                                                   encoding="utf-8")
    def generate(workload, seed):
        out = scenario_dir / f"{workload}-{seed}"
        subprocess.run([sys.executable, str(REPO / "bench" / "inputs.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", str(out)], check=True, env=env,
                       stdout=subprocess.DEVNULL)
        return out

    for seed in SAMPLED_SEEDS:
        (generate("sampled-separable", seed) / "scenario.json").rename(
            scenario_dir / f"sampled-separable-{seed}.json")
    generate("sampled-pathwise", 1)
    # Two dominators the rank-K reach cannot clear, so the dense values
    # decide on all 10^4 outcomes: outcome 0 turned into f = t with A = 1,
    # dominated with equality at t = 1; and every dominator halved, a
    # violation.
    separable = json.loads(
        (scenario_dir / "sampled-separable-1.json").read_text())
    terms, bound = separable["function"]["terms"], separable["dominator"]
    terms[0]["values"][0], terms[1]["values"][0] = 0.0, 1.0
    bound["values"][0] = 1.0
    (scenario_dir / "sampled-separable-1-equality.json").write_text(
        json.dumps(separable), encoding="utf-8")
    bound["values"] = [0.5 * a for a in bound["values"]]
    (scenario_dir / "sampled-separable-1-halved.json").write_text(
        json.dumps(separable), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--numeric", action="store_true",
                        help="let float fields differ by up to "
                             f"{NUMERIC_ATOL:g}")
    args = parser.parse_args(argv)
    trees = {"old": args.old_tree.resolve(), "new": args.new_tree.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "gaugeprob" / "__init__.py").is_file():
            parser.error(f"no src/gaugeprob under {tree}")

    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GAUGEPROB_LOG")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        tmp = Path(tmp)
        _write_scenarios(tmp, env)
        commands = gate_commands(tmp)
        (tmp / "commands.json").write_text(json.dumps(commands),
                                           encoding="utf-8")
        workers = {}
        for side, tree in trees.items():
            (tmp / side).mkdir()
            workers[side] = subprocess.Popen(
                [sys.executable, "-c", WORKER, str(tree / "src"),
                 str(tmp / "commands.json"), str(tmp / side),
                 str(tmp / f"{side}.json"), str(tmp)], env=env, cwd=tmp)
        failed = [side for side, worker in workers.items() if worker.wait()]
        for side in failed:
            print(f"worker for {trees[side]} failed", file=sys.stderr)
        if failed:
            return 1
        old, new = (json.loads((tmp / f"{side}.json").read_text())
                    for side in ("old", "new"))

        labels = ["gaugeprob " + " ".join(argv).replace(str(tmp), "$TMP")
                  for argv in commands]
        labels += [f"library: {result['name']}"
                   for result in old[len(commands):]]
        if [r.get("name") for r in old] != [r.get("name") for r in new]:
            print("the trees ran different library cases", file=sys.stderr)
            return 1

        differing, failing, largest = [0, 0], 0, 0.0
        for index, (label, a, b) in enumerate(zip(labels, old, new)):
            fields = [key for key in ("exit", "stderr", "report")
                      if a[key] != b[key]]
            if not fields:
                continue
            differing[index >= len(commands)] += 1
            print(f"DIFFERS ({', '.join(fields)}): {label}")
            if not args.numeric:
                failing += 1
                for key in ("exit", "stderr"):
                    if key in fields:
                        print(f"  {key}: {a[key]!r} -> {b[key]!r}")
                continue
            floats, mismatches = numeric_differences(a, b)
            for path, gap in sorted(floats.items()):
                if gap:
                    over = "  OVER" if gap > NUMERIC_ATOL else ""
                    print(f"  {path}: {gap:.3g}{over}")
            for line in mismatches:
                print(f"  MISMATCH {line}")
            worst = max(floats.values(), default=0.0)
            largest = max(largest, worst)
            failing += bool(mismatches) or worst > NUMERIC_ATOL
    print(f"{differing[0]} of {len(commands)} commands and {differing[1]} of "
          f"{len(old) - len(commands)} library cases differ")
    if args.numeric:
        print(f"largest float difference {largest:.3g} (allowed "
              f"{NUMERIC_ATOL:g}); {failing} fail")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
