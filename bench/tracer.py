"""Outside-in layer trace for gaugeprob.

The tracer wraps the program's functions from outside: nothing under
``src/`` knows about it.  A layer is a module of the package.  Every public
module-level function of a layer module, every public method and
``__post_init__`` of a class defined there, and the private names listed in
``PRIVATE`` are wrapped.  Modules import functions by name (``stochastic``
binds ``cousin_partition``, ``cli`` binds ``integrate_pathwise``, ...), so
the wrapper replaces the function in every ``gaugeprob`` module that binds
it, not only where it is defined.

Each call records a span (id, parent id, command, layer, name, start, end).
A layer's self time is the length of its spans minus the part their child
spans cover.  Work the tracer does for itself after a call (counting,
fingerprinting divisions) is charged to the child, so it never inflates the
self time of the caller.  Spans stay in memory until ``write_spans``.

A hook whose target is missing in the program is skipped, and a metric that
no installed hook provides is left out of ``take_round``; ``missing`` names
the targets.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "gaugeprob"
LAYERS = ("gauges", "partitions", "quadrature", "random_functions",
          "stochastic", "probability", "schemas")
PRIVATE = (("stochastic", "_certify"),)

_PROBABILITY_KERNELS = ("prob_event", "deviation_probability", "expectation",
                        "moment", "almost_surely_equal")


def _outcomes(x) -> int:
    # prob_event takes the space itself, the other kernels a RandomVariable.
    return getattr(x, "size", None) or x.space.size


def _division(tracer, division):
    tracer.counts["partitions.divisions"] += 1
    tracer.counts["partitions.pieces"] += division.pieces
    key = (division.pieces,
           hashlib.sha1(division.points).digest(),
           hashlib.sha1(division.tags).digest())
    if key in tracer.digests:
        tracer.counts["partitions.rebuilt"] += 1
    tracer.digests.add(key)


def _gauge_points(tracer, args, result):
    tracer.counts["gauges.calls"] += 1
    tracer.counts["gauges.points"] += result[0].size


# qualified name -> (metrics provided, hook(tracer, args, result) or None,
# metric that takes the outermost call's inclusive time, or None)
HOOKS = {
    "gauges.Gauge.half_widths": (
        ("gauges.calls", "gauges.points"), _gauge_points, None),
    "partitions.cousin_partition": (
        ("partitions.divisions", "partitions.pieces", "partitions.rebuilt"),
        lambda t, args, result: _division(t, result), None),
    "partitions.repick_tags": (
        ("partitions.divisions", "partitions.pieces", "partitions.rebuilt"),
        lambda t, args, result: _division(t, result), None),
    "quadrature.riemann_sum_scalar": (
        ("quadrature.sums",),
        lambda t, args, result: t.counts.update(("quadrature.sums",)), None),
    "random_functions.values_matrix": (
        ("random_functions.cells",),
        lambda t, args, result: t.counts.update(
            {"random_functions.cells": result.size}), None),
    "stochastic.random_riemann_sum": (
        ("stochastic.riemann_sums",),
        lambda t, args, result: t.counts.update(("stochastic.riemann_sums",)),
        None),
    "stochastic._certify": (("stochastic.certify_s",), None,
                            "stochastic.certify_s"),
    "probability.RandomVariable.__post_init__": (
        ("probability.rv_values",),
        lambda t, args, result: t.counts.update(
            {"probability.rv_values": len(args[0].values)}), None),
    "schemas.report_to_json": (
        ("schemas.bytes",),
        lambda t, args, result: t.counts.update({"schemas.bytes": len(result)}),
        None),
    "schemas.report_to_csv": (
        ("schemas.bytes",),
        lambda t, args, result: t.counts.update({"schemas.bytes": len(result)}),
        None),
    "schemas.load_scenario_text": (("schemas.load_s",), None,
                                   "schemas.load_s"),
    "schemas.validate_scenario": (("schemas.load_s",), None, "schemas.load_s"),
}
for _name in _PROBABILITY_KERNELS:
    HOOKS[f"probability.{_name}"] = (
        ("probability.calls", "probability.outcomes_scanned"),
        lambda t, args, result: t.counts.update(
            {"probability.calls": 1,
             "probability.outcomes_scanned": _outcomes(args[0])}),
        None)


class Tracer:
    """Wraps gaugeprob's layers and accumulates spans, counts and times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.digests: set = set()
        self.provided: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._command = None
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrappers[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (
                                not attr.startswith("_")
                                or attr == "__post_init__"):
                            self._patch(obj, attr, self._wrap(
                                layer, f"{obj.__name__}.{attr}", member))
        for layer, name in PRIVATE:
            fn = getattr(modules[layer], name, None)
            if fn is not None:
                wrappers[fn] = self._wrap(layer, name, fn)
        for qualified in HOOKS:
            layer, _, rest = qualified.partition(".")
            owner = modules[layer]
            *path, leaf = rest.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(qualified)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, layer: str, name: str, fn):
        metrics, hook, inclusive = HOOKS.get(f"{layer}.{name}", ((), None, None))
        self.provided.update(metrics)
        self.provided.add(f"{layer}.self_s")

        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = self._enter(None)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(frame, layer, name)
                        yield item
                finally:
                    inner.close()

            generator_wrapper.__name__ = fn.__name__
            return generator_wrapper

        def wrapper(*args, **kwargs):
            frame = self._enter(inclusive)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, layer, name)
                raise
            self._exit(frame, layer, name, hook, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------

    def _enter(self, inclusive):
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, inclusive, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, layer, name, hook=None, args=(), result=None):
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, inclusive, covered, start = frame
        self.times[f"{layer}.self_s"] += (end - start) - covered
        if inclusive and not any(f[2] == inclusive for f in self._stack):
            self.times[inclusive] += end - start
        if hook is not None:
            hook(self, args, result)
        self.spans.append((span_id, parent, self._command, layer, name,
                           start, end))
        if self._stack:
            self._stack[-1][3] += time.perf_counter() - start

    @contextmanager
    def command(self, label: str):
        """Root span of one timed command; divisions are compared within it."""
        self._command = label
        self.digests = set()
        frame = self._enter(None)
        try:
            yield
        finally:
            self._exit(frame, "command", label)
            self._command = None
            self.digests = set()

    # -- results ----------------------------------------------------------

    def take_round(self) -> dict[str, float]:
        """Counts and self times since the previous call, then reset them."""
        out = {}
        for metric in sorted(self.provided):
            if metric.endswith("_s"):
                out[metric] = self.times.get(metric, 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        if "gauges.points" in out and out.get("partitions.pieces"):
            out["partitions.points_per_piece"] = (
                out["gauges.points"] / out["partitions.pieces"])
        if "random_functions.cells" in out:
            out["random_functions.mb_computed"] = (
                out["random_functions.cells"] * 8 / 1e6)
        self.counts.clear()
        self.times.clear()
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"fields": ["id", "parent", "command", "layer", "name",
                                  "start", "end"],
                       "missing": self.missing,
                       "spans": self.spans}, stream)
