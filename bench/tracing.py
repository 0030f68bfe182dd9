"""In-memory spans around the calls into each mub-eve layer.

``Tracer`` wraps functions in spans (name, start, end, id, parent id):

- every public function another layer imports by name, on that layer's
  binding: ``optimize`` calls ``information.i_ae``, and ``cli`` and
  ``simulate`` call ``build_isometry`` and ``maximize_w`` through their own
  names. Those calls move time from one layer to another;
- the functions in NAMED, which a per-layer metric names, on every binding,
  the defining module's own included, so that calls inside the layer count;
- the methods in METHODS, which ``cli`` calls on the layers' results.

Helpers a layer calls only inside itself (``i_d``, ``lambda_d``, ``fmt``, ...)
are not wrapped: their time is the same layer's self time either way, and a
span around each would cost more than the helper. ``install`` puts the
wrappers in place and ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its child spans;
with one thread, child spans never overlap, so that is the time they cover.
Self times and call counts are summed per span name as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

LAYERS = ("bases", "attack", "information", "optimize", "simulate", "cli")
NAMED = (
    "attack.build_eve_states", "attack.build_isometry", "attack.disturbance_per_state",
    "attack.scalar_product_profile", "bases.protocol_bases", "information.i_ae",
    "optimize.critical_disturbance", "optimize.golden_section_maximize", "optimize.i_ae_optimal",
    "optimize.maximize_w", "simulate.compare_to_analytic", "simulate.outcome_distribution",
    "simulate.resolve_w", "simulate.simulate", "cli.main",
)
# (layer, class, method); a method's span is named after its layer and the method.
METHODS = (
    ("attack", "AttackIsometry", "unitarity_residual"),
    ("simulate", "SessionStats", "to_dict"),
    ("simulate", "ComparisonReport", "to_dict"),
)


def _count_pairs(counters, args, result):
    d = args[0].dim
    counters["attack.scalar_product_profile.pairs"] += d * d * (d * d - 1) // 2


def _count_isometry(counters, args, result):
    counters["attack.isometry_bytes"] = max(counters["attack.isometry_bytes"], result.matrix.nbytes)


def _count_cells(counters, args, result):
    counters["simulate.cells"] += result.counts.size * result.shards


# Counters taken at a span's boundary, from its arguments and result.
HOOKS = {
    "attack.scalar_product_profile": _count_pairs,
    "attack.build_isometry": _count_isometry,
    "simulate.simulate": _count_cells,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.totals: dict[str, list[int]] = {}  # name -> [self ns, calls]
        self.counters = {"attack.scalar_product_profile.pairs": 0, "attack.isometry_bytes": 0,
                         "simulate.cells": 0}
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        modules = {layer: importlib.import_module(f"mub_eve.{layer}") for layer in LAYERS}
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                callers = [m for m in modules.values() if name in NAMED or m is not module]
                wrapper = self._wrap(name, obj)
                self._patches += [(m, bound, obj, wrapper) for m in callers
                                  for bound, value in vars(m).items() if value is obj]
        for layer, cls, method in METHODS:
            owner = getattr(modules[layer], cls)
            original = vars(owner)[method]
            self._patches.append((owner, method, original, self._wrap(f"{layer}.{method}", original)))

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0])
        stack = self._stack
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals[0] += duration - frame[1]
                totals[1] += 1
                tracer.spans.append((name, start, end, span_id, parent))
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget the spans, totals and counters of the previous job."""
        self.spans = []
        for entry in self.totals.values():
            entry[0] = entry[1] = 0
        for key in self.counters:
            self.counters[key] = 0

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        spans = {span_id: (n, parent) for n, _, _, span_id, parent in self.spans}
        count = 0
        for n, parent in spans.values():
            if n != name:
                continue
            while parent != -1:
                n_parent, parent = spans[parent]
                if n_parent == ancestor:
                    count += 1
                    break
        return count
