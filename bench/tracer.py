"""Span tracing of gcrkit's layers from outside the package.

``Tracer.install`` wraps every public function, and every public method of a
public class, defined in the modules ``catalog``, ``expr``, ``geometry``,
``gcr`` and ``cli``.  Each wrapper replaces the original on its defining
module and on every gcrkit module, registry dict and registry record that
holds the same function object, so calls through re-exported or imported
names are traced too; ``install`` raises if any reference is left unwrapped.

A span is ``[name, start, end, parent index, job id]``.  Spans stay in memory
until ``summarize`` aggregates them.  A recursive call of a function already
on the stack is folded into the outer span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("catalog", "expr", "geometry", "gcr", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name, fn, label=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [label(args, kwargs) if label else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            depth[0] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[0] -= 1
                stack.pop()

        self._wrappers[id(fn)] = traced
        return traced

    def _jet_label(self, fn):
        """Name evaluate_jets spans by derivative order, and count order-3
        requests on charts whose components are exact only to order 2."""
        signature = inspect.signature(fn)

        def label(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            order = bound.arguments.get("order")
            immersion = args[0] if args else None
            if order == 3 and getattr(immersion, "exact_order", 3) < 3:
                self.counts["geometry.fd_completed_jets"] += 1
            return f"geometry.evaluate_jets.o{order}"

        return label

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"gcrkit.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = self._jet_label(obj) if f"{layer}.{attr}" == "geometry.evaluate_jets" else None
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", obj, label))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, meth_name,
                                    self._wrap(f"{layer}.{attr}.{meth_name}", meth))
        left = self._rebind_aliases()
        if left:
            raise RuntimeError(f"unwrapped aliases remain: {', '.join(left)}")

    def _references(self):
        """(where, holder, key) for every gcrkit module attribute, registry
        dict entry and registry record field that could hold a function."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gcrkit" or mod_name.startswith("gcrkit.")):
                continue
            for attr, value in list(vars(module).items()):
                yield f"{mod_name}.{attr}", module, attr
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        yield f"{mod_name}.{attr}[{key!r}]", value, key
                        if dataclasses.is_dataclass(item) and not isinstance(item, type):
                            for f in dataclasses.fields(item):
                                yield f"{mod_name}.{attr}[{key!r}].{f.name}", item, f.name

    def _rebind_aliases(self) -> list[str]:
        def get(holder, key):
            return holder[key] if isinstance(holder, dict) else getattr(holder, key)

        for _, holder, key in self._references():
            wrapper = self._wrappers.get(id(get(holder, key)))
            if wrapper is None:
                continue
            if isinstance(holder, dict):
                holder[key] = wrapper
            else:
                object.__setattr__(holder, key, wrapper)
        return [where for where, holder, key in self._references()
                if id(get(holder, key)) in self._wrappers]


def summarize(spans, scale=lambda job: 1.0) -> dict:
    """Per span name: call count, inclusive seconds and self seconds, each
    span's duration multiplied by ``scale`` of its job id."""
    child = [0.0] * len(spans)
    duration = [(end - start) * scale(job) for _name, start, end, _parent, job in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[index]
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    for index, span in enumerate(spans):
        calls[span[0]] += 1
        total[span[0]] += duration[index]
        self_s[span[0]] += duration[index] - child[index]
    return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s)}
