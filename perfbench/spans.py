"""In-memory spans around the calls into each coshint module.

A traced run replaces, for its duration, every public coshint function
that ``coshint.verify``, ``coshint.partial_fractions``,
``coshint.quadrature`` and ``coshint.cli`` import from another module
with a timing wrapper, under the name the importing module looks up at
call time.  A few same-module entry points are wrapped too (see
``_ENTRY_POINTS``).  The originals are put back when the run ends, even
if it raised.  The package's source is not edited.

A span's self time is its duration minus the union of its direct
children's intervals; a call into a layer is a span whose parent belongs
to another layer (or that has no parent).
"""

from __future__ import annotations

import importlib
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any

LAYERS = ("params", "closed_form", "partial_fractions", "trig_sums",
          "quadrature", "series", "verify", "cli")
PATCHED_MODULES = ("coshint.verify", "coshint.partial_fractions",
                   "coshint.quadrature", "coshint.cli")
# Called within their own module (or by the benchmark), so not found by
# the import scan: the benchmark's two entry points, and root_angles,
# whose result length is the partial-fraction term count.
_ENTRY_POINTS = (("coshint.verify", "verify_point"), ("coshint.cli", "main"),
                 ("coshint.partial_fractions", "root_angles"))


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    spec: int  # index of the spec being verified, -1 when unknown
    error: str | None = None  # exception class name if the call raised
    result: Any = None  # the return value, for layers in Tracer.keep_results


def _layer_of(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def wrap_targets() -> list[tuple[Any, str, str]]:
    """(module, attribute, layer) for every name a traced run replaces."""
    targets = []
    for module_name in PATCHED_MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = _layer_of(obj.__module__)
            if obj.__module__ != module_name and layer in LAYERS:
                targets.append((module, name, layer))
    for module_name, name in _ENTRY_POINTS:
        targets.append((importlib.import_module(module_name), name,
                        _layer_of(module_name)))
    return targets


class Tracer:
    """Records one span per wrapped call; ``spec`` tags the spans that follow."""

    def __init__(self, keep_results: tuple[str, ...] = ()) -> None:
        self.spans: list[Span] = []
        self.spec = -1
        self.keep_results = keep_results
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = layer in self.keep_results

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.spec)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep:
                span.result = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the body of a with block, then restore."""
        saved = []
        try:
            for module, name, layer in wrap_targets():
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self.wrap(layer, name, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def write(self, path, count: int) -> None:
        """Write the first ``count`` spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans[:count]:
                fh.write(json.dumps({"layer": s.layer, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "spec": s.spec,
                                     "error": s.error}) + "\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(kids) for s, kids in zip(spans, children)]


def is_call_into_layer(spans: list[Span], span: Span) -> bool:
    return span.parent < 0 or spans[span.parent].layer != span.layer
