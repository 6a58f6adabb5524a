"""Spans around every call into qgadget's module-level public functions.

The tracer wraps each public function of each layer module and rebinds the
name in every ``qgadget.*`` namespace that holds it (``cli`` and ``gadget``
import by name, so patching the defining module alone would miss calls).
Each call records a span: name, start, end, parent span and op id.  Spans
stay in memory until the run ends.

Per-element helpers (UNWRAPPED) are left unwrapped: a wrapper costs about a
microsecond, and they run once per map or matrix entry, so wrapping them
would time the tracer instead of the program.  Methods such as
``Graph.has_edge`` are never wrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "qgadget"
LAYERS = ("graphs", "walks", "endo", "qrep", "defect", "gadget", "qcore", "cli")

# Per-element helpers: on one pass, endo.support runs ~135k times on
# nogo-search (once per endomorphism in every Schmidt-pair scan) and
# defect.normalized_trace ~84k times on rep-pipeline (once per edge and
# non-edge outcome pair).  Every other public function runs at most a few
# thousand times per pass.
UNWRAPPED = {"endo.support", "defect.normalized_trace"}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: str


def _counters(name, args, result):
    """Work counts recorded at the boundary, keyed by metric suffix."""
    if name == "endo.enumerate_homomorphisms":
        return {"maps": len(result)}
    if name == "walks.walk_table":
        return {"bytes": (result.lmax + 1) * result.graph.n ** 2, "steps": result.lmax}
    if name == "qrep.verify_rep":
        return {"entries": len(args[0].mats)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)
            extra = _counters(name, args, result)
            for key, value in (extra or {}).items():
                self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer and rebind it everywhere."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], tracked: list[str]) -> dict[str, float]:
    """<layer>.calls and <layer>.self_s for every layer, and the same for each
    tracked function (zero when it never ran)."""
    out = {f"{key}.{kind}": 0.0 for key in list(LAYERS) + tracked for kind in ("calls", "self_s")}
    for s, own in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        for key in (layer, s.name):
            if f"{key}.calls" in out:
                out[f"{key}.calls"] += 1
                out[f"{key}.self_s"] += own
    return out
