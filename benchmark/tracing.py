"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` wraps every public module-level function of the package's
modules, and rebinds each name wherever a module holds it: as its own
attribute, as a name imported with `from .x import f`, or as a value of a
module-level dict such as the fixture table.  A span is
[name, layer, start, end, parent, raised]; the layer is the module that
defines the function, and `raised` marks an exception that escaped it.
Spans stay in memory until the caller writes them out.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "doctrines"
# limit and factorization searches of the finite-category kernel
LIMITS = ("fincat.product_cone", "fincat.pullback", "fincat.enumerate_pullbacks",
          "fincat.equalizer", "fincat.image_factorization")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = 1
                raise
            finally:
                spans[idx][3] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith(PACKAGE + ".") and m is not None]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    layer = mod.__name__.split(".", 1)[1]
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod in [sys.modules[PACKAGE]] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._undo.append((obj, key, val))
                            obj[key] = wrapped[id(val)]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self time, inclusive time of named functions (outermost
    span only, so recursion is not counted twice), call counts and
    exceptions that left a layer."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    limits = 0.0
    for i, (name, layer, start, end, parent, exc) in enumerate(spans):
        self_s[layer] += (end - start) - child_time[i]
        calls[name] += 1
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][4]
        if name not in ancestors:
            incl[name] += end - start
        if name in LIMITS and not any(a in LIMITS for a in ancestors):
            limits += end - start
        if exc and (parent < 0 or spans[parent][1] != layer):
            raised[layer] += 1
    return {
        "fixtures.self_s": self_s["fixtures"],
        "fileformat.parse_s": incl["fileformat.parse_doctrine"],
        "fileformat.emit_s": incl["fileformat.emit_doctrine"],
        "fincat.self_s": self_s["fincat"],
        "fincat.validate_category.calls": calls["fincat.validate_category"],
        "fincat.validate_category.s": incl["fincat.validate_category"],
        "fincat.validate_products.calls": calls["fincat.validate_products"],
        "fincat.check_exact.s": incl["fincat.check_exact"],
        "fincat.limits.s": limits,
        "semilattice.self_s": self_s["semilattice"],
        "semilattice.left_adjoint.calls": calls["semilattice.left_adjoint"],
        "doctrine.self_s": self_s["doctrine"],
        "doctrine.validate_doctrine.calls": calls["doctrine.validate_doctrine"],
        "doctrine.validate_doctrine.s": incl["doctrine.validate_doctrine"],
        "doctrine.sub_doctrine.s": incl["doctrine.sub_doctrine"],
        "structure.self_s": self_s["structure"],
        "structure.raised": raised["structure"],
        "allegory.self_s": self_s["allegory"],
        "allegory.rel_compose.calls": calls["allegory.rel_compose"],
        "completions.self_s": self_s["completions"],
        "completions.build_tp.calls": calls["completions.build_tp"],
        "completions.raised": raised["completions"],
        "compare.self_s": self_s["compare"],
        "compare.enumerate_functors.calls": calls["compare.enumerate_functors"],
        "cli.self_s": self_s["cli"],
        "startup.s": self_s["startup"],
    }


def covered(spans: list[list]) -> float:
    """Time covered by top-level spans."""
    return sum(s[3] - s[2] for s in spans if s[4] < 0)


UNITS = {name: ("count" if name.endswith((".calls", ".raised")) else "s")
         for name in layer_metrics([])}
UNITS.update({"trace.overhead_pct": "%", "trace.coverage_pct": "%"})
