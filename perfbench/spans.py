"""In-memory span recorder that wraps crossint's module functions.

The package imports functions by name (``from .exactarith import binom``),
so a wrapper only takes effect if it replaces the function in every module
namespace that holds it.  ``Tracer.install`` does that and ``restore`` puts
the originals back.  Spanned functions record (name, start, end, parent
span, operation id); the hot functions in COUNTED are only counted, since a
timing wrapper would cost more than the call.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict

MODULES = ("exactarith", "cascade", "families", "regions", "oracle", "cli")

SPANNED = {
    "oracle": (
        "max_product_cascade",
        "max_product_enumeration",
        "conjecture_scan",
        "measure_oracle",
    ),
    "cascade": ("kk_cross_bound",),
    "families": (
        "star_uniform",
        "a_family_uniform",
        "b_family_uniform",
        "colex_segment",
        "to_text",
        "from_text",
        "is_cross_intersecting",
    ),
    "regions": (
        "delta_report",
        "in_delta",
        "in_delta_prime",
        "i0",
        "product_bound_condition",
        "curve_samples",
        "condition_c1",
        "condition_c2",
    ),
    "cli": ("main",),
}

COUNTED = {
    "exactarith": ("binom",),
    "cascade": ("_advance", "_digits"),
    "regions": ("e_j",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.calls: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list = []
        self._counters: dict = {}

    def _spanned(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op_id)
                stack.pop()
                calls[name] += 1

        return wrapper

    def _counted(self, name, fn):
        # a bare positional wrapper around a C-level counter keeps the cost
        # per call low; every call site of these functions is positional
        tick = itertools.count(1)
        self._counters[name] = tick

        def wrapper(*args):
            next(tick)
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module("crossint")] + [
            importlib.import_module(f"crossint.{mod}") for mod in MODULES
        ]
        plan = [(mod, fn, self._spanned) for mod, fns in SPANNED.items() for fn in fns]
        plan += [(mod, fn, self._counted) for mod, fns in COUNTED.items() for fn in fns]
        for mod, fn_name, make in plan:
            original = getattr(importlib.import_module(f"crossint.{mod}"), fn_name)
            wrapper = make(f"{mod}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for name, tick in self._counters.items():
            self.calls[name] = next(tick) - 1

    def op(self, op_id, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        return self._spanned("op", fn)(*args)

    def self_ms(self) -> dict:
        """Total self time per span name: duration minus direct children's."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[idx]) * 1000.0
        return out

    def total_ms(self, name: str) -> float:
        return sum(((e - s) * 1000.0 for n, s, e, _, _ in self.spans if n == name), 0.0)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for idx, (name, start, end, parent, op_id) in enumerate(self.spans):
                record = {
                    "id": idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op_id,
                }
                handle.write(json.dumps(record) + "\n")
