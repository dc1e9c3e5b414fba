"""Spans and counters placed around the package's layers from outside it.

`Tracer.install` replaces every public module-level function of each layer
module with a wrapper that records a span, in the defining module and in
every `wqhopf` module that imported the same function by name.  The scalar
operators of `Cyc` and `Approx` are called too often for a span each, so they
get counters only.  Spans stay in memory until `write` is called.

A span is `(op, id, parent, name, start, end)`; spans of one op share `op`,
and `parent` is the id of the span that was open when it began (-1 at the
top).  A name's self time is the span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# the layers that get spans: every public function defined in these modules
SPAN_LAYERS = ("linalg", "category", "functor", "hopf", "twist", "files",
               "cli")

# scalar operators that get counters: (class, attributes) -> counter name
COUNTED = (
    ("Cyc", ("__mul__", "__rmul__"), "scalars.cyc_mul"),
    ("Cyc", ("__add__", "__radd__"), "scalars.cyc_add"),
    ("Cyc", ("lift",), "scalars.cyc_lift"),
    ("Cyc", ("inverse",), "scalars.cyc_inverse"),
    ("Cyc", ("canonical",), "scalars.cyc_canonical"),
    ("Approx", ("__mul__", "__rmul__"), "scalars.approx_mul"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._restore: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, t0, t1)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and count scalar operators."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in SPAN_LAYERS:
            mod = sys.modules.get(f"wqhopf.{layer}")
            if mod is None:
                raise RuntimeError(f"wqhopf.{layer} is not imported")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._span(f"{layer}.{attr}", fn)
        # rebind every name, in every package module, that holds an original
        for mod in [m for n, m in sys.modules.items()
                    if n == "wqhopf" or n.startswith("wqhopf.")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        scalars = sys.modules["wqhopf.scalars"]
        for cls_name, attrs, name in COUNTED:
            cls = getattr(scalars, cls_name)
            fn = vars(cls)[attrs[0]]
            counter = self._counter(name, fn)
            for attr in attrs:
                self._restore.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, counter)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def durations(spans) -> dict:
    """Per name: total span seconds, children included."""
    out = Counter()
    for _, _, _, name, t0, t1 in spans:
        out[name] += t1 - t0
    return dict(out)


def self_times(spans) -> tuple[dict, dict]:
    """Per name: (total self seconds, number of spans).

    Self time is a span's duration minus the union of its children's
    intervals, each clipped to the parent's interval.
    """
    children = defaultdict(list)
    for _, sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    self_s, calls = Counter(), Counter()
    for _, sid, _, name, t0, t1 in spans:
        covered, reach = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        self_s[name] += (t1 - t0) - covered
        calls[name] += 1
    return dict(self_s), dict(calls)
