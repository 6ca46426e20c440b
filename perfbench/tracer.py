"""In-memory tracing of the library, installed from outside it.

``Tracer.install`` wraps the public functions of each module and the public
methods (plus constructors and arithmetic operators) of each public class, and
rebinds every module namespace that imported one of those functions by name.
Each wrapped call adds its duration minus the time covered by wrapped calls
inside it to the self time of its name.  Spans (name, start, end, parent span,
job) are kept for the outer SPAN_DEPTH levels, up to MAX_SPANS of them;
deeper calls are only aggregated.  Statistics are kept per phase, so setup
work and the timed job list can be told apart.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

ARITH_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__")
# value types whose constructors run inside every arithmetic operation; their
# construction cost stays in the self time of the operation that builds them
UNWRAPPED_CONSTRUCTORS = ("FieldElement", "ResidueElement")
SPAN_DEPTH = 4
MAX_SPANS = 100000


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.counters = defaultdict(lambda: defaultdict(int))
        self.spans = []
        self.job = None
        self._stack = []  # one [child time, span index] per active wrapped call
        self._pre = {}
        self._post = {}
        self.set_phase("setup")

    def set_phase(self, phase: str):
        self._stats = self.stats[phase]
        self.count = self.counters[phase]

    def hook(self, name: str, pre=None, post=None):
        """pre(tracer, args) runs before the call, post(tracer, args, result) after."""
        if pre is not None:
            self._pre[name] = pre
        if post is not None:
            self._post[name] = post

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        perf = time.perf_counter
        pre = self._pre.get(name)
        post = self._post.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            stack = tracer._stack
            frame = [0.0, None]
            if len(stack) < SPAN_DEPTH and len(tracer.spans) < MAX_SPANS:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                stat = tracer._stats[name]
                stat[0] += 1
                stat[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if frame[1] is not None:
                    parent = stack[-1][1] if stack else None
                    tracer.spans[frame[1]] = (name, t0, t1, parent, tracer.job)
            if post is not None:
                post(tracer, args, out)
            return out

        return wrapper

    def install(self, modules, rebind=()):
        """Wrap the public API of the given modules, keyed by short module name.

        Names bound to a wrapped function are also rebound in ``rebind``, the
        other namespaces that imported them.
        """
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{short}.{attr}")
                    replaced[id(obj)] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")
        for mod in (*modules.values(), *rebind):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, prefix: str):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue  # properties, static and class methods keep their cost in the caller
            if attr == "__init__":
                if cls.__name__ in UNWRAPPED_CONSTRUCTORS:
                    continue
                name = prefix
            elif attr in ARITH_DUNDERS or not attr.startswith("_"):
                name = f"{prefix}.{attr}"
            else:
                continue
            setattr(cls, attr, self._wrap(obj, name))

    # -- benchmark-side spans ----------------------------------------------------

    def run_job(self, name: str, fn):
        """Run one job under a span of its own; child spans carry its name."""
        self.job = name
        try:
            return self._wrap(fn, "bench.job")()
        finally:
            self.job = None

    # -- results -----------------------------------------------------------------

    def calls(self, names, phase="jobs") -> int:
        return sum(self.stats[phase][n][0] for n in names if n in self.stats[phase])

    def self_s(self, names, phase="jobs") -> float:
        return sum(self.stats[phase][n][1] for n in names if n in self.stats[phase])

    def dump(self, path: str, meta: dict):
        """Write the spans and the per-phase aggregates as one JSON file."""
        names = ("name", "start", "end", "parent", "job")
        spans = [dict(zip(names, s)) for s in self.spans if s is not None]
        blob = {
            "meta": meta,
            "span_depth": SPAN_DEPTH,
            "spans_recorded": len(spans),
            "aggregates": {phase: {n: {"calls": c, "self_s": s}
                                   for n, (c, s) in sorted(st.items())}
                           for phase, st in self.stats.items()},
            "counters": {phase: dict(sorted(c.items()))
                         for phase, c in self.counters.items()},
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)
