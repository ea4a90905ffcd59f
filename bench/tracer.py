"""In-memory span tracer that instruments atlas from outside the package.

`Tracer.install` replaces each function named in SPANS, in every loaded atlas
module that holds a reference to it, by a wrapper that records one span:
(name, item id, start, end, parent span).  It also wraps the hot-path methods
named in COUNTERS with plain call counters, because those run millions of
times per pass and a span each would swamp both memory and the timings.
`Tracer.uninstall` puts every original back.  Spans stay in memory until
`dump` writes them out."""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function): the layer boundaries that get a span each
SPANS = (
    ("integrate", "iwasawa_orbit_u0"),
    ("integrate", "xi_integral"),
    ("orbits", "case_of"),
    ("orbits", "orbit_reps"),
    ("orbits", "make_bpoint_rs1"),
    ("orbits", "quat_mat_solve"),
    ("orbits", "cayley"),
    ("keating", "l_int"),
    ("keating", "l_int_keating"),
    ("keating", "int_group"),
    ("germs", "dorb1"),
    ("germs", "dgamma_table"),
    ("values", "forced_s_values"),
    ("verify", "phi1"),
    ("verify", "verify_x0"),
    ("cli", "main"),
)

# (counter, module, class, method): counted, not timed
COUNTERS = (
    ("padic.scalars_constructed", "padic", "PadicScalar", "__init__"),
    ("svalue.LogQVal.constructed", "svalue", "LogQVal", "__init__"),
    ("orbits.delta", "orbits", "BPoint", "delta"),
    ("integrate.balls_evaluated", "integrate", "Ball0", "point"),
    ("integrate.balls_evaluated", "integrate", "BallF", "point"),
    ("integrate.ball_splits", "integrate", "Ball0", "split"),
    ("integrate.ball_splits", "integrate", "BallF", "split"),
)

_DELTA = "orbits.delta"


def _atlas_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "atlas" or name.startswith("atlas."))]


class Tracer:
    """Spans are lists [name, item, start, end, parent, delta_calls]; parent
    is the index of the enclosing span or -1, and delta_calls counts the
    BPoint.delta calls made while the span was open."""

    def __init__(self, A):
        self.A = A
        self.item = None
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        modules = _atlas_modules()
        for modname, fname in SPANS:
            orig = getattr(getattr(self.A, modname), fname)
            wrapper = self._span_wrapper(f"{modname}.{fname}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapper)
        for counter, modname, clsname, meth in COUNTERS:
            cls = getattr(getattr(self.A, modname), clsname)
            self._patch(cls, meth, self._count_wrapper(counter, vars(cls)[meth]))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _patch(self, obj, attr, new) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.item, 0.0, 0.0, stack[-1] if stack else -1,
                   counts[_DELTA]]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                rec[5] = counts[_DELTA] - rec[5]
        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_times(self, scale) -> dict:
        """Seconds per span name: span durations minus the time covered by
        their direct child spans, each span multiplied by scale(start, length)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out = {}
        for i, s in enumerate(self.spans):
            dt = s[3] - s[2]
            out[s[0]] = out.get(s[0], 0.0) + (dt - child[i]) * scale(s[2], dt)
        return out

    def outermost_time(self, names, scale) -> float:
        """Total scaled duration of spans in `names` not nested in another
        of them."""
        names = set(names)
        inside = [False] * len(self.spans)
        total = 0.0
        for i, s in enumerate(self.spans):
            par = s[4]
            inside[i] = par >= 0 and (inside[par] or self.spans[par][0] in names)
            if s[0] in names and not inside[i]:
                dt = s[3] - s[2]
                total += dt * scale(s[2], dt)
        return total

    def dump(self, path) -> None:
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [{"name": s[0], "item": s[1], "start": s[2] - t0,
                 "end": s[3] - t0, "parent": s[4]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"counts": dict(self.counts), "spans": rows}, fh)
