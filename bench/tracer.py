"""Span tracer installed from outside the package.

``Tracer.install`` replaces every public function of the package's
layer modules, and the ``__post_init__`` of every public dataclass, with
a wrapper that records a span: name, layer, parent, start and end. The
replacement is made in every ``ussd_lab`` module that bound the
original, since the modules import each other's names directly. Nothing
under ``src/`` changes.

Spans keep a thread-local stack. A span opened on a worker thread with
an empty stack (a sweep row in the CLI's thread pool) takes the
innermost open span of the main thread as its parent. A span's self
time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "selftest", "oracle", "teleport", "ussd", "coherence", "qcore")
KEEP_SPANS = 50_000   # spans stored for writing out; counts cover them all

# Arguments that identify the work of a call, for the distinct-call share.
KEYS = {
    "teleport.branch_coherences":
        lambda args, kw: (args[0].channel_angle, args[1], args[0].mu),
}


class _Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "children")

    def __init__(self, sid, name, layer, parent, start):
        self.id, self.name, self.layer = sid, name, layer
        self.parent, self.start, self.children = parent, start, []


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tracer:
    """Counts, inclusive and self times per span name, kept in memory.

    Spans are stored, up to ``KEEP_SPANS`` of them, for writing out at
    the end.
    """

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.distinct = defaultdict(int)
        self._seen = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()
        self._op = 0

    # -- bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name: str, layer: str):
        key_of = KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = _Span(next(tracer._ids), name, layer, parent, perf_counter())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                key = key_of(args, kwargs) if key_of is not None else None
                with tracer._lock:
                    tracer._close(span, end, key)
        return traced

    def _close(self, span: _Span, end: float, key) -> None:
        # worker threads close spans too, so callers hold self._lock
        dur = end - span.start
        self.calls[span.name] += 1
        self.inclusive[span.name] += dur
        self.self_time[span.layer] += dur - _covered(span.children)
        if span.parent is not None:
            span.parent.children.append((span.start, end))
        if key is not None:
            self._seen[span.name].add(key)
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((self._op, span.id,
                               span.parent.id if span.parent else 0,
                               span.name, span.start, end))

    def end_op(self) -> None:
        """Close one op: its spans share an op number, and the
        distinct-argument count restarts."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
        self._seen.clear()
        self._op += 1

    def reset(self) -> None:
        self.spans.clear()
        for d in (self.calls, self.inclusive, self.self_time, self.distinct):
            d.clear()
        self._seen.clear()
        self._op = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and dataclass builds of every layer."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"ussd_lab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self._wrap(obj.__post_init__,
                                                   f"{layer}.{attr}", layer)
        for mname, mod in list(sys.modules.items()):
            if mname == "ussd_lab" or mname.startswith("ussd_lab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(mod, attr, replaced[id(obj)])

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
