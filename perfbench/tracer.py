"""In-memory call tracing for the traced benchmark run.

`Tracer.install()` wraps every public module-level function of the evcover
layers, plus `cli.RunReport.aggregates`, at its definition and at every
evcover module that imported it by name, so calls between layers become
child spans. Each span records its name, start, end, parent and op id; spans
stay in memory until the benchmark writes them out. Generator functions are
left unwrapped, because their work happens while the caller iterates.

Hot leaf functions (such as `covering.evaluate`, called once per schedule by
the brute-force oracle) keep their first `leaf_span_limit` spans; later leaf
calls are folded into their parent span as a count plus total time. A
layer's self time is its span time minus the time covered by child spans and
folded leaf calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = ("network", "errors", "datasets", "instance", "covering", "exact",
          "heuristics", "milp", "lp_io", "solver", "growth", "cli")
EXTRA_METHODS = (("cli", "RunReport", "aggregates"),)


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    t0: float
    t1: float
    depth: int = 0
    folded: dict = field(default_factory=dict)  # leaf name -> [count, total seconds]

    def to_json(self):
        return {"id": self.sid, "parent": self.parent, "op": self.op, "name": self.name,
                "start": self.t0, "end": self.t1, "folded": self.folded}


def layer_of(name):
    return name.split(".", 1)[0]


class _Frame:
    __slots__ = ("sid", "name", "t0", "has_children", "folded")

    def __init__(self, sid, name):
        self.sid = sid
        self.name = name
        self.t0 = 0.0
        self.has_children = False
        self.folded = None


class Tracer:
    def __init__(self, leaf_span_limit=100):
        self.leaf_span_limit = leaf_span_limit
        self.spans: list[Span] = []
        self.calls = Counter()
        self.op = None
        self.paused = 0
        self._stack: list[_Frame] = []
        self._leaf_spans = Counter()
        self._next_id = 0
        self._hooks = {}
        self._patches = []

    # -- installation ------------------------------------------------------

    def on_return(self, name, hook):
        """Call hook(result, args, kwargs) after each traced call of `name`."""
        self._hooks[name] = hook

    def install(self):
        modules = [importlib.import_module(f"evcover.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module("evcover")] + modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, obj, wrapper)
        for layer, cls_name, meth in EXTRA_METHODS:
            cls = getattr(importlib.import_module(f"evcover.{layer}"), cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original,
                        self._wrap(f"{layer}.{cls_name}.{meth}", original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        return traced

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(self._next_id, name)
        self._next_id += 1
        stack.append(frame)
        frame.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._record(frame, parent, t1, len(stack))
        hook = self._hooks.get(name)
        if hook is not None:
            hook(result, args, kwargs)
        return result

    def _record(self, frame, parent, t1, depth):
        name = frame.name
        self.calls[name] += 1
        if parent is not None:
            parent.has_children = True
            if not frame.has_children and self._leaf_spans[name] >= self.leaf_span_limit:
                if parent.folded is None:
                    parent.folded = {}
                slot = parent.folded.setdefault(name, [0, 0.0])
                slot[0] += 1
                slot[1] += t1 - frame.t0
                return
        if not frame.has_children:
            self._leaf_spans[name] += 1
        self.spans.append(Span(frame.sid, parent.sid if parent is not None else None,
                               self.op, name, frame.t0, t1, depth, frame.folded or {}))

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside the block run untraced (used for output checks)."""
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1


# -- span arithmetic ---------------------------------------------------------------


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time per span id: duration minus the part of the span's interval
    covered by its child spans, minus the time of its folded leaf calls."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = _union_length(children.get(s.sid, ()), s.t0, s.t1)
        folded = sum(total for _, total in s.folded.values())
        out[s.sid] = max(0.0, (s.t1 - s.t0) - covered - folded)
    return out


def entry_self_times(spans):
    """Self time per layer entry point.

    A call enters a layer when its caller is in another layer (or outside
    evcover); self time of nested same-layer calls is charged to that entry.
    Folded leaf calls are charged to their parent's entry when they share its
    layer, else to the leaf itself. Returns {entry name: seconds}.
    """
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    entry = {}
    for s in sorted(spans, key=lambda s: (s.t0, s.depth)):
        p = by_id.get(s.parent)
        if p is not None and layer_of(p.name) == layer_of(s.name):
            entry[s.sid] = entry[p.sid]
        else:
            entry[s.sid] = s.name
    totals = Counter()
    for s in spans:
        totals[entry[s.sid]] += own[s.sid]
        for leaf, (_, total) in s.folded.items():
            totals[entry[s.sid] if layer_of(leaf) == layer_of(s.name) else leaf] += total
    return dict(totals)


def layer_self_times(entry_totals):
    out = Counter()
    for name, seconds in entry_totals.items():
        out[layer_of(name)] += seconds
    return dict(out)


def calls_under(spans, parent_name, child_name):
    """Calls of `child_name` made directly from spans named `parent_name`."""
    parents = {s.sid for s in spans if s.name == parent_name}
    n = sum(1 for s in spans if s.name == child_name and s.parent in parents)
    n += sum(s.folded.get(child_name, (0, 0.0))[0] for s in spans if s.sid in parents)
    return n


def inclusive_time(spans, name):
    return sum(s.t1 - s.t0 for s in spans if s.name == name)
