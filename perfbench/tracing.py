"""Call spans around the public functions of each shapetrack module.

The benchmark wraps every public function, and every public method of a
public class, defined in the package's modules. The wrappers are installed
from outside the package: each module global (and class attribute) that
refers to an original function is swapped for its wrapper and swapped back
by ``Tracer.uninstall``. Each call records one span
``(function id, start, end, parent span, tag)`` in memory; ``summarize``
reduces a list of spans to per-function busy time, per-layer self time and
per-call durations.

Self time of a span is its duration minus the durations of its direct
child spans, so the self times of all spans sum to the durations of the
root spans. "Own-layer" time of a span is its duration minus its outermost
descendant spans of another layer (e.g. ``Tracker.update`` minus the
statistical-linearization update and the closest-point solves under it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "shapetrack"
LAYERS = (
    "config",
    "targets",
    "simulate",
    "tracker",
    "gaussian",
    "ellipse",
    "starconvex",
    "metrics",
    "svgplot",
    "cli",
)


@dataclass(frozen=True)
class Probe:
    """Work counts taken at one traced function.

    ``before(args, kwargs)`` runs before the call and returns a snapshot;
    ``after(snapshot, args, kwargs, result)`` returns ``(tag, counts)``,
    where ``tag`` groups the call's duration (e.g. by dimension) and
    ``counts`` maps count names to numbers added to the running totals.
    Both run outside the span's own interval.
    """

    after: object
    before: object = None


def public_callables():
    """Yield ``(qualified name, owner, attribute, function)`` to be traced.

    ``owner`` is the module or class holding the function. Only names
    without a leading underscore that are defined in the layer's own module
    are taken; properties, class methods and static methods are not.
    """
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", mod, name, obj
            elif inspect.isclass(obj):
                for attr, val in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(val):
                        yield f"{layer}.{name}.{attr}", obj, attr, val


class Tracer:
    """Installs span-recording wrappers and collects their spans and counts."""

    def __init__(self, probes: dict | None = None):
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.errors: dict = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.names = []
        wrapped = {}
        for qualname, owner, attr, fn in public_callables():
            wrapper = self._wrap(len(self.names), fn, self.probes.get(qualname))
            self.names.append(qualname)
            wrapped[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._swap(owner, attr, fn, wrapper)
        unknown = set(self.probes) - set(self.names)
        if unknown:
            self.uninstall()
            raise KeyError(f"probes for untraced functions: {sorted(unknown)}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._swap(mod, name, val, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def take(self) -> tuple[list, dict, dict]:
        """Return and clear the spans, counts and error counts recorded so far."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        out = (self.spans, dict(self.counts), dict(self.errors))
        self.spans = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        return out

    def _wrap(self, fid: int, fn, probe: Probe | None):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            snapshot = probe.before(args, kwargs) if probe and probe.before else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                spans[index] = (fid, t0, t1, parent, "error")
                self.errors[self.names[fid]] += 1
                raise
            t1 = perf()
            stack.pop()
            tag = None
            if probe is not None:
                tag, counts = probe.after(snapshot, args, kwargs, result)
                for key, value in counts.items():
                    self.counts[key] += value
            spans[index] = (fid, t0, t1, parent, tag)
            return result

        return traced


@dataclass
class Summary:
    """Reduction of one list of spans."""

    busy: dict = field(default_factory=lambda: defaultdict(float))
    own_layer: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    durations: dict = field(default_factory=lambda: defaultdict(list))
    layer_self: dict = field(default_factory=lambda: defaultdict(float))
    root_time: float = 0.0


def summarize(spans: list, names: list) -> Summary:
    """Per-function busy/own-layer time and per-layer self time.

    ``durations`` is keyed by ``(name, tag)``. Spans are in call order, so
    every child has a larger index than its parent; walking them in reverse
    completes each span's children before the span itself.
    """
    out = Summary()
    n = len(spans)
    child = [0.0] * n
    foreign = [0.0] * n
    layer_of = [name.split(".", 1)[0] for name in names]
    for i in range(n - 1, -1, -1):
        fid, t0, t1, parent, tag = spans[i]
        dur = t1 - t0
        name = names[fid]
        out.busy[name] += dur
        out.calls[name] += 1
        out.durations[(name, tag)].append(dur)
        out.own_layer[name] += dur - foreign[i]
        out.layer_self[layer_of[fid]] += dur - child[i]
        if parent < 0:
            out.root_time += dur
            continue
        child[parent] += dur
        if layer_of[spans[parent][0]] == layer_of[fid]:
            foreign[parent] += foreign[i]
        else:
            foreign[parent] += dur
    return out
