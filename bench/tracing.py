"""Spans around the public functions of algcomplete, installed from outside.

`install` replaces every public function of each algcomplete module, every
public static method and cached property of the classes defined there,
under every module attribute that names it, with a wrapper that records a
span.  A generator is timed only while inside its `__next__`.  It returns
the names of the metrics those wrappers can produce, so that a metric whose
function was renamed or moved is caught instead of reading 0.  Spans stay
in memory; `span_totals` turns them into self and cumulative time per name
once the measured call has returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from functools import cached_property

MODULES = ("groups", "commutators", "automorphisms", "extensions", "completeness",
           "catalog", "rings", "lie", "cli")

# Span names that differ from module.qualname.
RENAMED = {
    "extensions.SplitExtension.create": "extensions.split_extension_check",
    "automorphisms.AutomorphismGroup.carrier": "automorphisms.carrier",
}

# Metric prefixes that add up several spans.
GROUPED = {"lie.linear_algebra": ("lie.nullspace", "lie.solve_linear", "lie.rank")}

# What a generator's yields count as.
YIELDS = {"extensions.iter_actions": "actions", "groups.iter_hom_images": "images"}


class Tracer:
    """Open spans on a stack; closed spans as [name, start, end, parent] rows."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._seen_aut: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Self time ("s") and cumulative time ("cum_s") per span name.

    Self time is a span's duration minus the durations of its direct
    children.  Cumulative time counts a span only when no enclosing span has
    the same name, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = out.setdefault(name, {"s": 0.0, "cum_s": 0.0})
        t["s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["cum_s"] += end - start
    return out


def metric_value(name: str, totals: dict, counts) -> float:
    """A per-layer metric from span totals (".s", ".cum_s") or from the counts."""
    for suffix in ("s", "cum_s"):
        if name.endswith("." + suffix):
            prefix = name[: -len(suffix) - 1]
            parts = GROUPED.get(prefix, (prefix,))
            return sum(totals.get(p, {}).get(suffix, 0.0) for p in parts)
    return counts.get(name, 0)


# -- wrappers -------------------------------------------------------------------


class _TracedIterator:
    __slots__ = ("_it", "_tracer", "_name", "_yield_key")

    def __init__(self, it, tracer: Tracer, name: str):
        self._it = it
        self._tracer = tracer
        self._name = name
        self._yield_key = f"{name}.{YIELDS.get(name, 'yields')}"

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._name)
        try:
            value = next(self._it)
        finally:
            self._tracer.close(idx)
        self._tracer.counts[self._yield_key] += 1
        return value


def _oracle_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    return f"completeness.oracle_{mode}"


def _count_found(tracer, args, result):
    tracer.counts["groups.find_constrained_hom.found"] += len(result)


def _count_embeddings(tracer, args, result):
    tracer.counts["extensions.enumerate_normal_embeddings.embeddings"] += len(result)


def _count_automorphisms(tracer, args, result):
    if args[0] not in tracer._seen_aut:
        tracer._seen_aut.add(args[0])
        tracer.counts["automorphisms.automorphism_group.distinct"] += 1
        tracer.counts["automorphisms.automorphism_group.automorphisms"] += result.order


# Functions whose span is named by an argument: (namer, every name it gives).
NAMERS = {"completeness.oracle_completeness":
          (_oracle_name, tuple(f"completeness.oracle_{m}" for m in ("proto", "strong", "complete")))}
# Counts besides ".calls": (the counts it keeps, counter).
COUNTERS = {
    "groups.find_constrained_hom": (("found",), _count_found),
    "extensions.enumerate_normal_embeddings": (("embeddings",), _count_embeddings),
    "automorphisms.automorphism_group": (("distinct", "automorphisms"), _count_automorphisms),
}


def metric_names(name: str, fn) -> set[str]:
    """The per-layer metrics that wrapping `fn` as `name` can produce."""
    spans = NAMERS[name][1] if name in NAMERS else (name,)
    out = {f"{span}.{k}" for span in spans for k in ("s", "cum_s", "calls")}
    if inspect.isgeneratorfunction(fn):
        out.add(f"{name}.{YIELDS.get(name, 'yields')}")
    out.update(f"{name}.{k}" for k in COUNTERS.get(name, ((), None))[0])
    return out


def wrap(tracer: Tracer, name: str, fn):
    """`fn` with a span per call (per `__next__` for a generator function)."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.counts[f"{name}.calls"] += 1
            return _TracedIterator(fn(*args, **kwargs), tracer, name)

        return gen_wrapper

    namer = NAMERS.get(name, (None,))[0]
    counter = COUNTERS.get(name, ((), None))[1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = namer(args, kwargs) if namer else name
        tracer.counts[f"{span}.calls"] += 1
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter:
            counter(tracer, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> set[str]:
    """Wrap the public surface of every module, under every name that refers to it.

    Returns the names of the per-layer metrics the wrappers can produce.
    """
    mods = [importlib.import_module(f"algcomplete.{m}") for m in MODULES]
    replaced: dict[int, object] = {}
    produced: set[str] = set()
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                replaced[id(obj)] = wrap(tracer, name, obj)
                produced |= metric_names(name, obj)
            elif inspect.isclass(obj):
                produced |= _wrap_class(tracer, short, obj)
    for ns in mods + [sys.modules["algcomplete"]]:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(ns, attr, replaced[id(obj)])
    for prefix, parts in GROUPED.items():
        for suffix in ("s", "cum_s"):
            if all(f"{p}.{suffix}" in produced for p in parts):
                produced.add(f"{prefix}.{suffix}")
    return produced


def _wrap_class(tracer: Tracer, short: str, cls) -> set[str]:
    produced: set[str] = set()
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = RENAMED.get(f"{short}.{cls.__name__}.{attr}", f"{short}.{cls.__name__}.{attr}")
        if isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(wrap(tracer, name, obj.__func__)))
            produced |= metric_names(name, obj.__func__)
        elif isinstance(obj, cached_property):
            prop = cached_property(wrap(tracer, name, obj.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
            produced |= metric_names(name, obj.func)
    return produced
