"""Spans recorded around calls into the package, installed from outside.

A :class:`Tracer` wraps callables so that each call records a span (name,
start, end, parent) and, through an optional hook, the counts known at that
boundary. :func:`install` replaces each target at every attribute its
callers look it up through: on the class for methods (aliases such as
``CurvatureOperator.__call__`` included), and in every loaded module of the
package that imported a function by name. :func:`uninstall` puts the
originals back. Spans stay in memory until the caller reads them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

# Attribute set on every wrapper, so a scan can prove none is left installed.
MARKER = "__bench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording one span per call. ``hook(tracer, span, args,
        kwargs, result)`` runs after the span ends and may add attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One public callable: ``module`` and dotted ``qualname`` locate the
    original; ``name`` is the span name."""

    module: str
    qualname: str
    name: str
    hook: object = None


def _namespaces(package: str):
    """(label, namespace) for the globals of every loaded module of the
    package and the dictionary of every package class they hold."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        yield mod_name, mod
        for attr, value in list(vars(mod).items()):
            if isinstance(value, type) and value.__module__.startswith(package):
                yield f"{mod_name}.{attr}", value


def _holders(original, package: str) -> list:
    """Every (namespace, attribute) through which ``original`` is looked up."""
    return list(dict.fromkeys(
        (ns, attr)
        for _, ns in _namespaces(package)
        for attr, value in list(vars(ns).items())
        if value is original
    ))


def _resolve(target: Target):
    obj = importlib.import_module(target.module)
    for part in target.qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def install(tracer: Tracer, targets: list, package: str = "quadbias") -> list:
    """Wrap every target; returns the (holder, attribute, original) triples
    replaced, for :func:`uninstall`."""
    entries = []
    try:
        for target in targets:
            original = _resolve(target)
            wrapper = tracer.wrap(target.name, original, target.hook)
            holders = _holders(original, package)
            if not holders:
                raise LookupError(f"{target.module}.{target.qualname} is looked up nowhere")
            for holder, attr in holders:
                setattr(holder, attr, wrapper)
                entries.append((holder, attr, original))
    except BaseException:
        uninstall(entries)
        raise
    return entries


def uninstall(entries: list) -> None:
    for holder, attr, original in reversed(entries):
        setattr(holder, attr, original)


def installed_wrappers(package: str = "quadbias") -> list:
    """Names of attributes in the package that still hold a span wrapper."""
    return sorted({
        f"{label}.{attr}"
        for label, ns in _namespaces(package)
        for attr, value in list(vars(ns).items())
        if hasattr(value, MARKER)
    })
