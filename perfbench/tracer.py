"""Span tracer that wraps package functions from outside the package.

Tracing rebinds module attributes: every module attribute that is the
original function object (the defining module's own name and any
by-name copy made with ``from .x import f``) is replaced by a wrapper
that records a span, and restored when tracing ends. Nothing in the
package is edited, and a function that no longer exists is reported as
absent instead of failing the run.

Each thread keeps its own stack of open spans. A span opened in a
thread whose stack is empty (a worker of a thread pool) takes as parent
the innermost open span of a function named in ``fork_parents``.

Self time is wall time shared out among the deepest open spans: at
every instant the spans that are open and have no open child split
that instant equally. In one thread this is a span's duration minus
the part of it its children cover; with worker threads it still makes
the self times of a call tree add up to the wall time of its root.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int


class Tracer:
    """Records spans around the functions named as ``module.function``.

    targets : names relative to ``package``, e.g. "linalg.lu_solve"
    hooks : optional {name: fn(args, kwargs, result)} called after each
        traced call returns, for counters computed from arguments
    """

    def __init__(self, package, targets, hooks=None, fork_parents=()):
        self.package = package
        self.targets = list(targets)
        self.hooks = dict(hooks or {})
        self.fork_parents = set(fork_parents)
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_forks = []
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        is_fork = name in self.fork_parents

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_forks[-1] if self._open_forks else None
            sid = next(self._ids)
            stack.append(sid)
            if is_fork:
                self._open_forks.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_fork:
                    self._open_forks.remove(sid)
                self.spans.append(
                    Span(sid, parent, name, start, end, threading.get_ident())
                )
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None
            and (key == self.package or key.startswith(self.package + "."))
        ]
        for name in self.targets:
            mod_name, _, attr = name.rpartition(".")
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()
        return False


def self_times(spans):
    """{span id: self seconds} under the deepest-open-span rule."""
    by_id = {s.id: s for s in spans}
    # At equal times ends sort before starts, and children (larger ids)
    # end before their parents.
    events = sorted(
        [(s.start, 1, s.id) for s in spans] + [(s.end, 0, -s.id) for s in spans]
    )
    out = dict.fromkeys(by_id, 0.0)
    open_spans = set()
    open_children = defaultdict(int)
    deepest = set()
    last = None
    for t, is_start, key in events:
        if deepest and t > last:
            share = (t - last) / len(deepest)
            for d in deepest:
                out[d] += share
        last = t
        sid = key if is_start else -key
        parent = by_id[sid].parent
        if is_start:
            open_spans.add(sid)
            deepest.add(sid)
            if parent in open_spans:
                open_children[parent] += 1
                deepest.discard(parent)
        else:
            open_spans.discard(sid)
            deepest.discard(sid)
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    deepest.add(parent)
    return out


def summarize(spans, names):
    """Per-name totals: {name: {"self_s": ..., "calls": ..., "total_s": ...}}."""
    selfs = self_times(spans)
    out = {n: {"self_s": 0.0, "calls": 0, "total_s": 0.0} for n in names}
    for s in spans:
        row = out.setdefault(s.name, {"self_s": 0.0, "calls": 0, "total_s": 0.0})
        row["self_s"] += selfs[s.id]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
    return out


def root_total(spans):
    """Summed wall time of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)

