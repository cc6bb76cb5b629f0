"""Spans around calls into the ginibre_overlaps package, installed from outside.

A hook names a function by its home module (``"ensemble._stream"``, or
``"numpy.linalg.eig"`` for a library call).  Installing it replaces every
binding of that function that a caller looks up: the home module's own
global, and the copy a module made with ``from .x import f`` (for example
``mc_harness.sample_ginibre_batch``).  Each binding gets its own wrapper,
named ``<binding module>.<attr>``, so the same function can be told apart
by caller (the CDF's ``mc_harness.integrate_finite`` against
``analytic_real.integrate_finite``).

A wrapper records one span per call: id, parent id, name, start and end.
A call made while a span of the same name is already open on the thread is
folded into that span: ``reg_gamma_q`` calls itself once per array element
through its module global, and counting those calls as spans would count
their time twice.  A thread that opens its first span while the main thread
has one open (the campaign's shard workers) takes that span as parent.

Spans are kept in flat per-thread buffers and reduced once per repetition
(``Tracer.end``): total time, self time (the span's duration minus the part
of it covered by its children), call count and longest call per name.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "ginibre_overlaps"


@dataclass(frozen=True)
class Hook:
    """A function to wrap, by home module and attribute.

    tally(counters, bound_arguments, result) adds counts to a per-thread
    dict; keep=True keeps every return value for the caller's checks.
    """

    target: str
    tally: Callable | None = None
    keep: bool = False


@dataclass
class RepTrace:
    """Per-name reductions of the spans of one repetition."""

    total: dict
    self_time: dict
    calls: dict
    longest: dict
    counters: dict
    covered_s: float
    spans: np.ndarray   # rows of (code, start, end), in order of opening

    def intervals(self, codes) -> list:
        """(start, end) of every span whose code is in `codes`."""
        rows = self.spans[np.isin(self.spans[:, 0], list(codes))]
        return [(float(a), float(b)) for a, b in rows[:, 1:]]


class _ThreadState:
    def __init__(self, ncodes: int):
        self.stack: list[int] = []
        self.open = [0] * ncodes
        self.spans = array("d")   # (id, parent, code, start, end) per span
        self.counters: dict = {}
        self.kept: list = []


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") else module_name


def _union_length(starts, ends) -> float:
    covered, reach = 0.0, -np.inf
    for s, e in sorted(zip(starts, ends)):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return covered


class Tracer:
    """Installs hooks, records spans between begin() and end()."""

    def __init__(self, hooks):
        self.names: list[str] = []      # span name per code
        self.homes: list[str] = []      # hook target per code
        self.absent: list[str] = []     # hook targets the package no longer has
        self._hooks = list(hooks)
        self._undo: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main: _ThreadState | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        modules = package_modules()
        for hook in self._hooks:
            mod_name, attr = hook.target.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{mod_name}") or sys.modules.get(mod_name)
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.absent.append(hook.target)
                continue
            sig = inspect.signature(fn) if hook.tally else None
            for mod in [home] + [m for m in modules if m is not home]:
                if getattr(mod, attr, None) is not fn:
                    continue
                code = len(self.names)
                self.names.append(f"{_short(mod.__name__)}.{attr}")
                self.homes.append(hook.target)
                setattr(mod, attr, self._wrap(fn, code, hook, sig))
                self._undo.append((mod, attr, fn))
        return self

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, code: int, hook: Hook, sig):
        tracer, perf, ids = self, time.perf_counter, self._ids
        tally, keep = hook.tally, hook.keep

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if st.open[code]:
                return fn(*args, **kwargs)
            sid = next(ids)
            stack = st.stack
            parent = stack[-1] if stack else tracer._foreign_parent(st)
            stack.append(sid)
            st.open[code] = 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                st.open[code] = 0
                st.spans.extend((sid, parent, code, t0, t1))
            if tally is not None:
                tally(st.counters, sig.bind(*args, **kwargs).arguments, result)
            if keep:
                st.kept.append((code, result))
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(len(self.names))
            self._states.append(st)
        return st

    def results(self, target: str) -> list:
        """Return values kept so far in this repetition by any binding of `target`."""
        return [r for st in self._states for c, r in st.kept if self.homes[c] == target]

    def _foreign_parent(self, st: _ThreadState) -> int:
        main = self._main
        if main is None or main is st or not main.stack:
            return -1
        return main.stack[-1]

    def begin(self) -> None:
        self._local = threading.local()
        self._states = []
        self._main = self._state()

    def end(self) -> RepTrace:
        states, self._states, self._main = self._states, [], None
        ncodes = len(self.names)
        parts = [np.frombuffer(st.spans, dtype=float).reshape(-1, 5) for st in states]
        thread = np.concatenate([np.full(len(p), i) for i, p in enumerate(parts)] or [[]])
        spans = np.concatenate(parts) if parts else np.empty((0, 5))
        order = np.argsort(spans[:, 0], kind="stable")
        spans, thread = spans[order], thread[order]
        sid, parent, code = spans[:, 0], spans[:, 1], spans[:, 2].astype(np.int64)
        t0, t1 = spans[:, 3], spans[:, 4]
        dur = t1 - t0

        child = np.nonzero(parent >= 0)[0]
        prow = np.searchsorted(sid, parent[child])
        same = thread[child] == thread[prow]
        cover = np.zeros(len(spans))
        # children on the parent's thread run one after another: sum them
        np.add.at(cover, prow[same], dur[child[same]])
        # children on other threads (campaign shards) overlap: take the union
        for p in np.unique(prow[~same]):
            rows = child[~same][prow[~same] == p]
            cover[p] += _union_length(t0[rows], t1[rows])
        own = np.maximum(dur - cover, 0.0)

        total = np.bincount(code, dur, ncodes)
        self_time = np.bincount(code, own, ncodes)
        calls = np.bincount(code, minlength=ncodes)
        longest = np.zeros(ncodes)
        np.maximum.at(longest, code, dur)
        counters: dict = {}
        for st in states:
            for key, val in st.counters.items():
                counters[key] = counters.get(key, 0) + val
        def by_name(arr, kind=float):
            return {n: kind(arr[i]) for i, n in enumerate(self.names)}

        return RepTrace(total=by_name(total), self_time=by_name(self_time),
                        calls=by_name(calls, int), longest=by_name(longest),
                        counters=counters, covered_s=float(dur[parent < 0].sum()),
                        spans=np.column_stack([code, t0, t1]))
