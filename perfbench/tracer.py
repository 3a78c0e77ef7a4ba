"""Span tracing from outside the package.

``Tracer.install`` replaces every public function in the namespaces of the
named ``flowcast`` modules with a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  Calls made through
a module attribute (``forecast_mod.predict``) and through a module global
(``flow_apply`` inside ``flowcast.flow``) both go through the namespace, so
both are seen; a function imported into another module is traced under
that module's name (``flow.flow_apply``, ``metrics.crps_batch``).

Spans are kept in memory as flat integer arrays and written out once, at
the end of the run.  A span's self time is its duration minus the
durations of its direct children, so the self times of all names add up
to the duration of the root span.

``PhaseClock`` wraps the same functions for untraced runs, with only a
timestamp per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import mmap
import types
from array import array
from time import perf_counter, perf_counter_ns

import numpy as np

TRACED_MODULES = ("data", "ssm", "flow", "filters", "forecast", "train", "autodiff", "metrics", "kernels", "cli", "config")


def install(wrap, modules=TRACED_MODULES) -> list:
    """Replace every public function of the named namespaces by ``wrap(name, fn)``; returns what ``uninstall`` needs."""
    restore = []
    for short in modules:
        mod = importlib.import_module(f"flowcast.{short}")
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            setattr(mod, attr, wrap(f"{short}.{attr}", value))
            restore.append((mod, attr, value))
    return restore


def uninstall(restore) -> None:
    for mod, attr, value in reversed(restore):
        setattr(mod, attr, value)
    restore.clear()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # one record per span: name index, start ns, end ns, parent span (-1 = none)
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return idx

    def _open(self, idx: int) -> None:
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append([sid, 0])
        self.span_start.append(perf_counter_ns())

    def _close(self) -> None:
        end = perf_counter_ns()
        sid, child_ns = self._stack.pop()
        self.span_end[sid] = end
        dur = end - self.span_start[sid]
        idx = self.span_name[sid]
        self.calls[idx] += 1
        self.total_ns[idx] += dur
        self.self_ns[idx] += dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span under ``name`` around the ``with`` block."""
        self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn):
        idx = self.name_id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                closed()

        return traced

    # -- installation ------------------------------------------------------

    def install(self, modules=TRACED_MODULES) -> None:
        self._restore = install(self.wrap, modules)

    def uninstall(self) -> None:
        uninstall(self._restore)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s}, for every name that was called."""
        return {
            name: {"calls": self.calls[i], "total_s": self.total_ns[i] / 1e9, "self_s": self.self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write(self, path) -> None:
        """Spans as JSON: the name table plus four parallel integer columns."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "start_ns": self.span_start.tolist(),
                    "end_ns": self.span_end.tolist(),
                    "parent": self.span_parent.tolist(),
                },
                fh,
            )



class PhaseClock:
    """A timestamp at the entry of every public function of the traced namespaces.

    Untraced runs use these marks to split each timed unit into phases
    (see ``workloads.FastestUnit``).  One clock read and two stores per
    call, well under a microsecond; nothing is wrapped by name, so the
    marks follow whatever public functions the package has.  The marks of
    a round go into two fixed anonymous mappings, so that keeping them
    does not move the heap and the run's peak RSS grows only by the pages
    one round touches.
    """

    CAPACITY = 1 << 22  # marks per round

    def __init__(self, capacity=CAPACITY):
        self.names: list[str] = []
        self.count = 0
        self._buffers = [mmap.mmap(-1, 8 * capacity) for _ in range(2)]
        self.times = np.frombuffer(self._buffers[0], dtype=np.float64)
        self.labels = np.frombuffer(self._buffers[1], dtype=np.int64)
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        label = len(self.names)
        self.names.append(name)
        clock, times, labels, capacity = self, self.times, self.labels, len(self.times)

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            i = clock.count
            if i == capacity:
                raise RuntimeError(f"more than {capacity} phase marks in one round")
            times[i] = perf_counter()
            labels[i] = label
            clock.count = i + 1
            return fn(*args, **kwargs)

        return marked

    def install(self, modules=TRACED_MODULES) -> None:
        self._restore = install(self.wrap, modules)

    def uninstall(self) -> None:
        uninstall(self._restore)

    def phases(self, start: float, end: float, keep=None):
        """(call sequence as bytes, phase durations) between ``start`` and ``end``, cut at the marks (of the labels in ``keep`` only, if given)."""
        times, labels = self.times[: self.count], self.labels[: self.count]
        lo, hi = np.searchsorted(times, [start, end])
        times, labels = times[lo:hi], labels[lo:hi]
        if keep is not None:
            inside = np.isin(labels, keep)
            times, labels = times[inside], labels[inside]
        return labels.tobytes(), np.diff(np.concatenate(([start], times, [end])))

    def clear(self) -> None:
        """Drop the marks taken so far."""
        self.count = 0
