"""Span recorder that wraps a package's public functions from outside.

Each wrapped call records a span: name, start, end and the span that
was open when it began.  Spans stay in flat arrays in memory until the
caller asks for the summary, so recording costs two clock reads and a
few appends per call.

The package binds names with `from .x import y`, so replacing only the
defining module's attribute would miss every caller that imported the
name.  `install` therefore replaces the function object at every
module attribute that holds it, and `uninstall` puts each one back.

    python3 perfbench/tracer.py      # self-check of the self-time arithmetic
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from array import array


class Tracer:
    """Flat, append-only span store with self-time accounting."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack: list[int] = []
        # per-name work counters filled by the `work` callbacks of `wrap`
        self.work: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def count(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + amount

    def wrap(self, fn, name: str, work=None):
        """A callable that records a span around `fn`.

        `work(tracer, args, kwargs, result)` runs after a call that
        returned, outside the span, to add computed work counts.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if work is not None:
                work(tracer, args, kwargs, result)
            return result

        return traced

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def spans_of(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid] if nid is not None else []

    def ancestor_names(self, idx: int):
        p = self.parent[idx]
        while p >= 0:
            yield self.names[self.name[p]]
            p = self.parent[p]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, inclusive and self seconds,
        and the median inclusive milliseconds per call."""
        dur = self.durations()
        own = self.self_times()
        per: dict[int, list[int]] = {}
        for i, nid in enumerate(self.name):
            per.setdefault(nid, []).append(i)
        out = {}
        for nid, idxs in per.items():
            out[self.names[nid]] = {
                "calls": len(idxs),
                "failed": sum(self.failed[i] for i in idxs),
                "total_s": sum(dur[i] for i in idxs),
                "self_s": sum(own[i] for i in idxs),
                "median_ms": statistics.median(dur[i] for i in idxs) * 1000.0,
            }
        return out


def _public_functions(module: types.ModuleType):
    """Functions a package module defines under a public name, plus the
    public methods of the classes it defines."""
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield value, None, attr
        elif isinstance(value, type):
            for meth, fn in vars(value).items():
                if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                    yield fn, value, meth


def install(tracer: Tracer, modules: list[types.ModuleType], package: str,
            work: dict | None = None) -> list[tuple]:
    """Wrap every public function and method of `modules` at every module
    attribute that binds it.  Returns the undo list for `uninstall`."""
    work = work or {}
    wrappers = {}
    undo = []
    for module in modules:
        short = module.__name__[len(package) + 1:] or module.__name__
        for fn, owner, attr in _public_functions(module):
            qual = f"{short}.{owner.__name__}.{attr}" if owner else f"{short}.{attr}"
            wrapped = tracer.wrap(fn, qual, work.get(qual))
            wrappers[id(fn)] = (fn, wrapped)
            if owner is not None:
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value)) if isinstance(value, types.FunctionType) else None
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def selfcheck() -> None:
    """Nested spans on a scripted clock must give exact self times.

    outer [0, 10] holds inner [1, 4] and inner [5, 9]; the second inner
    holds leaf [6, 7].  Self times: outer 3, inner 3 + 3, leaf 1.
    """
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    leaf = t.wrap(lambda: None, "leaf")

    def inner_body(nested):
        if nested:
            leaf()

    inner = t.wrap(inner_body, "inner")
    outer = t.wrap(lambda: (inner(False), inner(True)), "outer")
    outer()
    s = t.summary()
    expected = {"outer": (1, 10.0, 3.0), "inner": (2, 7.0, 6.0), "leaf": (1, 1.0, 1.0)}
    for name, (calls, total, own) in expected.items():
        got = (s[name]["calls"], s[name]["total_s"], s[name]["self_s"])
        if got != (calls, total, own):
            raise AssertionError(f"span {name}: expected {(calls, total, own)}, got {got}")
    if s["inner"]["median_ms"] != 3500.0:
        raise AssertionError(f"inner median {s['inner']['median_ms']} ms, expected 3500")
    if [t.names[t.name[p]] for p in t.parent if p >= 0] != ["outer", "outer", "inner"]:
        raise AssertionError("parent links do not follow the call nesting")


if __name__ == "__main__":
    selfcheck()
    print("tracer self-check passed")
    sys.exit(0)
