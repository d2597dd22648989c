"""Span recorder for the traced benchmark run.

Wraps functions of the fedsynth package from outside, at every place they
are reachable (a function imported into several modules is patched in
each), times each call as a span, and charges a span's duration to its
parent so that every span also has a self time: its duration minus the
time covered by the wrapped calls it made.  Originals are restored when
the traced block ends, also when it raises.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "fedsynth"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Accumulates calls, total and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []
        self.observers: dict[str, object] = {}

    def _enter(self) -> list:
        frame = [self.clock(), 0.0]  # start, time covered by children
        self._stack.append(frame)
        return frame

    def _exit(self, stats: SpanStats, frame: list) -> None:
        self._stack.pop()
        duration = self.clock() - frame[0]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, fn, name: str):
        """A wrapper that runs ``fn`` inside a span; if an observer is
        registered under ``name`` it sees (args, kwargs, result).  The span
        bookkeeping is inlined, not a ``with`` block, because wrapped
        functions are called up to hundreds of thousands of times a pass."""
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stats, frame)
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return wrapper

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))


def _owner_and_attr(path: str):
    """Resolve ``module.attr`` or ``module.Class.attr`` to (owner, attr)."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        owner = module
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]
    raise KeyError(f"no imported module for {path!r}")


@contextmanager
def traced(recorder: Recorder, targets: dict[str, str]):
    """Patch every target for the duration of the block.

    ``targets`` maps a dotted path of the defining site (``module.func`` or
    ``module.Class.method``) to its span name.  A module-level function is
    also replaced in every other loaded module of the package that holds the
    same object, so calls through any import name are recorded.
    """
    patched: list[tuple[object, str, object]] = []
    try:
        for path, name in targets.items():
            owner, attr = _owner_and_attr(path)
            original = owner.__dict__[attr]
            wrapper = recorder.wrap(original, name)
            sites = [owner]
            if isinstance(owner, types.ModuleType):
                sites += [
                    m for mname, m in sorted(sys.modules.items())
                    if m is not None and m is not owner
                    and (mname == PACKAGE or mname.startswith(PACKAGE + "."))
                    and getattr(m, attr, None) is original
                ]
            for site in sites:
                setattr(site, attr, wrapper)
                patched.append((site, attr, original))
        yield recorder
    finally:
        for site, attr, original in reversed(patched):
            setattr(site, attr, original)
