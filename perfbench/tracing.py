"""Tracing for the benchmark's traced run, built from outside the program.

Two instruments, both switched on only by a ``--trace 1`` run:

- :class:`Tracer` records spans (name, start, end, parent, request id)
  around calls into the program's public functions.  It patches those
  functions for the duration of the run and restores them afterwards;
  nothing under ``src/`` knows it exists.  Spans stay in memory until
  :meth:`Tracer.dump` writes them out.
- :func:`layer_profile` turns a ``cProfile`` run into self seconds and
  call counts per layer, using the module map in ``index.json``.  The
  hot-path layers (memory model, symbol resolution) make millions of
  calls per answer; a span per call would cost more than the work.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import pstats
import sys
import threading
import time


class Tracer:
    """In-memory span recorder with function patching."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        # Each client thread nests its own spans.
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: "object | None" = None):
        """Record one span around the block; nested spans get a parent
        and inherit its request id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "request": request,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def traced(self, name: str, func, on_return=None):
        """``func`` wrapped in a span; ``on_return(args, result)`` sees
        each call's arguments and result and returns what the caller gets."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_return is not None:
                result = on_return(args, result)
            return result

        return wrapper

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str, on_return=None) -> None:
        """Trace ``cls.attr`` for every caller, until :meth:`restore`."""
        self.replace(cls, attr, self.traced(name, vars(cls)[attr], on_return))

    def patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Trace a module-level function in every loaded module that
        imported it by name (``from m import f`` binds a copy)."""
        original = getattr(sys.modules[module_name], attr)
        traced = self.traced(name, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self.replace(module, key, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans.

        Spans of one thread nest strictly, so the children of a span never
        overlap and their durations simply add up.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def dump(self, path: str) -> None:
        """Write every span, with the per-name self times, as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "self_s": self.self_seconds()},
                handle,
                default=str,
            )


def module_layer(filename: str, layers: dict[str, list[str]]) -> str:
    """The layer owning a source file: the longest matching module prefix
    under ``repro/``; ``other`` for everything else."""
    marker = "/repro/"
    index = filename.rfind(marker)
    if index < 0:
        return "other"
    relative = filename[index + len(marker):]
    best, best_len = "other", -1
    for layer, prefixes in layers.items():
        for prefix in prefixes:
            if relative.startswith(prefix) and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def layer_profile(stats: pstats.Stats, layers: dict[str, list[str]]) -> dict:
    """Aggregate a profile into self seconds per layer plus call counts.

    Returns ``{"self_s": {layer: s}, "calls": {"path/under/repro.py:func": n}}``.
    Time a server's event loop spends waiting in ``epoll`` is its own
    ``idle`` layer rather than part of ``other``.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        layer = "idle" if "select.epoll" in func else module_layer(filename, layers)
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        index = filename.rfind("/repro/")
        if index >= 0:
            key = f"{filename[index + len('/repro/'):]}:{func}"
            calls[key] = calls.get(key, 0) + ncalls
    return {"self_s": self_s, "calls": calls}
