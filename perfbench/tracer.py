"""In-memory span tracer that instruments ``repro`` from the outside.

Nothing under ``src/`` is edited: the benchmark's child launcher
(``child.py``) wraps the program's public entry points — functions,
methods and instance attributes — with :meth:`Tracer.wrap` after the
modules are imported.  Each call becomes one span (name, start, end,
parent span, request id, optional counters).  Spans stay in memory and
are written out once, when the child exits.

Span names start with the layer they belong to (``engine.draw``,
``serve.dedupe.get`` ...); :func:`self_times` turns a span list into
per-span self time (duration minus the part covered by child spans),
which the parent sums per layer.

All times come from ``CLOCK_MONOTONIC``, which is system-wide on Linux,
so a parent and its children share one time base.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time


def now() -> float:
    """Seconds on the system-wide monotonic clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Collects spans in memory; safe under threads and asyncio tasks.

    The current span and the current request id live in context
    variables, so nesting follows the logical call chain.  Work handed to
    a thread pool keeps its parent only when the hand-off copies the
    context (the serve launcher's pool proxy does).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self.request = contextvars.ContextVar("perfbench_request", default=None)

    def current(self):
        return self._current.get()

    def record(self, name, start, end, parent=None, request=None, **attrs):
        """Append an already-timed span (for intervals no call encloses)."""
        span = {
            "id": next(self._ids),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "request": request,
        }
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields a dict for counters."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        attrs: dict = {}
        start = now()
        try:
            yield attrs
        finally:
            end = now()
            self._current.reset(token)
            span = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": self.request.get(),
            }
            if attrs:
                span["attrs"] = attrs
            self.spans.append(span)

    def wrap(self, fn, name: str, measure=None):
        """``fn`` traced as span ``name``.

        ``measure(args, kwargs, result)`` may return a dict of counters
        stored on the span (bytes drawn, points computed ...).
        """
        if inspect.iscoroutinefunction(fn):

            async def traced(*args, **kwargs):
                with self.span(name) as attrs:
                    result = await fn(*args, **kwargs)
                    if measure is not None:
                        attrs.update(measure(args, kwargs, result))
                    return result

        else:

            def traced(*args, **kwargs):
                with self.span(name) as attrs:
                    result = fn(*args, **kwargs)
                    if measure is not None:
                        attrs.update(measure(args, kwargs, result))
                    return result

        functools.update_wrapper(traced, fn)
        return traced

    def patch_method(self, cls, attr: str, name: str, measure=None) -> bool:
        """Trace ``cls.attr`` for every instance; False if it is absent."""
        original = cls.__dict__.get(attr)
        if isinstance(original, functools.cached_property):
            original.func = self.wrap(original.func, name, measure)
            return True
        if original is None or not callable(original):
            return False
        setattr(cls, attr, self.wrap(original, name, measure))
        return True

    def patch_function(self, module_name: str, attr: str, name: str, measure=None) -> bool:
        """Trace a module-level function everywhere it was imported.

        ``from x import f`` copies the function object into the importing
        module, so every loaded ``repro`` module binding the same object
        is rebound to the traced wrapper.  False if the function is gone.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return False
        traced = self.wrap(original, name, measure)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
        return True

    def dump(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "spans": self.spans}, handle)


def load_spans(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload.get("meta", {}), payload.get("spans", [])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, a), min(end, b))
            for a, b in children.get(span["id"], ())
            if min(end, b) > max(start, a)
        ]
        result[span["id"]] = (end - start) - _covered(clipped)
    return result


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
