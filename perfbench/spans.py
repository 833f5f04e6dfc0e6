"""In-memory spans for the traced run, recorded from outside the program.

The benchmark wraps the public entry points of each layer (see
``worker.py``) while a traced request runs and restores the originals
right after, so untraced requests execute the program untouched.  Every
span carries its name, start and end (``time.perf_counter`` seconds),
the id of the span that caused it, the request id and the thread.
Spans opened on a thread with no open span of its own (pool workers)
are parented to the request's root span.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "thread", "attrs")

    def __init__(self, span_id, name, start, parent, request, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "thread": self.thread,
                **self.attrs}


class SpanRecorder:
    """Collects spans and installs/removes the layer wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests: dict[int, dict] = {}
        self._ids = itertools.count()
        self._request_ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.request: int | None = None
        self._root: int | None = None

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    self.request, threading.get_ident())
        if self._root is None:
            self._root = span.id
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span around each call.

        ``on_result(span, args, result)`` may attach attributes.
        """
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result
        return traced

    # -- requests ------------------------------------------------------

    @contextlib.contextmanager
    def traced(self, **meta):
        """Run the body as one request, with every wrapper installed.

        The request's first span becomes its root; ``meta`` is kept in
        :attr:`requests` under the request id.
        """
        self.request = next(self._request_ids)
        self.requests[self.request] = meta
        self._root = None
        for owner, attr, _, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, own, _ in self._patches:
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self.request = None
            self._root = None

    # -- wrappers ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Register a wrapper for ``owner.attr`` (a class or an instance).

        It is in place only inside :meth:`traced`.
        """
        own = isinstance(owner, type) or attr in vars(owner)
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append(
            (owner, attr, original, own,
             self.wrap(name, original, on_result)))

    # -- analysis ------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        index: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                index.setdefault(span.parent, []).append(span)
        return index


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """Duration minus the part of it that child spans cover."""
    kids = children.get(span.id, ())
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in kids])
