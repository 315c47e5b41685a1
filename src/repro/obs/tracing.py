"""Lightweight span tracing.

``with trace("hash_join", rows=n): ...`` opens a span; spans nest via a
per-thread stack, so a trace of one query execution comes back as a tree.
Tracing is **off by default** and the disabled path is a single attribute
check returning a shared no-op context manager — cheap enough to leave
``trace()`` calls in hot operators permanently.

Span stacks are thread-local: a scan's pooled span tasks open
spans from worker-pool threads, and each worker's spans nest among
themselves and land in :attr:`Tracer.finished` as their own roots
(appending is lock-protected) instead of corrupting another thread's
stack.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One finished (or in-flight) traced region."""

    name: str
    attrs: dict[str, Any]
    start_s: float
    end_s: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Wall time between enter and exit."""
        return self.end_s - self.start_s

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering of the subtree."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "children": [c.as_dict() for c in self.children],
        }


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _ActiveSpan:
    """Context manager that records one span on the owning tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        self._span.start_s = time.perf_counter()
        return self._span

    def __exit__(self, *exc: Any) -> None:
        span = self._span
        span.end_s = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack
        # tolerate a tracer disabled mid-span: only pop what we pushed
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with tracer._finished_lock:
                tracer.finished.append(span)


class Tracer:
    """Collects span trees while enabled.

    Attributes:
        enabled: gate checked by :meth:`span`; flip via
            :meth:`enable`/:meth:`disable`.
        finished: completed *root* spans, oldest first (across threads,
            in completion order).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.finished: list[Span] = []
        self._local = threading.local()
        self._finished_lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any):
        """Open a span (or a no-op when disabled); use as a context manager."""
        if not self.enabled:
            return _NOOP
        return _ActiveSpan(self, Span(name=name, attrs=attrs, start_s=0.0))

    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording spans (already-collected spans are kept)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop collected spans and the calling thread's dangling stack."""
        with self._finished_lock:
            self.finished.clear()
        self._stack.clear()

    def open_depth(self) -> int:
        """Number of spans currently open on the calling thread."""
        return len(self._stack)

    def unwind(self, to_depth: int = 0) -> int:
        """Close spans the calling thread abandoned; returns how many.

        An interrupt (e.g. Ctrl-C mid-query) can abandon open spans on
        the thread's stack; recording the depth before risky work and
        unwinding back to it afterwards keeps the tracer consistent.
        Each abandoned span is closed at the current wall time, so the
        partial trace of the interrupted work is preserved.
        """
        stack = self._stack
        closed = 0
        now = time.perf_counter()
        while len(stack) > to_depth:
            span = stack.pop()
            span.end_s = now
            if stack:
                stack[-1].children.append(span)
            else:
                with self._finished_lock:
                    self.finished.append(span)
            closed += 1
        return closed

    def all_spans(self) -> list[Span]:
        """Every finished span, flattened depth-first across roots."""
        return [span for root in self.finished for span in root.walk()]


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def trace(name: str, **attrs: Any):
    """Open a span on the default tracer (no-op while tracing is disabled)."""
    if not _tracer.enabled:
        return _NOOP
    return _ActiveSpan(_tracer, Span(name=name, attrs=attrs, start_s=0.0))


def enable_tracing() -> None:
    """Turn the default tracer on."""
    _tracer.enable()


def disable_tracing() -> None:
    """Turn the default tracer off."""
    _tracer.disable()
