"""Hierarchical span tracer with a zero-cost disabled mode.

Two tracer flavours share one interface:

* :class:`Tracer` — records :class:`~repro.obs.spans.Span` trees.  Open
  spans live on one stack (the program runs on one thread), and
  finished root spans are appended to :attr:`Tracer.roots`.
* :class:`NoopTracer` — the default.  Its ``span()`` returns one shared
  inert context manager, so instrumented code costs a dict-free
  attribute lookup and nothing else when tracing is off.

Instrumented library code reads the ambient tracer through
:func:`repro.obs.get_tracer` at call time; :mod:`repro.obs.session`
installs it.
"""

from __future__ import annotations

import time

from repro.obs.spans import Span


class _SpanHandle:
    """Context manager for one open span."""

    __slots__ = ("_tracer", "_span", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open.append(self._span)
        self._span.start_s = time.perf_counter() - self._tracer.epoch
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.wall_s = time.perf_counter() - self._wall0
        span.cpu_s = time.thread_time() - self._cpu0
        tracer = self._tracer
        stack = tracer._open
        # The span may not be stack top if user code misnests handles;
        # recover by popping through it rather than corrupting the tree.
        while stack and stack.pop() is not span:
            pass
        if stack:
            stack[-1].children.append(span)
        else:
            tracer.roots.append(span)
        return False


class Tracer:
    """Records nested spans."""

    recording = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, **meta: object) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("flow.GR") as sp:``."""
        return _SpanHandle(self, Span(name=name, meta=dict(meta)))


class _NoopHandle:
    """Shared inert span handle — the cost of tracing when it is off."""

    __slots__ = ()
    _span = Span(name="noop")

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_HANDLE = _NoopHandle()


class NoopTracer(Tracer):
    """Discards everything; the default."""

    recording = False

    def __init__(self) -> None:  # no epoch or stack needed
        self.roots = []

    def span(self, name: str, **meta: object) -> _NoopHandle:  # type: ignore[override]
        return _NOOP_HANDLE


NOOP_TRACER = NoopTracer()
