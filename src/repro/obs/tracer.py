"""Hierarchical span tracer with a zero-cost disabled mode.

Two tracer flavours share one interface:

* :class:`Tracer` — records :class:`~repro.obs.spans.Span` trees.  Open
  spans live on a per-thread stack (``threading.local``) so concurrent
  threads build independent trees; finished root spans are appended to
  a lock-protected list.
* :class:`NoopTracer` — the process-wide default.  Its ``span()``
  returns one shared inert context manager, so instrumented code costs
  a dict-free attribute lookup and nothing else when tracing is off.

Instrumented library code reads the ambient tracer via
:func:`get_tracer` at call time.  Drivers that must always produce
timings (``run_flow``, ``CrpFramework.run_iteration``) wrap themselves
in :func:`ensure_tracer`, which reuses a recording ambient tracer or
installs a fresh private one for the scope.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.spans import Span


class _SpanHandle:
    """Context manager for one open span on the calling thread."""

    __slots__ = ("_tracer", "_span", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        stack.append(self._span)
        self._span.start_s = time.perf_counter() - self._tracer.epoch
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.wall_s = time.perf_counter() - self._wall0
        span.cpu_s = time.thread_time() - self._cpu0
        tracer = self._tracer
        stack = tracer._stack()
        # The span may not be stack top if user code misnests handles;
        # recover by popping through it rather than corrupting the tree.
        while stack and stack.pop() is not span:
            pass
        if stack:
            stack[-1].children.append(span)
        else:
            with tracer._lock:
                tracer.roots.append(span)
        return False


class Tracer:
    """Records nested spans; safe for concurrent use across threads."""

    recording = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

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
    """Discards everything; the process-wide default."""

    recording = False

    def __init__(self) -> None:  # no epoch/lock/local state needed
        self.roots = []

    def span(self, name: str, **meta: object) -> _NoopHandle:  # type: ignore[override]
        return _NOOP_HANDLE


NOOP_TRACER = NoopTracer()
_active_tracer: Tracer = NOOP_TRACER
_install_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The ambient tracer (a shared :data:`NOOP_TRACER` by default)."""
    return _active_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (or the no-op default) globally; returns prior."""
    global _active_tracer
    with _install_lock:
        previous = _active_tracer
        _active_tracer = tracer if tracer is not None else NOOP_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the scope of the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def ensure_tracer() -> Iterator[Tracer]:
    """Yield a *recording* tracer: the ambient one, or a fresh private one.

    Drivers whose results must always carry timings (``FlowResult.runtime``,
    ``IterationStats.runtime``) use this so they record even when global
    tracing is off, while still attaching to an enclosing observation
    when one is active.
    """
    tracer = get_tracer()
    if tracer.recording:
        yield tracer
        return
    with use_tracer(Tracer()) as tracer:
        yield tracer
