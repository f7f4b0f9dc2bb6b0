"""Wall-clock budgets for flows and stages.

A :class:`Deadline` is an absolute expiry time.  Scopes nest on a
per-thread stack (``deadline_scope``), and cooperative code calls
:func:`check_deadline` at its loop checkpoints — the maze router every
few hundred expansions, the global router once per net.
``check_deadline`` tests *every* open scope, so a tight flow-level
budget fires even inside a stage whose own budget still has slack.

Expiry raises :class:`DeadlineExceeded` and counts
``guard.deadline_hits`` (plus ``guard.deadline.<scope-name>``), so
profiles show which budget fired and where.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import get_metrics


class DeadlineExceeded(RuntimeError):
    """A wall-clock budget ran out at a named checkpoint."""

    def __init__(self, site: str, name: str, budget_s: float) -> None:
        super().__init__(
            f"deadline {name!r} ({budget_s:.3f}s budget) expired at {site}"
        )
        self.site = site
        self.name = name
        self.budget_s = budget_s


class Deadline:
    """An absolute expiry ``budget_s`` seconds after construction."""

    __slots__ = ("name", "budget_s", "_expires")

    def __init__(self, budget_s: float, name: str = "budget") -> None:
        self.name = name
        self.budget_s = float(budget_s)
        self._expires = time.monotonic() + self.budget_s

    @property
    def remaining_s(self) -> float:
        return self._expires - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining_s <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline({self.name!r}, remaining={self.remaining_s:.3f}s)"


_local = threading.local()


def _stack() -> list[Deadline]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_deadline() -> Deadline | None:
    """The innermost open deadline scope on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def deadline_scope(
    budget_s: float | None, name: str = "budget"
) -> Iterator[Deadline | None]:
    """Open a deadline for the ``with`` block; ``None`` budget is a no-op."""
    if budget_s is None:
        yield None
        return
    deadline = Deadline(budget_s, name=name)
    stack = _stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def check_deadline(site: str) -> None:
    """Raise :class:`DeadlineExceeded` if any open scope has expired."""
    for deadline in _stack():
        if deadline.expired:
            metrics = get_metrics()
            metrics.count("guard.deadline_hits")
            metrics.count(f"guard.deadline.{deadline.name}")
            raise DeadlineExceeded(site, deadline.name, deadline.budget_s)


class DeadlineTicker:
    """Strided :func:`check_deadline` for per-iteration hot loops.

    ``time.monotonic()`` on every node expansion is measurable overhead
    in the maze/A* inner loops; a ticker polls the clock only every
    ``stride`` ticks.  The *first* tick always checks, so a zero-budget
    scope still fails fast before any work is done.
    """

    __slots__ = ("site", "stride", "_left")

    def __init__(self, site: str, stride: int = 64) -> None:
        self.site = site
        self.stride = stride
        self._left = 1

    def tick(self) -> None:
        """Count one loop iteration; every ``stride``-th polls the clock."""
        self._left -= 1
        if self._left <= 0:
            self._left = self.stride
            check_deadline(self.site)
