"""Span tree primitives for the observability subsystem.

A :class:`Span` is one timed region of the flow — a stage, an iteration,
a solver call — with wall-clock and CPU (thread) time plus arbitrary
metadata.  Spans nest: the tracer links each span under the span that
was open when it started, so a finished root span is a tree mirroring
the call structure (``flow.run`` -> ``flow.GR`` -> ``groute.rrr`` ->
...).

Names follow the ``<layer>.<event>`` convention (``flow.GR``,
``crp.ECC``, ``ilp.solve``) so exports stay greppable across PRs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(slots=True)
class Span:
    """One timed region; ``wall_s``/``cpu_s`` are final once closed."""

    name: str
    meta: dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    children: list["Span"] = field(default_factory=list)
    #: perf_counter offset from the tracer epoch (for timeline exports)
    start_s: float = 0.0

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def child_walls(self) -> dict[str, float]:
        """Direct children's wall time summed per span name."""
        walls: dict[str, float] = {}
        for child in self.children:
            walls[child.name] = walls.get(child.name, 0.0) + child.wall_s
        return walls

    @property
    def self_wall_s(self) -> float:
        """Wall time not covered by direct children (the span's own work)."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))
