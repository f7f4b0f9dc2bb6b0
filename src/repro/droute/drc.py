"""Design-rule checking over the routed lattice.

Three rule classes matter on a spacing-clean track lattice:

* **short** — a lattice node claimed by two different nets (or a net
  crossing another net's pin/obstruction),
* **min-area** — a net's connected metal patch on one layer too small
  to satisfy the layer's minimum-area rule, unless a pin pad supplies
  the area (found as the router patches each net; see
  ``DrouteIndex.commit``),
* **open** — a terminal the router could not reach at all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from repro.droute.lattice import LNode


class DrcKind(str, Enum):
    """The violation classes reported by the checker."""

    SHORT = "short"
    MIN_AREA = "min_area"
    OPEN = "open"


@dataclass(frozen=True, slots=True)
class DrcViolation:
    """One design-rule violation."""

    kind: DrcKind
    layer: int
    net_a: str
    net_b: str = ""
    node: LNode | None = None


def check_shorts(
    conflicts: dict[LNode, tuple[str, str]]
) -> list[DrcViolation]:
    """Cluster conflicting nodes into one short per contiguous region.

    ``conflicts`` maps a lattice node to the (aggressor, victim) net
    pair.  Adjacent conflict nodes of the same pair on the same layer
    merge into a single violation, matching how evaluators count short
    polygons rather than points.
    """
    by_pair: dict[tuple[int, str, str], set[tuple[int, int]]] = defaultdict(set)
    for (layer, ix, iy), (net_a, net_b) in conflicts.items():
        key = (layer, *sorted((net_a, net_b)))
        by_pair[key].add((ix, iy))

    violations: list[DrcViolation] = []
    for (layer, net_a, net_b), nodes in sorted(by_pair.items()):
        remaining = set(nodes)
        while remaining:
            seed = remaining.pop()
            stack = [seed]
            while stack:
                ix, iy = stack.pop()
                for nxt in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
                    if nxt in remaining:
                        remaining.remove(nxt)
                        stack.append(nxt)
            violations.append(
                DrcViolation(
                    kind=DrcKind.SHORT,
                    layer=layer,
                    net_a=net_a,
                    net_b=net_b,
                    node=(layer, *seed),
                )
            )
    return violations
