"""ISPD-2018 route-guide file output.

The contest's ``.guide`` format lists, per net, axis-aligned rectangles
on named metal layers that the detailed router must stay within::

    net1234
    (
    0 0 3000 3000 Metal1
    0 0 3000 6000 Metal2
    )
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tech import Technology

if TYPE_CHECKING:
    from repro.groute import GuideRect


def write_guides(guides: dict[str, list[GuideRect]], tech: Technology) -> str:
    """Serialize per-net guides in the contest format."""
    out: list[str] = []
    for net_name, rects in guides.items():
        out.append(net_name)
        out.append("(")
        for g in rects:
            r = g.rect
            out.append(f"{r.lx} {r.ly} {r.ux} {r.uy} {tech.layers[g.layer].name}")
        out.append(")")
    return "\n".join(out) + "\n"
