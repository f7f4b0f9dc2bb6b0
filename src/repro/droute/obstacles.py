"""Obstacle and pin-ownership maps for detailed routing.

Every lattice node covered by a pin shape is *owned* by the net attached
to that pin (free for it, an obstacle for everyone else); nodes covered
by macro obstructions or routing blockages are blocked for all nets.
"""

from __future__ import annotations

from repro.db import Design
from repro.droute.lattice import LNode, TrackLattice

#: owner sentinel for hard blockages
BLOCKED = "\x00BLOCKED"


def build_obstacle_map(
    design: Design, lattice: TrackLattice
) -> tuple[dict[LNode, str], dict[str, list[LNode]]]:
    """Map lattice nodes to their owner (a net name or ``BLOCKED``).

    Returns ``(owner, reservations)``: ``reservations[net]`` lists the
    escape-via landings (the node directly above each pin) reserved for
    that net.  They stop other nets from walling off pin access, and the
    router releases the unused ones as soon as the owning net is routed
    so dense designs do not stay fragmented all the way through.
    """
    # Build-time map, scattered once into DrouteIndex.owner; never
    # read inside the search loop.
    owner: dict[LNode, str] = {}
    reservations: dict[str, list[LNode]] = {}

    for blockage in design.routing_blockages():
        for node in lattice.nodes_in_rect(blockage.layer, blockage.rect):
            owner[node] = BLOCKED

    for cell in design.cells.values():
        for shape in cell.obstruction_shapes():
            for node in lattice.nodes_in_rect(shape.layer, shape.rect):
                owner[node] = BLOCKED

    pin_net: dict[tuple[str | None, str], str] = {}
    for net in design.nets.values():
        for pin in net.pins:
            pin_net[(pin.cell, pin.pin)] = net.name

    num_layers = design.tech.num_layers
    for net in design.nets.values():
        for pin in net.pins:
            if pin.cell is None:
                io = design.iopins[pin.pin]
                shapes = [(io.layer, io.rect)]
            else:
                cell = design.cells[pin.cell]
                shapes = [
                    (s.layer, s.rect) for s in cell.pin_shapes(pin.pin)
                ]
            for layer, rect in shapes:
                for node in lattice.nodes_in_rect(layer, rect):
                    owner[node] = net.name
                    # Reserve the escape via stack (two layers) directly
                    # above the pin so other nets cannot wall off its
                    # only access; unused reservations are released once
                    # the owning net is routed.
                    for up in (1, 2):
                        if layer + up >= num_layers:
                            break
                        above = (layer + up, node[1], node[2])
                        if above not in owner:
                            owner[above] = net.name
                            reservations.setdefault(net.name, []).append(above)

    # Unconnected cell pins still block their nodes for every net.
    for cell in design.cells.values():
        for pin_name in cell.macro.pins:
            if (cell.name, pin_name) in pin_net:
                continue
            for shape in cell.pin_shapes(pin_name):
                for node in lattice.nodes_in_rect(shape.layer, shape.rect):
                    owner.setdefault(node, BLOCKED)
    return owner, reservations
