"""The top-level design database."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.geom import Orientation, Point, Rect
from repro.db.cell import Cell
from repro.db.net import IOPin, Net, NetPin
from repro.db.row import Row
from repro.db.spatial import SpatialIndex
from repro.tech import Technology


@dataclass(frozen=True, slots=True)
class Blockage:
    """A placement or routing blockage.

    ``layer`` is a routing-layer index for routing blockages and ``-1``
    for placement blockages (which exclude cell outlines instead of
    wires).
    """

    layer: int
    rect: Rect

    @property
    def is_placement(self) -> bool:
        return self.layer < 0


@dataclass(slots=True)
class GCellGridSpec:
    """DEF GCELLGRID equivalent: uniform gcell tiling of the die."""

    origin_x: int
    origin_y: int
    step_x: int
    step_y: int
    nx: int
    ny: int


class Design:
    """The mutable design database shared by every engine in the flow.

    It owns the placed cells, the netlist, rows, blockages, and the
    cell-move journal the CR&P framework uses for its history terms
    (``hist_c`` / ``hist_m`` in Algorithm 1).
    """

    def __init__(self, name: str, tech: Technology, die: Rect) -> None:
        self.name = name
        self.tech = tech
        self.die = die
        self.rows: list[Row] = []
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}
        self.iopins: dict[str, IOPin] = {}
        self.blockages: list[Blockage] = []
        self.gcell_grid: GCellGridSpec | None = None
        self.spatial = SpatialIndex(die)
        #: cells labeled critical in any earlier CR&P iteration
        self.critical_history: set[str] = set()
        #: cells actually moved in any earlier CR&P iteration
        self.moved_history: set[str] = set()

    # ------------------------------------------------------------------ rows

    def add_row(self, row: Row) -> None:
        row.index = len(self.rows)
        self.rows.append(row)

    def row_at_y(self, y: int) -> Row | None:
        """The row whose origin y equals ``y`` (exact match)."""
        for row in self.rows:
            if row.origin_y == y:
                return row
        return None

    def row_containing(self, y: int) -> Row | None:
        """The row whose vertical span contains ``y``."""
        for row in self.rows:
            if row.origin_y <= y < row.origin_y + row.height:
                return row
        return None

    # ----------------------------------------------------------------- cells

    def add_cell(self, cell: Cell) -> None:
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name}")
        self.cells[cell.name] = cell
        self.spatial.insert(cell.name, cell.bbox())

    def move_cell(
        self, name: str, x: int, y: int, orient: Orientation | None = None
    ) -> None:
        """Move a cell and keep the spatial index consistent."""
        cell = self.cells[name]
        if cell.fixed:
            raise ValueError(f"cell {name} is fixed and cannot move")
        cell.x = x
        cell.y = y
        if orient is not None:
            cell.orient = orient
        self.spatial.move(name, cell.bbox())

    # ------------------------------------------------------------------ nets

    def add_net(self, net: Net) -> None:
        if net.name in self.nets:
            raise ValueError(f"duplicate net {net.name}")
        self.nets[net.name] = net
        for pin in net.pins:
            if pin.cell is not None:
                self.cells[pin.cell].nets.append(net.name)

    def connect(self, net_name: str, cell_name: str | None, pin_name: str) -> None:
        """Attach one terminal to an existing net."""
        net = self.nets[net_name]
        net.add_pin(NetPin(cell_name, pin_name))
        if cell_name is not None:
            self.cells[cell_name].nets.append(net_name)

    def add_iopin(self, pin: IOPin) -> None:
        if pin.name in self.iopins:
            raise ValueError(f"duplicate IO pin {pin.name}")
        self.iopins[pin.name] = pin

    def pin_point(self, pin: NetPin) -> Point:
        """Chip-coordinate location of a net terminal."""
        if pin.cell is None:
            return self.iopins[pin.pin].point
        return self.cells[pin.cell].pin_position(pin.pin)

    def pin_layer(self, pin: NetPin) -> int:
        """Routing-layer index a terminal is accessible on."""
        if pin.cell is None:
            return self.iopins[pin.pin].layer
        return self.cells[pin.cell].macro.pin(pin.pin).min_layer

    def net_bbox(self, net: Net) -> Rect:
        """Bounding box over all terminal locations of ``net``."""
        points = [self.pin_point(p) for p in net.pins]
        return Rect(
            min(p.x for p in points),
            min(p.y for p in points),
            max(p.x for p in points),
            max(p.y for p in points),
        )

    def net_hpwl(self, net: Net) -> int:
        """Half-perimeter wirelength of ``net``."""
        if net.degree < 2:
            return 0
        box = self.net_bbox(net)
        return box.width + box.height

    def routing_order(self, net_names: Iterable[str]) -> list[str]:
        """``net_names`` by ascending HPWL, ties by name: the order both
        routers route and reroute nets in."""
        nets = self.nets
        return sorted(net_names, key=lambda n: (self.net_hpwl(nets[n]), n))

    def total_hpwl(self) -> int:
        """Sum of HPWL over every net."""
        return sum(self.net_hpwl(net) for net in self.nets.values())

    def nets_of_cell(self, cell_name: str) -> list[Net]:
        """Distinct nets connected to a cell, in first-connection order."""
        seen: dict[str, None] = {}
        for net_name in self.cells[cell_name].nets:
            seen.setdefault(net_name)
        return [self.nets[name] for name in seen]

    def connected_cells(self, cell_name: str) -> set[str]:
        """Names of cells sharing at least one net with ``cell_name``."""
        neighbours: set[str] = set()
        for net in self.nets_of_cell(cell_name):
            neighbours.update(net.cells())
        neighbours.discard(cell_name)
        return neighbours

    # ------------------------------------------------------------- blockages

    def add_blockage(self, blockage: Blockage) -> None:
        self.blockages.append(blockage)

    def placement_blockages(self) -> list[Blockage]:
        return [b for b in self.blockages if b.is_placement]

    def routing_blockages(self) -> list[Blockage]:
        return [b for b in self.blockages if not b.is_placement]

    # ------------------------------------------------------------- utilities

    def utilization(self) -> float:
        """Total movable+fixed cell area over total row area."""
        cell_area = sum(c.area for c in self.cells.values())
        row_area = sum(r.bbox().area for r in self.rows)
        if row_area == 0:
            return 0.0
        return cell_area / row_area

    def stats(self) -> dict[str, int | float]:
        """Summary statistics (Table II style)."""
        return {
            "cells": len(self.cells),
            "nets": len(self.nets),
            "iopins": len(self.iopins),
            "rows": len(self.rows),
            "utilization": round(self.utilization(), 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Design({self.name!r}, cells={len(self.cells)}, "
            f"nets={len(self.nets)})"
        )
