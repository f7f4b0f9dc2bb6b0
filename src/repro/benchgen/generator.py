"""The synthetic design generator.

Produces fully legal, routable, row-based designs whose statistics are
controlled by a :class:`DesignSpec`: cell/net counts, placement
utilization, netlist locality (the knob that creates congestion), and
optional fixed macro blockages that carve routing hot-spots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.geom import Orientation, Point, Rect
from repro.db import Blockage, Cell, Design, IOPin, Net, NetPin, Row
from repro.db.design import GCellGridSpec
from repro.tech import PinDirection, Technology
from repro.benchgen.techlib import build_tech


@dataclass(slots=True)
class DesignSpec:
    """Parameters of one synthetic benchmark."""

    name: str
    num_cells: int
    num_nets: int
    node: str = "45nm"
    utilization: float = 0.85
    #: fraction of net sinks drawn from the driver's neighbourhood
    locality: float = 0.8
    #: neighbourhood radius in row heights
    locality_radius_rows: int = 4
    num_blockages: int = 0
    num_iopins: int = 16
    gcells_per_axis: int = 24
    seed: int = 0
    #: net degree distribution as (degree, weight) pairs
    degree_weights: list[tuple[int, float]] = field(
        default_factory=lambda: [(2, 0.55), (3, 0.25), (4, 0.12), (5, 0.05), (8, 0.03)]
    )

    def rng(self) -> random.Random:
        """The spec's seeded generator stream.

        This is the *only* RNG construction point in the generator:
        every helper takes the stream as an explicit parameter, no path
        touches the module-level ``random`` functions, and each
        placement attempt restarts the stream so retries are
        self-contained.  A design is therefore a pure function of its
        spec — identical bytes in any process (the checkpoint resume
        and the benchmark's fresh interpreters both rebuild it).
        """
        return random.Random(self.seed)


def generate_design(spec: DesignSpec, tech: Technology | None = None) -> Design:
    """Generate a legal placed design from ``spec``.

    The result is deterministic in ``spec.seed`` (see
    :meth:`DesignSpec.rng`).  Blockage area is random, so the die is
    grown and placement retried if the first attempt cannot fit every
    cell.
    """
    last_error: Exception | None = None
    for attempt in range(6):
        try:
            return _generate_once(
                spec, tech, grow=1.0 + 0.1 * attempt, rng=spec.rng()
            )
        except RuntimeError as error:
            last_error = error
    raise RuntimeError(f"{spec.name}: generation failed: {last_error}")


def _generate_once(
    spec: DesignSpec,
    tech: Technology | None,
    grow: float,
    rng: random.Random,
) -> Design:
    if tech is None:
        tech = build_tech(spec.node)
    site = tech.default_site()

    macros = list(tech.macros.values())
    weights = [max(1.0, 8.0 - m.width / site.width) for m in macros]
    chosen = rng.choices(macros, weights=weights, k=spec.num_cells)
    total_width_sites = sum(m.width // site.width for m in chosen)

    # Near-square die: rows x sites_per_row sized for the target utilization.
    sites_needed = grow * total_width_sites / max(0.05, spec.utilization)
    # Reserve room for the randomly sized blockages up front.
    sites_needed *= 1.0 + 0.18 * spec.num_blockages
    aspect = site.height / site.width  # sites per row ~ rows * aspect
    num_rows = max(2, int(round(math.sqrt(sites_needed / aspect))))
    sites_per_row = max(8, int(math.ceil(sites_needed / num_rows)))

    die = Rect(0, 0, sites_per_row * site.width, num_rows * site.height)
    design = Design(spec.name, tech, die)
    for r in range(num_rows):
        design.add_row(
            Row(
                name=f"ROW_{r}",
                site=site,
                origin_x=0,
                origin_y=r * site.height,
                num_sites=sites_per_row,
                orient=Orientation.for_row(r),
            )
        )
    _make_gcell_grid(design, spec)
    blocked_rects = _add_blockages(design, spec, rng)
    _place_cells(design, chosen, blocked_rects, rng)
    _add_iopins(design, spec, rng)
    _build_netlist(design, spec, rng)
    return design


def _make_gcell_grid(design: Design, spec: DesignSpec) -> None:
    die = design.die
    step_x = max(1, die.width // spec.gcells_per_axis)
    step_y = max(1, die.height // spec.gcells_per_axis)
    design.gcell_grid = GCellGridSpec(
        origin_x=die.lx,
        origin_y=die.ly,
        step_x=step_x,
        step_y=step_y,
        nx=max(1, -(-die.width // step_x)),
        ny=max(1, -(-die.height // step_y)),
    )


def _add_blockages(
    design: Design, spec: DesignSpec, rng: random.Random
) -> list[Rect]:
    """Fixed macro-like blockages (placement + lower-metal routing)."""
    rects: list[Rect] = []
    die = design.die
    site = design.tech.default_site()
    for b in range(spec.num_blockages):
        w = rng.randint(die.width // 10, die.width // 5)
        h_rows = rng.randint(2, max(2, len(design.rows) // 5))
        h = h_rows * site.height
        lx = rng.randint(0, max(0, die.width - w))
        lx -= lx % site.width
        row = rng.randint(0, max(0, len(design.rows) - h_rows))
        ly = row * site.height
        rect = Rect(lx, ly, min(lx + w, die.ux), min(ly + h, die.uy))
        rects.append(rect)
        design.add_blockage(Blockage(-1, rect))
        for layer in range(min(4, design.tech.num_layers)):
            design.add_blockage(Blockage(layer, rect))
    return rects


def _place_cells(
    design: Design,
    chosen_macros: list,
    blocked_rects: list[Rect],
    rng: random.Random,
) -> None:
    """Row-fill placement with randomly distributed free sites."""
    site = design.tech.default_site()
    rows = design.rows
    row_free: list[list[tuple[int, int]]] = []
    for row in rows:
        spans = [(0, row.num_sites)]
        for rect in blocked_rects:
            overlap = rect.intersection(row.bbox())
            if overlap is None or overlap.width == 0 or overlap.height == 0:
                continue
            s0 = max(0, overlap.lx // site.width)
            s1 = min(row.num_sites, -(-overlap.ux // site.width))
            spans = _cut_spans(spans, s0, s1)
        row_free.append(spans)

    total_free = sum(e - s for spans in row_free for s, e in spans)
    need = sum(m.width // site.width for m in chosen_macros)
    slack = max(0, total_free - need)

    order = list(chosen_macros)
    rng.shuffle(order)
    index = 0
    cursor: list[tuple[int, int]] = []  # (row, span index) walk state
    flat: list[tuple[int, int, int]] = []  # (row, span start, span end)
    for r, spans in enumerate(row_free):
        for s, e in spans:
            flat.append((r, s, e))
    rng.shuffle(flat)

    placed = 0
    for r, start, end in flat:
        position = start
        row = rows[r]
        while index < len(order) and position < end:
            macro = order[index]
            width_sites = macro.width // site.width
            if position + width_sites > end:
                break
            # Insert random gaps so free space is spread, not banked at ends.
            if slack > 0 and rng.random() < 0.3:
                gap = rng.randint(1, max(1, min(3, slack)))
                gap = min(gap, end - position - width_sites)
                if gap > 0:
                    position += gap
                    slack -= gap
            if position + width_sites > end:
                break
            design.add_cell(
                Cell(
                    name=f"c{placed}",
                    macro=macro,
                    x=row.site_x(position),
                    y=row.origin_y,
                    orient=row.orient,
                )
            )
            placed += 1
            index += 1
            position += width_sites
        if index >= len(order):
            break
    if index < len(order):
        raise RuntimeError(
            f"{design.name}: could not place all cells "
            f"({index}/{len(order)} placed); lower utilization"
        )


def _cut_spans(
    spans: list[tuple[int, int]], s0: int, s1: int
) -> list[tuple[int, int]]:
    result: list[tuple[int, int]] = []
    for s, e in spans:
        if s1 <= s or s0 >= e:
            result.append((s, e))
            continue
        if s < s0:
            result.append((s, s0))
        if s1 < e:
            result.append((s1, e))
    return result


def _add_iopins(design: Design, spec: DesignSpec, rng: random.Random) -> None:
    die = design.die
    top_layer = design.tech.num_layers - 1
    pad = 50
    for i in range(spec.num_iopins):
        side = i % 4
        if side == 0:
            point = Point(rng.randint(die.lx, die.ux), die.ly)
        elif side == 1:
            point = Point(rng.randint(die.lx, die.ux), die.uy)
        elif side == 2:
            point = Point(die.lx, rng.randint(die.ly, die.uy))
        else:
            point = Point(die.ux, rng.randint(die.ly, die.uy))
        design.add_iopin(
            IOPin(
                name=f"io{i}",
                point=point,
                layer=rng.randint(max(0, top_layer - 2), top_layer),
                rect=Rect(point.x - pad, point.y - pad, point.x + pad, point.y + pad),
                direction=PinDirection.INPUT if i % 2 else PinDirection.OUTPUT,
            )
        )


def _build_netlist(design: Design, spec: DesignSpec, rng: random.Random) -> None:
    """Clustered netlist: drivers connect mostly to nearby sinks.

    Each cell's pins are single-use, as in a real netlist; a net is a
    driver output pin plus input pins of the sinks.  ``spec.locality``
    controls the local/global mix, which in turn controls congestion.
    """
    cells = list(design.cells.values())
    free_outputs: dict[str, list[str]] = {}
    free_inputs: dict[str, list[str]] = {}
    for cell in cells:
        outs = [
            p.name
            for p in cell.macro.pins.values()
            if p.direction is PinDirection.OUTPUT
        ]
        ins = [
            p.name
            for p in cell.macro.pins.values()
            if p.direction is PinDirection.INPUT
        ]
        rng.shuffle(outs)
        rng.shuffle(ins)
        free_outputs[cell.name] = outs
        free_inputs[cell.name] = ins

    radius = spec.locality_radius_rows * design.tech.default_site().height
    degrees = [d for d, _ in spec.degree_weights]
    weights = [w for _, w in spec.degree_weights]
    io_names = list(design.iopins)
    rng.shuffle(io_names)

    driver_pool = [c.name for c in cells]
    rng.shuffle(driver_pool)
    made = 0
    attempts = 0
    max_attempts = spec.num_nets * 30
    while made < spec.num_nets and attempts < max_attempts:
        attempts += 1
        if not driver_pool:
            break
        driver = driver_pool[made % len(driver_pool)]
        if not free_outputs[driver]:
            driver_pool.remove(driver)
            continue
        degree = rng.choices(degrees, weights=weights)[0]
        sinks = _pick_sinks(
            design, driver, degree - 1, radius, spec.locality, free_inputs, rng
        )
        if not sinks:
            continue
        net = Net(f"net{made}")
        out_pin = free_outputs[driver].pop()
        net.add_pin(NetPin(driver, out_pin))
        for sink in sinks:
            net.add_pin(NetPin(sink, free_inputs[sink].pop()))
        # A small share of nets also reach an I/O pin (chip ports).
        if io_names and rng.random() < min(0.2, 4.0 * len(io_names) / spec.num_nets):
            net.add_pin(NetPin(None, io_names.pop()))
        design.add_net(net)
        made += 1


def _pick_sinks(
    design: Design,
    driver: str,
    count: int,
    radius: int,
    locality: float,
    free_inputs: dict[str, list[str]],
    rng: random.Random,
) -> list[str]:
    center = design.cells[driver].center
    window = Rect(
        center.x - radius, center.y - radius, center.x + radius, center.y + radius
    )
    local = [
        name
        for name in design.spatial.query(window, strict=False)
        if name != driver and free_inputs[name]
    ]
    everyone = [
        name for name in design.cells if name != driver and free_inputs[name]
    ]
    sinks: list[str] = []
    for _ in range(count):
        pool = local if (local and rng.random() < locality) else everyone
        if not pool:
            break
        pick = rng.choice(pool)
        if pick in sinks:
            continue
        sinks.append(pick)
    return sinks
