"""The batched ECC segment pricer and the pin-anchor memo it rides on.

``price_segments`` must return, for every segment key and whatever else
shares the batch, the float the uncached estimator's strict-``<`` scan
of ``PatternRouter3D.route_cost`` over ``pattern_paths_2d`` returns —
equal, not approximately equal.  ``Cell.pin_position`` / ``pin_layer``
must equal the ``placed_shapes`` derivation they replaced.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import fresh_small

from repro.core.candidates import generate_candidates
from repro.core.config import CrpConfig
from repro.core.crp import CrpFramework
from repro.core.estimate import estimate_candidate_cost
from repro.core.fastecc import EccCache, price_segments
from repro.core.labeling import label_critical_cells
from repro.db import Cell, Design, Net, NetPin
from repro.geom import Orientation, Point, Rect
from repro.grid import CostField, CostModel, CostParams, RoutingGraph
from repro.groute import GlobalRouter
from repro.groute.pattern3d import PatternRouter3D
from repro.groute.patterns import pattern_paths_2d
from repro.obs import observe
from repro.tech import Macro, MacroPin, PinDirection, PinShape

# ------------------------------------------------------- batch pricer parity


@pytest.fixture(scope="module")
def graph() -> RoutingGraph:
    design = fresh_small(seed=5)
    return GlobalRouter(design).graph


def randomize_usage(graph: RoutingGraph, seed: int) -> None:
    """Overwrite wire and via usage with seeded noise around capacity."""
    rng = np.random.RandomState(seed)
    for usage, capacity in zip(graph.wire_usage, graph.wire_capacity):
        usage[:] = rng.randint(0, 3, size=usage.shape) * capacity * rng.rand()
    for usage in graph.via_usage:
        usage[:] = rng.randint(0, 4, size=usage.shape)


def scan(p3d: PatternRouter3D, key: tuple) -> float | None:
    """The uncached estimator's pricing of one segment."""
    ax, ay, bx, by, src_layer, dst_layer = key
    best = None
    for path in pattern_paths_2d((ax, ay), (bx, by)):
        cost = p3d.route_cost(path, src_layer, dst_layer)
        if cost is None:
            continue
        if best is None or cost < best:
            best = cost
    return best


@st.composite
def segment_batches(draw):
    """Keys on the 8x8x9 graph: same-GCell, straight, L and Z, some repeated."""
    coord = st.integers(0, 7)
    layer = st.integers(0, 8)
    keys = draw(
        st.lists(
            st.tuples(coord, coord, coord, coord, layer, st.none() | layer),
            min_size=1,
            max_size=24,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        ax, ay, _, _, src_layer, dst_layer = draw(st.sampled_from(keys))
        keys.append(
            draw(
                st.sampled_from(
                    [
                        (ax, ay, ax, ay, src_layer, dst_layer),  # a == b
                        (ax, ay, 7 - ax, ay, src_layer, dst_layer),  # straight
                        draw(st.sampled_from(keys)),  # repeated key
                    ]
                )
            )
        )
    return keys


@settings(max_examples=60, deadline=None)
@given(
    keys=segment_batches(),
    usage_seed=st.integers(0, 2**16),
    top_only=st.booleans(),
    order_seed=st.integers(0, 2**16),
)
def test_batch_pricer_equals_scalar_scan(graph, keys, usage_seed, top_only, order_seed):
    randomize_usage(graph, usage_seed)
    params = CostParams()
    field = CostField(graph, params)
    # min_layer = the top layer leaves the other run direction without
    # a layer: only straight runs along it are routable.
    min_layer = graph.num_layers - 1 if top_only else graph.min_wire_layer
    p3d = PatternRouter3D(graph, CostModel(graph, params), field, min_layer=min_layer)

    expected = [scan(p3d, key) for key in keys]
    costs, paths = price_segments(p3d, keys)
    assert costs == expected
    assert paths == sum(
        len(pattern_paths_2d(key[:2], key[2:4])) for key in keys
    )
    if top_only:
        assert any(cost is None for cost in costs) or all(
            key[0] == key[2] or key[1] == key[3] for key in keys
        )

    # independent of batch order and composition
    shuffled = list(range(len(keys)))
    random.Random(order_seed).shuffle(shuffled)
    reordered, _ = price_segments(p3d, [keys[i] for i in shuffled])
    assert reordered == [expected[i] for i in shuffled]
    half = shuffled[: max(1, len(shuffled) // 2)]
    subset, _ = price_segments(p3d, [keys[i] for i in half])
    assert subset == [expected[i] for i in half]
    for key, cost in zip(keys[:4], expected):
        assert price_segments(p3d, [key])[0] == [cost]


def test_prefetch_prices_once_and_the_sum_only_reads():
    design = fresh_small(seed=42)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    config = CrpConfig()
    critical = label_critical_cells(design, router, config, random.Random(42))
    flat = [
        candidate
        for cell_candidates in generate_candidates(design, critical, config).values()
        for candidate in cell_candidates
    ]
    cache = EccCache()
    cache.prefetch(design, router, flat)
    assert cache.batches == 1 and cache.batch_paths > 0
    misses = cache.misses
    for candidate in flat:
        assert estimate_candidate_cost(
            design, router, candidate, cache=cache
        ) == estimate_candidate_cost(design, router, candidate)
    # the sum pass planned nothing, priced nothing
    assert (cache.batches, cache.misses) == (1, misses)


def test_traced_iteration_publishes_batch_counters():
    design = fresh_small(seed=9)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=2)
    with observe() as observation:
        CrpFramework(design, router, CrpConfig()).run(iterations=2)
    assert observation.metrics.counter("crp.ecc_batches") == 2
    assert observation.metrics.counter("crp.ecc_batch_paths") > 0


# ------------------------------------------------------------ pin anchors


def placed_reference(cell: Cell, pin_name: str) -> tuple[Point, int]:
    """Pin centre and layer re-derived from the placed shapes."""
    shapes = cell.macro.pin(pin_name).placed_shapes(
        cell.x, cell.y, cell.orient, cell.macro.width, cell.macro.height
    )
    return (
        Rect.bounding([s.rect for s in shapes]).center,
        min(s.layer for s in shapes),
    )


def one_cell_design(tech45, cell: Cell) -> Design:
    design = Design("pins", tech45, Rect(-100000, -100000, 100000, 100000))
    design.add_cell(cell)
    design.add_net(Net("n", [NetPin(cell.name, "A")]))
    return design


@pytest.mark.parametrize("orient", list(Orientation))
@pytest.mark.parametrize("origin", [(0, 0), (1235, 777), (-4321, -15), (-7, 8)])
def test_pin_position_matches_placed_shapes(tech45, orient, origin):
    macro = Macro("M", width=1141, height=2803)
    # odd coordinate sums on both axes; two shapes on different layers
    macro.add_pin(
        MacroPin(
            "A",
            PinDirection.INPUT,
            [PinShape(2, Rect(10, 21, 95, 400)), PinShape(1, Rect(60, 5, 305, 38))],
        )
    )
    macro.add_pin(MacroPin("B", PinDirection.OUTPUT, [PinShape(0, Rect(3, 3, 4, 8))]))
    cell = Cell("c", macro, origin[0], origin[1], orient)
    design = one_cell_design(tech45, cell)
    for name in ("A", "B"):
        point, layer = placed_reference(cell, name)
        assert cell.pin_position(name) == point
        assert design.pin_layer(NetPin("c", name)) == layer
    # a second query (memo hit) and a moved cell agree as well
    assert cell.pin_position("A") == placed_reference(cell, "A")[0]
    cell.x, cell.y = cell.x - 13, cell.y + 29
    assert cell.pin_position("A") == placed_reference(cell, "A")[0]


def test_pin_memo_follows_appended_shapes(tech45):
    macro = Macro("M", width=1000, height=2000)
    pin = MacroPin("A", PinDirection.INPUT, [PinShape(3, Rect(10, 10, 20, 20))])
    macro.add_pin(pin)
    cell = Cell("c", macro, 500, 700, Orientation.FS)
    design = one_cell_design(tech45, cell)
    before = cell.pin_position("A")
    assert (before, design.pin_layer(NetPin("c", "A"))) == placed_reference(cell, "A")
    pin.shapes.append(PinShape(1, Rect(400, 900, 460, 1500)))
    after = cell.pin_position("A")
    assert after != before
    assert (after, design.pin_layer(NetPin("c", "A"))) == placed_reference(cell, "A")
    assert design.pin_layer(NetPin("c", "A")) == 1


def test_shapeless_pin_keeps_its_old_answers(tech45):
    macro = Macro("M", width=1000, height=2000)
    macro.add_pin(MacroPin("A", PinDirection.INPUT))
    cell = Cell("c", macro, 0, 0)
    design = one_cell_design(tech45, cell)
    assert design.pin_layer(NetPin("c", "A")) == 0
    with pytest.raises(ValueError):
        cell.pin_position("A")
