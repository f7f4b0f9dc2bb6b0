"""Unit tests for the detailed router: lattice, access, A*, DRC, driver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import build_tech
from repro.geom import Point, Rect
from repro.db import Blockage, Net, NetPin
from repro.droute import DetailedRouter, DrcKind, TrackLattice
from repro.droute.access import access_nodes
from repro.droute.astar import SearchParams
from repro.droute.indexed import astar_connect_indexed, pocket_closed
from repro.droute.drc import check_min_area, check_shorts
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.groute import GlobalRouter

from helpers import (
    add_cell, add_two_pin_net, build_tiny_design, dr_searches, droute_index,
    fresh_small, lattice_nodes,
)
from oracles.droute import _DictState, astar_connect

_TECH = build_tech("45nm")


# --------------------------------------------------------------- lattice


def test_lattice_coordinate_roundtrip(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 10000, 7000))
    assert lattice.pitch == 200
    for ix in (0, 5, lattice.nx - 1):
        assert lattice.ix_of(lattice.x_of(ix)) == ix
    for iy in (0, 3, lattice.ny - 1):
        assert lattice.iy_of(lattice.y_of(iy)) == iy


def test_lattice_node_at_clamps(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 10000, 7000))
    node = lattice.node_at(0, Point(-500, 10**7))
    assert node == (0, 0, lattice.ny - 1)


def test_lattice_wire_neighbors_direction(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 10000, 7000))
    # Layer 2 (Metal3) horizontal: neighbours differ in ix.
    for n in lattice.wire_neighbors((2, 5, 5)):
        assert n[0] == 2 and n[2] == 5
    # Layer 1 (Metal2) vertical.
    for n in lattice.wire_neighbors((1, 5, 5)):
        assert n[0] == 1 and n[1] == 5
    # Metal1 reserved for pins: no wire moves.
    assert lattice.wire_neighbors((0, 5, 5)) == []


def test_lattice_jog_neighbors_perpendicular(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 10000, 7000))
    for n in lattice.jog_neighbors((2, 5, 5)):
        assert n[1] == 5 and n[2] != 5


def test_lattice_nodes_in_rect(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 10000, 7000))
    nodes = lattice.nodes_in_rect(0, Rect(50, 50, 350, 350))
    # tracks at 100 and 300 in both axes
    assert set(nodes) == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}


def test_lattice_requires_uniform_pitch(tech45):
    import copy

    tech = copy.deepcopy(tech45)
    tech.layers[3].pitch = 123
    with pytest.raises(ValueError):
        TrackLattice(tech, Rect(0, 0, 1000, 1000))


# ------------------------------------------------------------- obstacles


def test_obstacle_map_pin_ownership(tiny_design):
    lattice = TrackLattice(tiny_design.tech, tiny_design.die)
    owner, _ = build_obstacle_map(tiny_design, lattice)
    net = tiny_design.nets["n1"]
    for pin in net.pins:
        for node in access_nodes(tiny_design, lattice, pin):
            assert owner.get(node) == "n1"
            above = (node[0] + 1, node[1], node[2])
            assert owner.get(above) == "n1"  # reserved escape


def test_obstacle_map_blockage(tiny_design):
    tiny_design.add_blockage(Blockage(2, Rect(0, 0, 2000, 2000)))
    lattice = TrackLattice(tiny_design.tech, tiny_design.die)
    owner, _ = build_obstacle_map(tiny_design, lattice)
    assert owner.get((2, 0, 0)) == BLOCKED


def test_unconnected_pins_block(tech45):
    design = build_tiny_design(tech45)
    add_cell(design, "a", "NAND2_X1", 0, 0)  # no nets at all
    lattice = TrackLattice(tech45, design.die)
    owner, _ = build_obstacle_map(design, lattice)
    pin_node = lattice.node_at(0, design.cells["a"].pin_position("A"))
    assert owner.get(pin_node) == BLOCKED


# ----------------------------------------------------------------- astar


def _connect_indexed(
    lattice, sources, targets, net, owner, occupancy, bounds, params, soft,
    guide=None,
):
    """The shipped kernel, over a ``DrouteIndex`` holding the same maps."""
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    return astar_connect_indexed(
        index, sources, targets, index.intern(net), bounds, stamp, params, soft
    )


def _connect_oracle(
    lattice, sources, targets, net, owner, occupancy, bounds, params, soft,
    guide=None,
):
    return astar_connect(
        lattice, sources, targets, net, owner, occupancy, bounds, guide, params, soft
    )


@pytest.fixture(params=["indexed", "oracle"])
def connect(request):
    """A* entry point with dict-map arguments: production kernel and reference.

    ``guide`` is a set of lattice nodes, or ``None`` for an unguided search.
    """
    return {"indexed": _connect_indexed, "oracle": _connect_oracle}[request.param]


def _combinations(lattice):
    """The (soft, guide) combinations a search runs in: hard with and
    without a guide (this one covering the lattice), soft without."""
    return [(False, None), (False, set(lattice_nodes(lattice))), (True, None)]


def test_astar_direct_path(tech45, connect):
    design = build_tiny_design(tech45, num_rows=6, sites_per_row=40)
    lattice = TrackLattice(tech45, design.die)
    params = SearchParams(via_cost=800)
    for soft, guide in _combinations(lattice):
        result = connect(
            lattice,
            sources={(1, 5, 5)},
            targets={(1, 5, 15)},
            net="n",
            owner={},
            occupancy={},
            bounds=(0, 0, lattice.nx - 1, lattice.ny - 1),
            params=params,
            soft=soft,
            guide=guide,
        )
        assert result is not None
        assert result.path[0] == (1, 5, 5)
        assert result.path[-1] == (1, 5, 15)
        assert len(result.path) == 11  # straight vertical run on Metal2
        assert result.conflicts == []


def test_astar_hard_blocked_by_other_net(tech45, connect):
    design = build_tiny_design(tech45, num_rows=6, sites_per_row=40)
    lattice = TrackLattice(tech45, design.die)
    params = SearchParams()
    # Wall of foreign occupancy across every layer at iy=10.
    occupancy = {
        (l, ix, 10): "enemy"
        for l in range(tech45.num_layers)
        for ix in range(lattice.nx)
    }
    kwargs = dict(
        lattice=lattice,
        sources={(1, 5, 5)},
        targets={(1, 5, 15)},
        net="n",
        owner={},
        occupancy=occupancy,
        bounds=(0, 0, lattice.nx - 1, lattice.ny - 1),
        params=params,
    )
    for guide in (None, set(lattice_nodes(lattice))):
        assert connect(soft=False, guide=guide, **kwargs) is None
    soft = connect(soft=True, **kwargs)
    assert soft is not None
    assert soft.conflicts  # it had to cross the wall


def test_astar_blocked_nodes_impassable_even_soft(tech45, connect):
    design = build_tiny_design(tech45, num_rows=6, sites_per_row=40)
    lattice = TrackLattice(tech45, design.die)
    owner = {
        (l, ix, 10): BLOCKED
        for l in range(tech45.num_layers)
        for ix in range(lattice.nx)
    }
    for soft, guide in _combinations(lattice):
        result = connect(
            lattice,
            sources={(1, 5, 5)},
            targets={(1, 5, 15)},
            net="n",
            owner=owner,
            occupancy={},
            bounds=(0, 0, lattice.nx - 1, lattice.ny - 1),
            params=SearchParams(),
            soft=soft,
            guide=guide,
        )
        assert result is None


def test_astar_source_in_targets(tech45, connect):
    lattice = TrackLattice(tech45, Rect(0, 0, 8000, 5600))
    for soft, guide in _combinations(lattice):
        result = connect(
            lattice,
            sources={(1, 2, 2)},
            targets={(1, 2, 2), (1, 9, 9)},
            net="n",
            owner={},
            occupancy={},
            bounds=(0, 0, 10, 10),
            params=SearchParams(),
            soft=soft,
            guide=guide,
        )
        assert result is not None
        assert result.cost == 0.0


def test_astar_off_guide_is_a_wall(tech45, connect):
    design = build_tiny_design(tech45, num_rows=6, sites_per_row=40)
    lattice = TrackLattice(tech45, design.die)
    # The guide is the Metal2 column between the terminals, one node short.
    guide = {(1, 5, iy) for iy in range(5, 16)} - {(1, 5, 10)}
    kwargs = dict(
        lattice=lattice,
        sources={(1, 5, 5)},
        targets={(1, 5, 15)},
        net="n",
        owner={},
        occupancy={},
        bounds=(0, 0, lattice.nx - 1, lattice.ny - 1),
        params=SearchParams(),
    )
    assert connect(soft=False, guide=guide, **kwargs) is None
    found = connect(soft=False, **kwargs)
    assert len(found.path) == 11 and found.cost == 10 * lattice.pitch


def test_kernel_refuses_a_search_off_the_lattice(tech45):
    """The C kernel indexes its buffers unchecked: a terminal or a window
    off the lattice is an ``IndexError`` before the call, not a stray
    write."""
    lattice = TrackLattice(tech45, Rect(0, 0, 2000, 2000))
    index, _ = droute_index(lattice, {}, {})
    whole = (0, 0, lattice.nx - 1, lattice.ny - 1)
    wide = (0, 0, lattice.nx, lattice.ny - 1)
    above = (tech45.num_layers, 1, 1)  # one layer past the top: off the end
    for sources, bounds in (({(1, 1, 1)}, wide), ({above}, whole)):
        with pytest.raises(IndexError):
            astar_connect_indexed(
                index, sources, {(1, 2, 2)}, index.intern("n"), bounds, None,
                SearchParams(), False,
            )
        with pytest.raises(IndexError):
            pocket_closed(
                index, sources, {(1, 2, 2)}, index.intern("n"), bounds, None
            )


def _same_search(lattice, case, soft, guide, max_expansions):
    """Run one problem on both kernels; they must agree on everything."""
    owner, occupancy, bounds, sources, targets = case
    params = SearchParams(max_expansions=max_expansions)
    found = []
    for kernel in (_connect_oracle, _connect_indexed):
        with dr_searches() as stats:
            result = kernel(
                lattice, sources, targets, "n", owner, occupancy, bounds, params,
                soft, guide,
            )
        found.append((
            result and (result.path, result.cost, result.conflicts),
            stats.expansions,
        ))
    assert found[1] == found[0], (soft, guide is not None, max_expansions, case)


def test_astar_seed_outside_the_window_matches_the_oracle(tech45):
    """A seed two tracks outside ``bounds`` walks towards the window by the
    oracle's rule -- the *stepping* node against the far bound -- in every
    (soft, guide) combination a search runs in."""
    lattice = TrackLattice(tech45, Rect(0, 0, 16 * 200, 16 * 200))
    bounds = (4, 4, 11, 11)
    for seed in ((1, 2, 7), (2, 13, 7), (1, 7, 2), (2, 7, 13), (2, 2, 13)):
        case = ({}, {(1, 8, 8): "other"}, bounds, {seed}, {(1, 9, 9)})
        for soft, guide in _combinations(lattice):
            _same_search(lattice, case, soft, guide, 60000)


def _random_search_case(rng, tech, sealed=False):
    """Random maps, window, guide rects and terminals on a small lattice.

    ``sealed`` wraps every target in foreign wires, so that no
    penalty-free step reaches it and the pocket look closes.
    """
    nx, ny = rng.randint(4, 12), rng.randint(4, 12)
    lattice = TrackLattice(tech, Rect(0, 0, nx * 200, ny * 200))
    nodes = lattice_nodes(lattice)
    low = [node for node in nodes if node[0] <= 3]
    density = rng.choice((0.05, 0.2, 0.35))
    owner = {
        node: rng.choice(("n", "enemy", BLOCKED))
        for node in nodes if rng.random() < density
    }
    occupancy = {
        node: rng.choice(("n", "other"))
        for node in nodes if rng.random() < density
    }
    # anywhere on the low layers: inside and outside a random window
    sources = set(rng.sample(low, rng.randint(1, 3)))
    targets = set(rng.sample(low, rng.randint(1, 3)))
    bounds = (0, 0, lattice.nx - 1, lattice.ny - 1)
    if rng.random() < 0.5:
        xs = sorted(rng.sample(range(lattice.nx), 2))
        ys = sorted(rng.sample(range(lattice.ny), 2))
        bounds = (xs[0], ys[0], xs[1], ys[1])
    guide = set()
    for _ in range(rng.randint(1, 4)):
        gx = sorted(rng.sample(range(lattice.nx), 2))
        gy = sorted(rng.sample(range(lattice.ny), 2))
        guide |= {
            (layer, ix, iy)
            for layer in rng.sample(range(4), 3)
            for ix in range(gx[0], gx[1] + 1)
            for iy in range(gy[0], gy[1] + 1)
        }
    if rng.random() < 0.5:  # as the router stamps them: terminals and landings
        guide |= {(l + dl, ix, iy) for l, ix, iy in sources | targets for dl in (0, 1)}
    if sealed:
        on_lattice = set(nodes) - sources - targets
        for l, ix, iy in targets:
            for around in (
                (l, ix + 1, iy), (l, ix - 1, iy), (l, ix, iy + 1),
                (l, ix, iy - 1), (l + 1, ix, iy), (l - 1, ix, iy),
            ):
                if around in on_lattice:
                    occupancy[around] = "other"
    return lattice, (owner, occupancy, bounds, sources, targets), guide


def test_astar_randomized_parity_in_every_combination(tech45):
    """Path, cost, conflicts and expansion count equal the oracle's on random
    maps, windows, guide rects and terminals, under budgets that do and do
    not run out, hard with and without a guide and soft without one."""
    rng = random.Random(20221003)
    for _ in range(120):
        lattice, case, guide = _random_search_case(rng, tech45)
        for soft, use_guide in ((False, None), (False, guide), (True, None)):
            _same_search(
                lattice, case, soft, use_guide, rng.choice((50, 400, 60000))
            )


def _both_states(lattice, case, guide, params):
    """``(state, guide handle)`` of the dict reference and of the flat index,
    holding the same maps."""
    owner, occupancy, _, _, _ = case
    oracle = _DictState(lattice, owner, {}, params)
    oracle.occupancy = occupancy
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    index.params = params
    return (oracle, guide), (index, stamp)


def _same_connect(lattice, case, soft, guide, params):
    """One problem through ``connect`` -- look, toll and search -- of both
    states; they must agree on everything, and the index must be left with
    no search state behind.  True when the look closed."""
    _, _, bounds, sources, targets = case
    found = []
    for state, handle in _both_states(lattice, case, guide, params):
        with dr_searches() as stats:
            result = state.connect(sources, targets, "n", bounds, handle, soft)
        found.append((
            result and (result.path, result.cost, result.conflicts),
            stats.expansions,
        ))
    (ref, ref_expansions), (fast, expansions) = found
    assert fast == ref, (soft, guide is not None, params, case)
    if stats.skipped:  # production's only: the reference ran it, and checked
        assert fast is None and not expansions
    else:
        assert expansions == ref_expansions, (soft, guide is not None, case)
    # found, exhausted or over budget: every slot is back to its default
    assert state.g_score.count(float("inf")) == state.num_nodes
    assert state.came_from.count(-1) == state.num_nodes
    return bool(stats.skipped or stats.tolled)


def test_connect_randomized_parity_with_the_look_and_the_toll(tech45):
    """``DrouteIndex.connect`` against the reference's on random problems, half
    of them with sealed targets: the look answers alike, the toll is the same
    and the tolled search expands the same nodes in the same order."""
    rng = random.Random(20261003)
    soft_looks = soft_closed = 0
    for round_ in range(120):
        lattice, case, guide = _random_search_case(rng, tech45, sealed=round_ % 2)
        for soft, use_guide in ((False, None), (False, guide), (True, None)):
            closed = _same_connect(
                lattice, case, soft, use_guide,
                SearchParams(max_expansions=rng.choice((50, 400, 60000))),
            )
            soft_looks += soft
            soft_closed += soft and closed
    assert soft_closed >= 0.2 * soft_looks, (soft_closed, soft_looks)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sealed=st.booleans(),
    via_cost=st.one_of(st.sampled_from((200, 400, 800)), st.integers(1, 2000)),
    conflict_penalty=st.one_of(
        st.sampled_from((800, 20000)), st.integers(1, 50000)
    ),
    jog_factor=st.sampled_from((1.0, 1.5, 2.5, 3.0)),
    heuristic_weight=st.sampled_from((1.0, 1.15, 1.5)),
    max_expansions=st.sampled_from((1, 50, 400, 60000)),
)
def test_connect_parity_under_drawn_cost_constants(
    seed, sealed, via_cost, conflict_penalty, jog_factor, heuristic_weight,
    max_expansions,
):
    """The kernel against the dict oracle with the cost constants drawn too:
    multiples of the pitch and weights of 1.0 make equal-``f`` ties common,
    so the queue's tie order is exercised, not only its ``f`` order."""
    lattice, case, guide = _random_search_case(
        random.Random(seed), _TECH, sealed=sealed
    )
    params = SearchParams(
        via_cost=via_cost, conflict_penalty=conflict_penalty,
        jog_factor=jog_factor, heuristic_weight=heuristic_weight,
        max_expansions=max_expansions,
    )
    for soft, use_guide in ((False, guide), (False, None), (True, None)):
        _same_connect(lattice, case, soft, use_guide, params)


# ------------------------------------------------------------------- drc


def test_check_shorts_clusters_adjacent_nodes():
    conflicts = {
        (1, 5, 5): ("a", "b"),
        (1, 5, 6): ("a", "b"),  # adjacent: same cluster
        (1, 9, 9): ("a", "b"),  # separate cluster
        (2, 5, 5): ("a", "c"),  # different layer/pair
    }
    violations = check_shorts(conflicts)
    assert len(violations) == 3
    assert all(v.kind is DrcKind.SHORT for v in violations)


def test_check_min_area_exempts_pins(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 8000, 5600))
    lonely = {(1, 3, 3)}
    violations = check_min_area(
        lattice, {"n": lonely}, {"n": set()}
    )
    assert len(violations) == 1
    assert violations[0].kind is DrcKind.MIN_AREA
    # Same patch exempted when a pin supplies the area.
    violations = check_min_area(lattice, {"n": lonely}, {"n": lonely})
    assert violations == []


def test_check_min_area_passes_long_runs(tech45):
    lattice = TrackLattice(tech45, Rect(0, 0, 8000, 5600))
    run = {(1, 3, y) for y in range(3, 8)}
    assert check_min_area(lattice, {"n": run}, {"n": set()}) == []


# ---------------------------------------------------------------- driver


def _route(design):
    """Detailed-route ``design`` along its global router's guides."""
    gr = GlobalRouter(design)
    gr.route_all()
    return DetailedRouter(design).route_all(gr.guides())


def test_detailed_route_two_pin(tech45):
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
    add_cell(design, "a", "INV_X1", 1, 0)
    add_cell(design, "b", "INV_X1", 20, 2)
    add_two_pin_net(design, "n", "a", "b")
    result = _route(design)
    assert result.violations == []
    assert result.vias >= 2  # at least down/up from the pin layer
    assert result.wirelength_dbu > 0
    assert "n" in result.paths


def test_detailed_route_respects_guides():
    design = fresh_small()
    gr = GlobalRouter(design)
    gr.route_all()
    guides = gr.guides()
    router = DetailedRouter(design)
    result = router.route_all(guides)
    # Quality: wirelength at least the sum of net HPWLs * something sane.
    assert result.wirelength_dbu > 0
    assert result.vias > 0
    # Every routed path stays within its guide + margin or is a short DRV.
    opens = [v for v in result.violations if v.kind is DrcKind.OPEN]
    assert len(opens) <= 1


def test_detailed_route_deterministic():
    design1 = fresh_small()
    design2 = fresh_small()
    r1 = _route(design1)
    r2 = _route(design2)
    assert r1.wirelength_dbu == r2.wirelength_dbu
    assert r1.vias == r2.vias
    assert len(r1.violations) == len(r2.violations)


def test_conflicting_pins_produce_short_not_crash(tech45):
    """Two nets forced through one corridor may short but never crash."""
    design = build_tiny_design(tech45, num_rows=2, sites_per_row=20)
    add_cell(design, "a0", "INV_X1", 0, 0)
    add_cell(design, "b0", "INV_X1", 18, 0)
    add_cell(design, "a1", "INV_X1", 2, 0)
    add_cell(design, "b1", "INV_X1", 16, 0)
    add_two_pin_net(design, "n0", "a0", "b0")
    add_two_pin_net(design, "n1", "a1", "b1")
    result = _route(design)
    # Both nets must be electrically complete (no opens).
    assert not [v for v in result.violations if v.kind is DrcKind.OPEN]


def test_min_area_patching_adds_wirelength(tech45):
    """A net needing a via stack gets patched metal, not a violation."""
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
    add_cell(design, "a", "INV_X1", 1, 0)
    add_cell(design, "b", "INV_X1", 20, 3)
    add_two_pin_net(design, "n", "a", "b")
    result = _route(design)
    assert not [v for v in result.violations if v.kind is DrcKind.MIN_AREA]
