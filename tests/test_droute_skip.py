"""Searches detailed routing does not run: the pocket look and the
fixed-point exit from the conflict rounds.

Both must be invisible in the output.  The look is held to the forward
search and to the dict oracle on random lattices (it may only say
"closed" when both return ``None``); the exit is held to a conflict
round run by hand after ``route_all`` has stopped.
"""

from __future__ import annotations

import copy
import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import build_tech
from repro.droute import DetailedRouter
from repro.droute import indexed
from repro.droute.access import access_nodes
from repro.droute.astar import SearchParams, SearchStats
from repro.droute.indexed import astar_connect_indexed, pocket_closed
from repro.droute.lattice import TrackLattice
from repro.droute.obstacles import BLOCKED
from repro.geom import Rect
from repro.groute import GlobalRouter
from repro.obs import MetricsRegistry, use_metrics

from helpers import (
    add_cell, add_two_pin_net, build_tiny_design, droute_index, fresh_small,
    lattice_nodes,
)
from oracles.droute import astar_connect
from test_droute_indexed import signature

_TECH = build_tech("45nm")

# ------------------------------------------------------------ pocket look


def _random_case(seed, nx, ny, top_layer, wall_density, guide_density):
    """Random owner / occupancy / guide / bounds / terminals on a small lattice.

    The guide covers layers ``0..top_layer`` only, so that pockets close
    often enough to matter on a nine-layer stack.
    """
    rng = random.Random(seed)
    lattice = TrackLattice(_TECH, Rect(0, 0, nx * 200, ny * 200))
    nodes = lattice_nodes(lattice)
    owner = {
        node: rng.choice(("n", "enemy", BLOCKED))
        for node in nodes
        if rng.random() < wall_density
    }
    occupancy = {
        node: rng.choice(("n", "other"))
        for node in nodes
        if rng.random() < wall_density
    }
    guide = {
        node for node in nodes
        if node[0] <= top_layer and rng.random() < guide_density
    }
    xs = sorted(rng.sample(range(lattice.nx), 2))
    ys = sorted(rng.sample(range(lattice.ny), 2))
    bounds = (xs[0], ys[0], xs[1], ys[1])
    low = [node for node in nodes if node[0] <= top_layer]
    sources = set(rng.sample(low, rng.randint(1, 4)))  # anywhere: also out of bounds
    targets = set(rng.sample(low, rng.randint(1, 4)))  # free, own, foreign or BLOCKED
    return lattice, owner, occupancy, guide, bounds, sources, targets


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(3, 10),
    ny=st.integers(3, 10),
    top_layer=st.integers(1, 4),
    wall_density=st.sampled_from((0.1, 0.25, 0.4)),
    guide_density=st.sampled_from((0.5, 0.7, 0.9, 1.0)),
    budget=st.sampled_from((1, 4, 16, 64, indexed.POCKET_BUDGET)),
)
def test_look_closed_implies_no_path(
    seed, nx, ny, top_layer, wall_density, guide_density, budget
):
    lattice, owner, occupancy, guide, bounds, sources, targets = _random_case(
        seed, nx, ny, top_layer, wall_density, guide_density
    )
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    net_id = index.intern("n")
    params = SearchParams()

    with patch.object(indexed, "POCKET_BUDGET", budget):
        closed = pocket_closed(index, sources, targets, net_id, bounds, stamp)
    fast = astar_connect_indexed(
        index, sources, targets, net_id, bounds, stamp, params, soft=False
    )
    ref = astar_connect(
        lattice, sources, targets, "n", owner, occupancy, bounds, guide,
        params, soft=False,
    )
    if closed:
        assert fast is None and ref is None
    assert (fast is None) == (ref is None)

    # With the budget out of the way the look is exact, not merely safe
    # (a look that never closed would pass the assertions above).
    with patch.object(indexed, "POCKET_BUDGET", index.num_nodes):
        exact = pocket_closed(index, sources, targets, net_id, bounds, stamp)
    assert exact == (ref is None)
    assert exact or not closed


def test_look_does_not_read_an_earlier_search_s_wall_marks():
    """The search and the look share ``gate``; each takes a stamp block of
    its own, so ``wall`` marks left on net ``b``'s corridor by a hard
    search for net ``a`` are not "already visited" to the look for ``b``."""
    lattice = TrackLattice(_TECH, Rect(0, 0, 5 * 200, 7 * 200))
    nodes = set(lattice_nodes(lattice))
    corridor = [(1, 2, iy) for iy in range(7)]  # Metal2, the only way for b
    a_source, a_target = (1, 1, 3), (1, 3, 3)  # either side of it
    owner = dict.fromkeys(nodes - {a_source, a_target}, BLOCKED)
    owner.update(dict.fromkeys(corridor, "b"))
    bounds = (0, 0, lattice.nx - 1, lattice.ny - 1)

    def look(index, stamp):
        return pocket_closed(
            index, {corridor[0]}, {corridor[-1]}, index.intern("b"), bounds, stamp
        )

    index, stamp = droute_index(lattice, owner, {}, nodes)
    blocked = astar_connect_indexed(
        index, {a_source}, {a_target}, index.intern("a"), bounds, stamp,
        SearchParams(), soft=False,
    )
    assert blocked is None  # it met the corridor and marked it a wall
    assert look(index, stamp) is False
    assert look(*droute_index(lattice, owner, {}, nodes)) is False


def _two_cell_session(tech45):
    """Net ``n`` between two inverters, GR guides, a begun DR session."""
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
    add_cell(design, "a", "INV_X1", 1, 0)
    add_cell(design, "b", "INV_X1", 20, 2)
    net = add_two_pin_net(design, "n", "a", "b")
    gr = GlobalRouter(design)
    gr.route_all()
    router = DetailedRouter(design)
    state = router.begin_session(gr.guides())
    return design, router, state, net


def test_enclosed_pin_skips_the_hard_search(tech45):
    design, router, state, net = _two_cell_session(tech45)
    # Metal1 carries no wires, so a pin is entered only from the landing
    # above it: a foreign wire on every landing seals the target pocket.
    enemy = state.intern("enemy")
    for layer, ix, iy in access_nodes(design, router.lattice, net.pins[1]):
        state.occupancy[state.nid_of((layer + 1, ix, iy))] = enemy

    registry = MetricsRegistry()
    with use_metrics(registry):
        comp = router.compute_net("n")
    assert registry.counter("droute.hard_skipped") == 1
    assert registry.counter("droute.astar_calls") == 1  # the soft fallback only
    assert comp.paths and not comp.opens


def test_open_corridor_runs_the_hard_search(tech45):
    design, router, state, net = _two_cell_session(tech45)
    terminals = [access_nodes(design, router.lattice, pin) for pin in net.pins]
    guide, bounds = state.guide_region(router._session_guides["n"], terminals)
    stats = SearchStats()
    found = state.connect(
        set(terminals[0]), set(terminals[1]), "n", bounds, guide,
        soft=False, stats=stats,
    )
    assert found is not None and not found.conflicts
    assert (stats.skipped, stats.calls) == (0, 1)


# ------------------------------------------------------ fixed-point exit


def _routed(drc_rounds, seed=1, num_nets=200):
    """A dense design whose first conflict round leaves a short behind."""
    design = fresh_small(seed=seed, num_cells=120, num_nets=num_nets, utilization=0.9)
    gr = GlobalRouter(design)
    gr.route_all()
    guides = gr.guides()
    router = DetailedRouter(design, drc_rounds=drc_rounds)
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = router.route_all(guides)
    return router, guides, result, registry


def test_round_after_the_fixed_point_changes_nothing():
    router, guides, result, registry = _routed(drc_rounds=6)
    assert registry.counter("droute.rrr_fixed_point") == 1
    book, state = router._book, router._state
    ripped = {name for pair in book.conflicts.values() for name in pair}
    assert ripped and result.drv_counts().get("short")

    def snapshot():
        return copy.deepcopy((
            list(result.paths.items()),
            list(book.net_nodes.items()),
            list(book.conflicts.items()),
            sorted(result.violations, key=repr),
            list(book.patch_counts.items()),
            state.owner,
            state.occupancy,
        ))

    before = snapshot()
    router._rrr_round(ripped, guides, state, SearchStats(), book)
    assert snapshot() == before


def test_more_rounds_than_needed_return_the_same_result():
    _, _, two, registry_two = _routed(drc_rounds=2)
    _, _, six, registry_six = _routed(drc_rounds=6)
    assert signature(six) == signature(two)
    rounds = registry_two.counter("droute.rrr_rounds")
    assert rounds == registry_six.counter("droute.rrr_rounds") == 1
    assert registry_six.counter("droute.astar_calls") == registry_two.counter(
        "droute.astar_calls"
    )


def test_changing_rip_set_runs_every_round():
    # Round 1 rips four nets, round 2 two of them: not a fixed point yet.
    _, _, _, registry = _routed(drc_rounds=2, seed=7, num_nets=260)
    assert registry.counter("droute.rrr_rounds") == 2
    assert registry.counter("droute.ripped_nets") == 6
    assert registry.counter("droute.rrr_fixed_point") == 0
