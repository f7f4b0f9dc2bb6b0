"""Searches detailed routing does not run, and the one it runs knowing
where it must cross: the pocket look and the toll it proves for a soft
search.

The look is held to the forward search and to the dict oracle on random
lattices (it may only say "closed" when both return ``None``); the toll
is held to the optimum (a tolled search costs what the un-inflated,
unbounded flood costs).
"""

from __future__ import annotations

import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import build_tech
from repro.droute import DetailedRouter
from repro.droute import indexed
from repro.droute import router as router_module
from repro.droute.access import access_nodes
from repro.droute.astar import SearchParams
from repro.droute.drc import DrcKind
from repro.droute.indexed import HARD, SOFT, astar_connect_indexed, pocket_closed
from repro.droute.lattice import TrackLattice
from repro.droute.obstacles import BLOCKED
from repro.geom import Rect
from repro.groute import GlobalRouter
from repro.obs import observe

from helpers import (
    add_cell, add_two_pin_net, build_tiny_design, dr_searches, droute_index,
    lattice_nodes,
)
from oracles.droute import astar_connect
from test_droute import _random_search_case

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
    guide_density=st.sampled_from((0.5, 0.7, 0.9, 1.0, None)),
    budget=st.sampled_from((1, 4, 16, 64, indexed.POCKET_BUDGET)),
)
def test_look_closed_implies_no_path(
    seed, nx, ny, top_layer, wall_density, guide_density, budget
):
    lattice, owner, occupancy, guide, bounds, sources, targets = _random_case(
        seed, nx, ny, top_layer, wall_density, guide_density or 1.0
    )
    if guide_density is None:  # an unguided search: no guide test in the look
        guide = None
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    net_id = index.intern("n")
    params = SearchParams()

    with patch.object(indexed, "POCKET_BUDGET", budget):
        closed = pocket_closed(index, sources, targets, net_id, bounds, stamp)
    fast = astar_connect_indexed(
        index, sources, targets, net_id, bounds, stamp, params, False
    )
    ref = astar_connect(
        lattice, sources, targets, "n", owner, occupancy, bounds, guide,
        params, False,
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
        SearchParams(), False,
    )
    assert blocked is None  # it met the corridor and marked it a wall
    assert look(index, stamp) is False
    assert look(*droute_index(lattice, owner, {}, nodes)) is False


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(3, 10),
    ny=st.integers(3, 10),
    top_layer=st.integers(1, 4),
    wall_density=st.sampled_from((0.1, 0.25, 0.4)),
    budget=st.sampled_from((30, 400, 60000)),
)
def test_tolled_search_costs_what_the_flood_costs(
    seed, nx, ny, top_layer, wall_density, budget
):
    """Whenever the look closes for a soft search, the search that carries the
    toll finds a path iff the un-inflated flood with no budget does, at the
    flood's cost -- the optimum -- so never above the parent kernel's (weight
    1.15, toll 0.0).

    Not "the flood's path": they may settle an equal-cost tie differently
    (about one random case in four hundred)."""
    lattice, owner, occupancy, _, bounds, sources, targets = _random_case(
        seed, nx, ny, top_layer, wall_density, 1.0
    )
    index, stamp = droute_index(lattice, owner, occupancy)  # soft: no guide
    net_id = index.intern("n")
    unbounded = index.num_nodes + 1

    def search(weight, max_expansions):
        params = SearchParams(heuristic_weight=weight, max_expansions=max_expansions)
        return astar_connect_indexed(
            index, sources, targets, net_id, bounds, stamp, params, True
        )

    flood = search(1.0, unbounded)
    parent = search(SearchParams().heuristic_weight, budget)
    index.params = SearchParams(max_expansions=unbounded)
    with dr_searches() as stats:
        tolled = index.connect(sources, targets, "n", bounds, stamp, SOFT)
    if not stats.tolled:
        return
    assert (tolled is None) == (flood is None)
    if tolled is None:
        return
    assert tolled.cost == flood.cost
    assert len(tolled.path) >= 2 and tolled.path[-1] in targets
    if parent is not None:
        assert tolled.cost <= parent.cost


def _walled_target(free=(), size=9):
    """A ``size`` x ``size`` lattice whose target, three tracks from the right
    edge of the middle row of Metal2, is wrapped in foreign wires -- all six
    neighbours but those at the ``(dl, dx, dy)`` offsets in ``free``; the
    source is one track from the left edge of the same row.  At ``size=9``:
    ``(1, 1, 4)`` to ``(1, 6, 4)``."""
    lattice = TrackLattice(_TECH, Rect(0, 0, size * 200, size * 200))
    l, ix, iy = target = (1, size - 3, size // 2)
    occupancy = {
        (l + dl, ix + dx, iy + dy): "other"
        for dl, dx, dy in (
            (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1), (-1, 0, 0), (1, 0, 0),
        )
        if (dl, dx, dy) not in free
    }
    bounds = (0, 0, lattice.nx - 1, lattice.ny - 1)
    return lattice, occupancy, bounds, {(1, 1, size // 2)}, {target}


def test_look_closes_on_a_walled_target_and_opens_through_a_gap():
    lattice, occupancy, bounds, sources, targets = _walled_target()
    index, _ = droute_index(lattice, {}, occupancy)
    assert pocket_closed(index, sources, targets, index.intern("n"), bounds, None)
    # the holder itself walks in: its own wires are no wall
    assert not pocket_closed(
        index, sources, targets, index.intern("other"), bounds, None
    )

    lattice, occupancy, bounds, sources, targets = _walled_target(
        free={(0, -1, 0)}
    )
    index, _ = droute_index(lattice, {}, occupancy)
    assert not pocket_closed(  # it met the source: unknown
        index, sources, targets, index.intern("n"), bounds, None
    )


def test_look_gives_up_past_its_budget():
    """The *source* is the walled one: the flood from the target would close
    -- after the whole lattice, far past ``POCKET_BUDGET``."""
    lattice, occupancy, bounds, sources, targets = _walled_target()
    index, _ = droute_index(lattice, {}, occupancy)
    net_id = index.intern("n")
    assert index.num_nodes > indexed.POCKET_BUDGET
    assert not pocket_closed(index, targets, sources, net_id, bounds, None)
    with patch.object(indexed, "POCKET_BUDGET", index.num_nodes):
        assert pocket_closed(index, targets, sources, net_id, bounds, None)


def test_look_follows_the_window_rule():
    """A gap on the target's far side is no way in when the node behind it
    may not step: a planar step needs the *stepping* node short of the far
    bound."""
    lattice, occupancy, _, sources, targets = _walled_target(
        free={(0, 1, 0)}
    )
    index, _ = droute_index(lattice, {}, occupancy)
    net_id = index.intern("n")
    whole = (0, 0, lattice.nx - 1, lattice.ny - 1)
    assert not pocket_closed(index, sources, targets, net_id, whole, None)
    # (1, 7, 4) steps -x onto the target only while it is right of ix0
    for ix0, closed in ((6, False), (7, True)):
        window = (ix0, 0, lattice.nx - 1, lattice.ny - 1)
        assert pocket_closed(index, sources, targets, net_id, window, None) == closed
        found = astar_connect_indexed(
            index, sources, targets, net_id, window, None, SearchParams(), False
        )
        assert (found is None) == closed


def test_look_tests_the_guide_only_when_there_is_one():
    lattice, occupancy, bounds, sources, targets = _walled_target(
        free={(0, -1, 0)}
    )
    guide = set(lattice_nodes(lattice)) - {(1, 5, 4)}  # the gap is off-guide
    index, stamp = droute_index(lattice, {}, occupancy, guide)
    net_id = index.intern("n")
    assert pocket_closed(index, sources, targets, net_id, bounds, stamp)
    assert not pocket_closed(index, sources, targets, net_id, bounds, None)


def test_connect_skips_an_unguided_hard_search_too():
    lattice, occupancy, bounds, sources, targets = _walled_target()
    index, _ = droute_index(lattice, {}, occupancy)
    with dr_searches() as stats:
        found = index.connect(sources, targets, "n", bounds, None, HARD)
    assert found is None
    assert (stats.skipped, stats.tolled, stats.calls) == (1, 0, 0)


def test_soft_search_that_flooded_its_budget_now_connects():
    """The opens that were budget artefacts.  The target is wrapped in
    foreign wires, so the soft search must cross one; blind to that, it
    expands every penalty-free node with ``f`` below the answer -- the whole
    window, nine layers deep -- and the budget ends it first."""
    lattice, occupancy, bounds, sources, targets = _walled_target(size=30)
    params = SearchParams(max_expansions=400)  # x soft_budget_factor = 1 200
    index, _ = droute_index(lattice, {}, occupancy)
    index.params = params

    with dr_searches() as flood:
        assert astar_connect_indexed(
            index, sources, targets, index.intern("n"), bounds, None, params,
            soft=True,
        ) is None
    assert flood.expansions == [1200]

    with dr_searches() as stats:
        found = index.connect(sources, targets, "n", bounds, None, SOFT)
    assert stats.tolled == 1 and stats.expansions[0] < 100
    # up to Metal3, 26 tracks along it, down through the wire on the landing
    assert found.conflicts == [(2, 27, 15)]
    assert found.cost == 2 * params.via_cost + 26 * lattice.pitch + params.conflict_penalty


def test_marks_of_a_look_and_its_tolled_search_mean_nothing_to_the_next_net():
    """Look, then tolled search, then the look and the search for *another*
    net across the same nodes: every answer is a fresh index's.  (The look's
    marks are read by the one search that follows it and by nothing else;
    the search's inside codes are codes of its own block.)"""
    rng = random.Random(23)
    later_tolled = 0
    for round_ in range(60):
        lattice, case, _ = _random_search_case(rng, _TECH, sealed=True)
        owner, occupancy, bounds, sources, targets = case
        # soft searches: no guide
        used, stamp = droute_index(lattice, owner, occupancy)
        used.connect(sources, targets, "n", bounds, stamp, SOFT)
        fresh, fresh_stamp = droute_index(lattice, owner, occupancy)
        # "other" holds the seal: it walks where "n" had to cross,
        # forwards and, terminals swapped, backwards
        for net, a, b in (("other", sources, targets), ("n", targets, sources)):
            answers = []
            for index, handle in ((used, stamp), (fresh, fresh_stamp)):
                closed = pocket_closed(
                    index, a, b, index.intern(net), bounds, handle
                )
                with dr_searches() as stats:
                    found = index.connect(a, b, net, bounds, handle, SOFT)
                answers.append((
                    closed, stats.tolled, stats.expansions,
                    found and (found.path, found.cost, found.conflicts),
                ))
            assert answers[0] == answers[1], (round_, net)
            later_tolled += answers[0][1]
    assert later_tolled  # the second net's searches read marks too


def _two_cell_session(tech45):
    """Net ``n`` between two inverters, a begun DR session, its GR guides."""
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
    add_cell(design, "a", "INV_X1", 1, 0)
    add_cell(design, "b", "INV_X1", 20, 2)
    net = add_two_pin_net(design, "n", "a", "b")
    gr = GlobalRouter(design)
    gr.route_all()
    guides = gr.guides()
    router = DetailedRouter(design)
    state = router.begin_session()
    return design, router, state, net, guides["n"]


def test_enclosed_pin_skips_the_hard_search(tech45):
    design, router, state, net, guide_rects = _two_cell_session(tech45)
    # Metal1 carries no wires, so a pin is entered only from the landing
    # above it: a foreign wire on every landing seals the target pocket.
    enemy = state.intern("enemy")
    for layer, ix, iy in access_nodes(design, router.lattice, net.pins[1]):
        state.occupancy[state.nid_of((layer + 1, ix, iy))] = enemy

    book = router_module._RouteBook()
    with observe() as obs:
        router._route_net(net, guide_rects, state, book)
    registry = obs.metrics
    assert registry.counter("droute.hard_skipped") == 1
    assert registry.counter("droute.astar_calls") == 1  # the soft fallback only
    assert book.result.paths["n"]
    assert not any(v.kind is DrcKind.OPEN for v in book.result.violations)


def test_open_corridor_runs_the_hard_search(tech45):
    design, router, state, net, guide_rects = _two_cell_session(tech45)
    terminals = [access_nodes(design, router.lattice, pin) for pin in net.pins]
    guide, bounds = state.guide_region(guide_rects, terminals)
    with dr_searches() as stats:
        found = state.connect(
            set(terminals[0]), set(terminals[1]), "n", bounds, guide, HARD
        )
    assert found is not None and not found.conflicts
    assert (stats.skipped, stats.calls) == (0, 1)
