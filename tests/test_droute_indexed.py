"""Bit-exact parity suite: indexed detailed-routing kernel vs dict oracle.

The flat-array kernel (:class:`repro.droute.indexed.DrouteIndex`, the
only state ``DetailedRouter`` builds) must produce byte-identical routes,
violations, and quality to the dict-of-tuples oracle
(``oracles.droute.OracleDetailedRouter``) on every design — same
discipline as the grid cost field's scalar oracle.  Any divergence is a
kernel bug, never an acceptable approximation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.benchgen import build_tech
from repro.geom import Rect
from repro.droute import DetailedRouter
from repro.droute import router as router_module
from repro.droute.indexed import BLOCKED_ID, FAST, FREE, DrouteIndex
from repro.droute.lattice import TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.groute import GlobalRouter
from repro.obs import observe
from repro.obs.metrics import RESERVOIR_SIZE

from helpers import (
    add_cell, add_two_pin_net, build_tiny_design, dr_searches, droute_index,
    fresh_small, lattice_nodes,
)
from oracles.droute import (
    OracleDetailedRouter, _DictState, fast_pattern, fast_pattern_reference, leg_layers,
    min_area_patch,
)


def signature(result):
    """Everything observable about a DetailedResult, fully ordered."""
    return (
        sorted(
            (name, tuple(tuple(node) for node in path))
            for name, paths in result.paths.items()
            for path in paths
        ),
        sorted(
            (v.kind.value, v.layer, v.net_a, v.net_b, v.node)
            for v in result.violations
        ),
        result.wirelength_dbu,
        result.vias,
    )


def route_both(design_factory, min_tolled=0, min_bumps=0):
    """Route two fresh copies, oracle and indexed, along their global
    router's guides; return signatures.

    Also holds the searches themselves to the oracle's: the indexed arm's
    per-search expansion counts are the oracle's, in order, less the hard
    searches the pocket look answered without running (the oracle runs
    them), and both arms ran the same number -- at least ``min_tolled``
    -- of soft searches under a toll, and grew the history of the same
    number -- at least ``min_bumps`` -- of contested nodes.
    """
    sigs = []
    searches = []
    tolled = []
    bumps = []
    for router_class in (OracleDetailedRouter, DetailedRouter):
        design = design_factory()
        gr = GlobalRouter(design)
        gr.route_all()
        guides = gr.guides()
        router = router_class(design)
        with observe() as obs:
            sigs.append(signature(router.route_all(guides)))
        registry = obs.metrics
        hist = registry._histograms.get("droute.astar_expansions")
        searches.append(hist.values if hist is not None else [])
        tolled.append(registry.counter("droute.soft_tolled"))
        bumps.append(registry.counter("droute.history_bumps"))
        skipped = registry.counter("droute.hard_skipped")  # the last arm's: the look's
        # the seam took: only the production arm ran on the flat arrays
        assert isinstance(router._state, DrouteIndex) == (
            router_class is DetailedRouter
        )
    assert tolled[0] == tolled[1] >= min_tolled
    assert bumps[0] == bumps[1] >= min_bumps
    oracle_searches, indexed_searches = searches
    assert len(oracle_searches) < RESERVOIR_SIZE  # else the lists are samples
    assert len(indexed_searches) == len(oracle_searches) - skipped
    remaining = iter(oracle_searches)
    assert all(count in remaining for count in indexed_searches)
    return sigs


# ------------------------------------------------------------------ index


def test_index_interns_owner_map(tech45):
    design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
    add_cell(design, "a", "INV_X1", 1, 0)
    add_cell(design, "b", "INV_X1", 20, 2)
    add_two_pin_net(design, "n", "a", "b")
    lattice = TrackLattice(design.tech, design.die)
    owner, _ = build_obstacle_map(design, lattice)
    index = DrouteIndex(lattice, owner)
    assert index.intern(BLOCKED) == BLOCKED_ID
    nid_of_net = index.intern("n")
    assert nid_of_net >= 2
    for node, name in owner.items():
        assert index.owner[index.nid_of(node)] == index.intern(name)
    # Nodes absent from the dict map are FREE in the dense array.
    assert FREE == 0 and index.owner.count(FREE) > 0


# ----------------------------------------------------------------- parity


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_randomized_parity_with_guides(seed):
    """Guided DR (the production path) is bit-exact across backends."""
    oracle, indexed = route_both(
        lambda: fresh_small(seed=seed, num_cells=80, num_nets=70),
    )
    assert indexed == oracle


def test_parity_through_ripup_rounds(monkeypatch):
    """Negotiation rounds -- reroutes that pay the history cost -- stay
    bit-exact."""
    monkeypatch.setattr(router_module, "DRC_ROUNDS", 3)
    oracle, indexed = route_both(
        lambda: fresh_small(seed=23, num_cells=100, num_nets=90,
                            utilization=0.8),
        min_bumps=1,
    )
    assert indexed == oracle


def test_parity_where_soft_searches_carry_a_toll():
    """A design dense enough that the look closes for soft searches too:
    their paths are the tolled oracle's."""
    oracle, indexed = route_both(
        lambda: fresh_small(seed=7, num_cells=120, num_nets=260, utilization=0.9),
        min_tolled=1,
    )
    assert indexed == oracle


def test_parity_min_area_patching(tech45):
    """A via-stack net needing min-area patches patches identically."""

    def factory():
        design = build_tiny_design(tech45, num_rows=4, sites_per_row=30)
        add_cell(design, "a", "INV_X1", 1, 0)
        add_cell(design, "b", "INV_X1", 20, 3)
        add_two_pin_net(design, "n", "a", "b")
        return design

    oracle, indexed = route_both(factory)
    assert indexed == oracle


def test_parity_dense_conflicts(tech45):
    """Nets forced through one corridor (shorts, soft fallbacks)."""

    def factory():
        design = build_tiny_design(tech45, num_rows=2, sites_per_row=20)
        add_cell(design, "a0", "INV_X1", 0, 0)
        add_cell(design, "b0", "INV_X1", 18, 0)
        add_cell(design, "a1", "INV_X1", 2, 0)
        add_cell(design, "b1", "INV_X1", 16, 0)
        add_two_pin_net(design, "n0", "a0", "b0")
        add_two_pin_net(design, "n1", "a1", "b1")
        return design

    oracle, indexed = route_both(factory)
    assert indexed == oracle


# -------------------------------------------------------------- fast path

_TECH = build_tech("45nm")

#: how the (source, target) pair the fast path picks is drawn
_FAST_CASES = (
    "any", "same x", "same y", "source on a leg layer",
    "target below the source", "more than 64 pairs",
)


@st.composite
def _fast_path_problems(draw):
    """A small lattice with random pins, wires and guide, and one
    connection to make on it: ``(router, sources, targets, owner,
    occupancy, guide node set)``."""
    design = build_tiny_design(
        _TECH, num_rows=draw(st.integers(1, 3)),
        sites_per_row=draw(st.integers(2, 16)),
    )
    router = DetailedRouter(design)
    nodes = lattice_nodes(router.lattice)
    top = _TECH.num_layers - 1
    node = st.sampled_from(nodes)
    case = draw(st.sampled_from(_FAST_CASES))
    (sl, sx, sy), (tl, tx, ty) = draw(node), draw(node)
    if case == "same x":
        tx = sx
    elif case == "same y":
        ty = sy
    elif case == "source on a leg layer":
        sl = draw(st.sampled_from(sum(leg_layers(router.lattice), ())))
    elif case == "target below the source":
        tl = draw(st.integers(0, top - 1))
        sl = draw(st.integers(tl + 1, top))
    src, dst = (sl, sx, sy), (tl, tx, ty)
    assume(src != dst)
    extra = 12 if case == "more than 64 pairs" else 0
    sources = {src} | draw(st.sets(node, min_size=extra, max_size=extra))
    targets = ({dst} | draw(st.sets(node, min_size=extra, max_size=extra))) - sources
    assume(targets)
    # Fill-in densities drawn per map, so runs range from an empty
    # lattice to one where every candidate is blocked.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = st.floats(0.0, 0.3)
    held, wired, strayed = draw(density), draw(density), draw(density) / 2
    owner = {
        n: rng.choice(("n", "m", BLOCKED)) for n in nodes if rng.random() < held
    }
    occupancy = {n: rng.choice(("n", "m")) for n in nodes if rng.random() < wired}
    guide = {n for n in nodes if rng.random() >= strayed}
    return router, sources, targets, owner, occupancy, guide


@settings(max_examples=300, deadline=None)
@given(_fast_path_problems())
def test_fast_path_returns_what_the_tuple_reference_returns(problem):
    """The kernel's L tries -- the ``FAST`` rung alone -- return the
    reference's ``SearchResult`` -- path, cost and conflicts -- or ``None``
    with it, and so does their closed-form Python model; no search runs."""
    router, sources, targets, owner, occupancy, guide = problem
    lattice, params = router.lattice, router.params
    state = _DictState(lattice, dict(owner), {}, params)
    state.occupancy.update(occupancy)
    expected = fast_pattern_reference(state, "n", sources, targets, guide)
    event("more than 64 pairs" if len(sources) * len(targets) > 64 else "64 or fewer")
    event("no clean L" if expected is None else "a clean L")
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    index.params = params
    whole = (0, 0, lattice.nx - 1, lattice.ny - 1)
    with dr_searches() as stats:
        assert index.connect(sources, targets, "n", whole, stamp, FAST) == expected
    assert stats.calls == 0
    assert fast_pattern(state, "n", sources, targets, guide) == expected
    if expected is not None:
        assert type(expected.cost) is float


# ------------------------------------------------------- session parity


def _session_pair(lattice, owner, occupancy, guide, params):
    """The dict reference and the flat index over the same maps, each with
    its guide handle."""
    oracle = _DictState(lattice, dict(owner), {}, params)
    oracle.occupancy = dict(occupancy)
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    index.params = params
    return (oracle, guide), (index, stamp)


#: the router's cost constants on the 45 nm lattice
_PARAMS = DetailedRouter(build_tiny_design(_TECH)).params


def _ladder(lattice, owner, occupancy, guide, sources, targets):
    """One connection through both states' whole ladder; they must agree
    on the answer and the toll.  The kernel's answer, its searches and
    whether its look skipped the hard one."""
    answers = []
    whole = (0, 0, lattice.nx - 1, lattice.ny - 1)
    for state, handle in _session_pair(lattice, owner, occupancy, guide, _PARAMS):
        with dr_searches() as stats:
            found = state.connect(sources, targets, "n", whole, handle)
        answers.append((found, stats))
    (ref, ref_stats), (found, stats) = answers
    assert found == ref
    assert stats.tolled == ref_stats.tolled
    # the reference runs the hard search the look skips, and it fails
    assert len(stats.expansions) == len(ref_stats.expansions) - stats.skipped
    return found, stats


def _walled(lattice, node, holder):
    """``holder`` on the six lattice neighbours of ``node``."""
    layer, ix, iy = node
    return {
        (layer + dl, ix + dx, iy + dy): holder
        for dl, dx, dy in (
            (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0),
        )
    }


@pytest.mark.parametrize("seed", range(6))
def test_session_parity_on_random_ladders_and_patches(seed):
    """The kernel's ladder and patch against the dict reference on a random
    lattice, one connection per rung that can answer -- an L try, a hard
    search, a skipped hard search and a tolled soft one, a failed search --
    and a patch where two one-node islands compete for one free node, which
    ends alike whichever island grows first."""
    rng = random.Random(seed)
    lattice = TrackLattice(
        _TECH, Rect(0, 0, rng.randint(9, 14) * 200, rng.randint(9, 14) * 200)
    )
    nodes = lattice_nodes(lattice)
    everywhere = set(nodes)
    nx, ny = lattice.nx, lattice.ny
    # stray wires of another net above the L tries' and the searches' layers
    stray = {n: "m" for n in nodes if n[0] >= 6 and rng.random() < 0.2}

    def terminals():
        (sx, tx), (sy, ty) = rng.sample(range(1, nx - 1), 2), rng.sample(range(1, ny - 1), 2)
        if abs(sx - tx) < 2 or abs(sy - ty) < 2:
            return terminals()
        return (1, sx, sy), (1, tx, ty)

    # an L try: an empty lattice on the guide
    source, target = terminals()
    found, stats = _ladder(lattice, {}, stray, everywhere, {source}, {target})
    assert found is not None and stats.calls == 0

    # a hard search: every L leg layer taken but over the two terminals
    source, target = terminals()
    taken = {
        n: "m" for n in nodes
        if 1 <= n[0] <= 4 and n[1:] not in (source[1:], target[1:])
    }
    found, stats = _ladder(
        lattice, {}, {**stray, **taken}, everywhere, {source}, {target}
    )
    assert found is not None and not found.conflicts
    assert (stats.calls, stats.skipped, stats.tolled) == (1, 0, 0)

    # a sealed target: the hard search is skipped, the soft one tolled
    source, target = terminals()
    found, stats = _ladder(
        lattice, {}, {**stray, **_walled(lattice, target, "m")}, everywhere,
        {source}, {target},
    )
    assert found is not None and found.conflicts
    assert (stats.calls, stats.skipped, stats.tolled) == (1, 1, 1)

    # a walled-off target: every rung fails
    source, target = terminals()
    found, stats = _ladder(
        lattice, _walled(lattice, target, BLOCKED), stray, everywhere,
        {source}, {target},
    )
    assert found is None and (stats.skipped, stats.tolled) == (1, 1)

    # two one-node islands on Metal2 (vertical) and the free node between
    # them, every other neighbour held; and one island walled in all round
    ix, iy = rng.randrange(1, nx - 1), rng.randrange(1, ny - 4)
    a, b, between = (1, ix, iy), (1, ix, iy + 2), (1, ix, iy + 1)
    walls = {
        (1, ix + dx, iy + dy): "m" for dx, dy in (
            (-1, 0), (1, 0), (0, -1), (-1, 2), (1, 2), (0, 3),
        )
    }
    lone = (3, rng.randrange(1, nx - 1), rng.randrange(1, ny - 1))
    walls.update({n: "m" for n in _walled(lattice, lone, "m") if n[0] == 3})
    wire = {(2, x, iy + 2) for x in range(nx)}  # one component, long enough
    used = {a, b, lone} | wire
    outcomes = []
    for state, _ in _session_pair(lattice, {}, walls, everywhere, _PARAMS):
        patched_used = set(used)
        patched, islands = state.commit("n", patched_used, [[(0, 0, 0)]])
        outcomes.append((patched_used, patched, set(islands)))
    reference = _DictState(lattice, {}, {}, _PARAMS)
    reference.occupancy = dict(walls)
    for reverse in (False, True):  # the other island first
        patched_used = set(used)
        patched, islands = min_area_patch(
            lattice, reference.patch_free, "n", patched_used, {(0, 0, 0)},
            reverse=reverse,
        )
        outcomes.append((patched_used, patched, set(islands)))
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
    patched_used, patched, islands = outcomes[0]
    assert patched_used == used | {between} and patched == 1
    assert islands == {(3, frozenset({lone[1:]}))}
