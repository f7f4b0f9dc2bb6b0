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
from repro.droute import DetailedRouter
from repro.droute import router as router_module
from repro.droute.indexed import BLOCKED_ID, FREE, DrouteIndex
from repro.droute.lattice import TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.groute import GlobalRouter
from repro.obs import observe
from repro.obs.metrics import RESERVOIR_SIZE

from helpers import (
    add_cell, add_two_pin_net, build_tiny_design, droute_index, fresh_small,
    lattice_nodes,
)
from oracles.droute import OracleDetailedRouter, _DictState, fast_pattern_reference


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
        sl = draw(st.sampled_from(router._h_layers + router._v_layers))
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
    """The closed-form, cheapest-first fast path returns the reference's
    ``SearchResult`` -- path, cost and conflicts -- or ``None`` with it,
    on the flat arrays and on the dict state alike."""
    router, sources, targets, owner, occupancy, guide = problem
    lattice, params = router.lattice, router.params
    state = _DictState(lattice, dict(owner), {}, params)
    state.occupancy.update(occupancy)
    expected = fast_pattern_reference(router, "n", sources, targets, state, guide)
    event("more than 64 pairs" if len(sources) * len(targets) > 64 else "64 or fewer")
    event("no clean L" if expected is None else "a clean L")
    index, stamp = droute_index(lattice, owner, occupancy, guide)
    assert router._fast_pattern("n", sources, targets, index, stamp) == expected
    assert router._fast_pattern("n", sources, targets, state, guide) == expected
    if expected is not None:
        assert type(expected.cost) is float
