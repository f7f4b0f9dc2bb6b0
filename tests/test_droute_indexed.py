"""Bit-exact parity suite: indexed detailed-routing kernel vs dict oracle.

The flat-array kernel (:class:`repro.droute.indexed.DrouteIndex`, the
only state ``DetailedRouter`` builds) must produce byte-identical routes,
violations, and quality to the dict-of-tuples oracle
(``oracles.droute.OracleDetailedRouter``) on every design — same
discipline as the grid cost field's scalar oracle.  Any divergence is a
kernel bug, never an acceptable approximation.
"""

from __future__ import annotations

import pytest

from repro.droute import DetailedRouter
from repro.droute.indexed import BLOCKED_ID, FREE, DrouteIndex
from repro.droute.lattice import TrackLattice
from repro.droute.obstacles import BLOCKED, build_obstacle_map
from repro.groute import GlobalRouter
from repro.obs import MetricsRegistry, use_metrics
from repro.obs.metrics import RESERVOIR_SIZE

from helpers import add_cell, add_two_pin_net, build_tiny_design, fresh_small
from oracles.droute import OracleDetailedRouter


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


def route_both(design_factory, guides_from_gr: bool, min_tolled=0, **router_kw):
    """Route two fresh copies, oracle and indexed; return signatures.

    Also holds the searches themselves to the oracle's: the indexed arm's
    per-search expansion counts are the oracle's, in order, less the hard
    searches the pocket look answered without running (the oracle runs
    them), and both arms ran the same number -- at least ``min_tolled``
    -- of soft searches under a toll.
    """
    sigs = []
    searches = []
    tolled = []
    for router_class in (OracleDetailedRouter, DetailedRouter):
        design = design_factory()
        guides = None
        if guides_from_gr:
            gr = GlobalRouter(design)
            gr.route_all()
            guides = gr.guides()
        router = router_class(design, **router_kw)
        registry = MetricsRegistry()
        with use_metrics(registry):
            sigs.append(signature(router.route_all(guides)))
        searches.append(registry.raw()["histograms"].get("droute.astar_expansions", []))
        tolled.append(registry.counter("droute.soft_tolled"))
        skipped = registry.counter("droute.hard_skipped")  # the last arm's: the look's
        # the seam took: only the production arm ran on the flat arrays
        assert isinstance(router._state, DrouteIndex) == (
            router_class is DetailedRouter
        )
    assert tolled[0] == tolled[1] >= min_tolled
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
        nid = index.nid_of(node)
        assert index.owner[nid] == index.intern(name)
        assert index.node_of(nid) == node
    # Nodes absent from the dict map are FREE in the dense array.
    assert FREE == 0 and index.owner.count(FREE) > 0


def test_index_roundtrips_node_ids(tech45):
    design = build_tiny_design(tech45)
    lattice = TrackLattice(design.tech, design.die)
    index = DrouteIndex(lattice, {})
    for node in [(0, 0, 0), (1, 2, 3), (index.num_layers - 1, 0, 1)]:
        assert index.node_of(index.nid_of(node)) == node


# ----------------------------------------------------------------- parity


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_randomized_parity_with_guides(seed):
    """Guided DR (the production path) is bit-exact across backends."""
    oracle, indexed = route_both(
        lambda: fresh_small(seed=seed, num_cells=80, num_nets=70),
        guides_from_gr=True,
    )
    assert indexed == oracle


@pytest.mark.parametrize("seed", [5, 17])
def test_randomized_parity_unguided(seed):
    """Unguided DR exercises the no-guide kernel loops."""
    oracle, indexed = route_both(
        lambda: fresh_small(seed=seed, num_cells=60, num_nets=50),
        guides_from_gr=False,
    )
    assert indexed == oracle


def test_parity_through_ripup_rounds():
    """Conflict rip-up rounds (soft reroutes) stay bit-exact."""
    oracle, indexed = route_both(
        lambda: fresh_small(seed=23, num_cells=100, num_nets=90,
                            utilization=0.8),
        guides_from_gr=True,
        drc_rounds=3,
    )
    assert indexed == oracle


def test_parity_where_soft_searches_carry_a_toll():
    """A design dense enough that the look closes for soft searches too:
    their paths are the tolled oracle's."""
    oracle, indexed = route_both(
        lambda: fresh_small(seed=7, num_cells=120, num_nets=260, utilization=0.9),
        guides_from_gr=True,
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

    oracle, indexed = route_both(factory, guides_from_gr=False)
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

    oracle, indexed = route_both(factory, guides_from_gr=False)
    assert indexed == oracle
