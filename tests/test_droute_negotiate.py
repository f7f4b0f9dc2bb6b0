"""Negotiated detailed-routing rounds: the history cost, the rip set, the
loop's exit and the min-area island record.

After the first pass each round grows a per-node history cost on every
contested node -- a node of a short, a planar neighbour of a min-area
island that another net holds -- and rips both nets of every short,
every net with an island and the nets holding those neighbours.  The
islands are the ones ``_patch_min_area`` could not grow, recorded as each
net routes; the record is held here to the independent checker in
``tests/oracles/droute.py``, which scans the final node sets.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

from repro.benchgen import build_tech, make_design
from repro.droute import DetailedRouter
from repro.droute import router as router_module
from repro.droute.access import access_nodes
from repro.droute.obstacles import BLOCKED
from repro.flow import run_flow
from repro.groute import GlobalRouter
from repro.obs import observe

from helpers import build_tiny_design, droute_index, fresh_small
from oracles.droute import min_area_islands
from test_droute_indexed import signature

#: the dense designs routed here; of a six-round budget, seed 1 (200
#: nets) runs four rounds and seed 7 (260 nets) two, then nothing is left
#: to rip
_DENSE = dict(num_cells=120, utilization=0.9)


def _routed(drc_rounds, seed=1, num_nets=200, spies=()):
    """Route a dense design with ``drc_rounds`` rounds: router, result,
    metrics registry.  ``spies`` are ``(method name, wrapper)`` pairs;
    ``wrapper(original, router, *args)`` replaces that router method."""
    design = fresh_small(seed=seed, num_nets=num_nets, **_DENSE)
    gr = GlobalRouter(design)
    gr.route_all()
    guides = gr.guides()
    router = DetailedRouter(design)
    for name, wrapper in spies:
        original = getattr(router, name)
        setattr(
            router, name,
            lambda *args, _o=original, _w=wrapper: _w(_o, router, *args),
        )
    with observe() as obs, patch.object(router_module, "DRC_ROUNDS", drc_rounds):
        result = router.route_all(guides)
    return router, result, obs.metrics


def _record(book):
    """The router's island record as the checker's ``(net, layer, nodes)``."""
    return {
        (name, layer, component)
        for name, islands in book.islands.items()
        for layer, component in islands
    }


def _checker(router, book):
    """The oracle's islands of the final node sets; a net's pin nodes are
    its terminals' access nodes, as the router derived them."""
    design = router.design
    pin_nodes = {
        name: {
            node
            for pin in design.nets[name].pins
            for node in access_nodes(design, router.lattice, pin)
        }
        for name in book.net_nodes
    }
    return min_area_islands(router.lattice, book.net_nodes, pin_nodes)


# ------------------------------------------------------------------ history


def test_history_only_grows():
    """Every round adds whole steps and takes nothing away, and nothing but
    a round writes the history."""
    snapshots = []

    def spy(original, router, state, book):
        before = list(state.history)
        ripped = original(state, book)
        snapshots.append((before, list(state.history), ripped))
        return ripped

    router, _, registry = _routed(6, spies=[("_negotiate", spy)])
    step = router_module.HISTORY_STEP * router.lattice.pitch
    assert registry.counter("droute.rrr_rounds") == len(snapshots) - 1 >= 2
    bumps = 0
    previous = [0.0] * len(snapshots[0][0])
    for before, after, ripped in snapshots:
        assert before == previous  # the reroute left it alone
        grown = [b - a for a, b in zip(before, after)]
        assert min(grown) == 0.0
        assert all(g % step == 0 for g in grown)
        assert bool(ripped) == (sum(grown) > 0)
        bumps += sum(grown) // step
        previous = after
    assert list(router._state.history) == previous
    assert bumps == registry.counter("droute.history_bumps") > 0


# ----------------------------------------------------------------- rip set


def test_rip_set_is_the_shorts_the_islands_and_their_blockers():
    """Each round rips both nets of every short, every net the checker finds
    an island on, and every other net holding a planar neighbour of one --
    and nothing else."""
    seen = {"short": 0, "island": 0, "blocker": 0}

    def spy(original, router, ripped, guides, state, book):
        shorts = {name for pair in book.conflicts.values() for name in pair}
        islands = _checker(router, book)
        blockers = set()
        for name, layer, component in islands:
            for ix, iy in component:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    x, y = ix + dx, iy + dy
                    if 0 <= x < state.nx and 0 <= y < state.ny:
                        nid = state.nid_of((layer, x, y))
                        holder = state.names[state.owner[nid] or state.occupancy[nid]]
                        if holder not in (None, BLOCKED, name):
                            blockers.add(holder)
        victims = {name for name, _, _ in islands}
        assert ripped == shorts | victims | blockers
        seen["short"] += bool(shorts)
        seen["island"] += bool(victims)
        seen["blocker"] += bool(blockers - shorts - victims)
        return original(ripped, guides, state, book)

    _routed(6, spies=[("_rrr_round", spy)])
    assert all(seen.values()), seen


def test_a_round_with_nothing_to_rip_ends_the_loop():
    rips = []

    def spy(original, router, state, book):
        rips.append(original(state, book))
        return rips[-1]

    _, result, registry = _routed(6, seed=7, num_nets=260, spies=[("_negotiate", spy)])
    assert [bool(r) for r in rips] == [True, True, False]
    assert registry.counter("droute.rrr_rounds") == 2
    assert not result.drv_counts()

    # a clean first pass runs no round at all
    _, result, registry = _routed(2, seed=42, num_nets=50)
    assert not result.violations
    assert registry.counter("droute.rrr_rounds") == 0


# ------------------------------------------------------------ determinism

_PROBE = """
import json, sys
sys.path.insert(0, {tests!r})
from test_droute_negotiate import _fingerprint
print(json.dumps(_fingerprint()))
"""


def _fingerprint():
    """Everything the rounds decide on the seed-1 design, hashed."""
    router, result, registry = _routed(6)
    text = repr((
        signature(result),
        sorted((n, l, sorted(c)) for n, l, c in _record(router._book)),
        list(router._state.history),
        registry.counter("droute.ripped_nets"),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def test_result_ignores_the_hash_seed():
    """Rip sets are sets of net names: their order must reach neither a
    route, the history nor the island record.  This process's hash seed
    (random in CI) against two fixed ones in subprocesses."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    runs = [_fingerprint()]
    for seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE.format(tests=str(tests))],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True,
            check=True, timeout=300,
        ).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
    assert runs[0] == runs[1] == runs[2]


# ----------------------------------------------------------- island record


def _island_record_holds(route):
    """Hold the record to the checker before every round and when
    ``route()`` -- which returns the min-area DRVs it reported -- is done;
    returns the record's size at each of those points."""
    sizes = []
    real = DetailedRouter.route_all

    def check(router, book):
        assert _record(book) == _checker(router, book)
        sizes.append(len(_record(book)))

    def route_all(self, guides):
        negotiate = self._negotiate

        def checked(state, book):
            check(self, book)
            return negotiate(state, book)

        self._negotiate = checked
        result = real(self, guides)
        check(self, self._book)
        return result

    with patch.object(DetailedRouter, "route_all", route_all):
        assert route() == sizes[-1]
    return sizes


def test_island_record_equals_the_checker_on_a_dense_design():
    def route():
        return _routed(6)[1].drv_counts().get("min_area", 0)

    sizes = _island_record_holds(route)
    assert sizes[0] >= 3 and len(sizes) == 6


@pytest.mark.parametrize("rounds", [0, router_module.DRC_ROUNDS])
def test_island_record_equals_the_checker_on_test5(rounds):
    """After the first pass (dozens of islands) and after the rounds."""
    def route():
        flow = run_flow(make_design("ispd18_test5"), mode="crp", crp_iterations=1)
        assert not flow.failed
        return flow.quality.drv_breakdown.get("min_area", 0)

    with patch.object(router_module, "DRC_ROUNDS", rounds):
        sizes = _island_record_holds(route)
    assert sizes[0] >= 20
    assert len(sizes) == rounds + 1  # one per round, one at the end


def test_islands_are_judged_after_every_patch_on_their_layer():
    """Two stuck landings whose patches meet are one island, as the checker
    sees them.  At 45 nm an island is one node (two meet the rule), walled
    in, so this needs a layer whose rule wants four: Metal2 (vertical)
    carries net ``n`` at (5, 5) and (5, 7), and other nets' wires wall in
    both and the free node between them."""
    tech = build_tech("45nm")
    tech.layers[1].min_area = 3600 + 3 * 150 * 60  # 60-wide: four nodes
    router = DetailedRouter(build_tiny_design(tech, num_rows=4, sites_per_row=30))
    assert router._min_area_nodes[1] == 4
    walls = [(4, 5), (6, 5), (5, 4), (4, 6), (6, 6), (4, 7), (6, 7), (5, 8)]
    state, _ = droute_index(
        router.lattice, {}, {(1, ix, iy): "other" for ix, iy in walls}
    )
    used = {(1, 5, 5), (1, 5, 7)}
    patched, islands = router._patch_min_area("n", used, set(), state)
    component = frozenset({(5, 5), (5, 6), (5, 7)})
    assert islands == [(1, component)]
    assert patched == 1  # only (5, 6) is new metal
    assert used == {(1, ix, iy) for ix, iy in component}
    assert min_area_islands(router.lattice, {"n": used}, {"n": set()}) == {
        ("n", 1, component)
    }

