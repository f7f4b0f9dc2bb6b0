"""Tests for ``repro.ckpt``: the run digests and ``atomic_write``.

The digests are how a re-run proves it reproduced a run: they must
depend only on the final routes and placement, never on dict insertion
order, and the flow must read them off the ``repro.ckpt`` package so
that a wrapper installed there (the benchmark's ``ckpt.digest`` span)
sees every call.
"""

from __future__ import annotations

import repro.ckpt as ckpt
from helpers import fresh_small
from repro.ckpt import atomic_write, positions_digest, routes_digest
from repro.flow import run_flow
from repro.groute import GlobalRouter


class TestAtomicWrite:
    def test_round_trip_text_and_bytes(self, tmp_path):
        p = atomic_write(tmp_path / "a.json", '{"x": 1}\n')
        assert p.read_text() == '{"x": 1}\n'
        p = atomic_write(tmp_path / "b.bin", b"\x00\x01")
        assert p.read_bytes() == b"\x00\x01"

    def test_overwrites_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "report.json"
        atomic_write(target, "old")
        atomic_write(target, "new")
        assert target.read_text() == "new"
        assert [f.name for f in tmp_path.iterdir()] == ["report.json"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "er" / "out.json"
        atomic_write(target, "x")
        assert target.read_text() == "x"


def test_digests_ignore_insertion_order_and_see_a_one_site_move():
    design = fresh_small(seed=11)
    router = GlobalRouter(design)
    router.route_all(rrr_passes=1)
    routes, positions = routes_digest(router), positions_digest(design)

    router.routes = dict(reversed(router.routes.items()))
    design.cells = dict(reversed(design.cells.items()))
    assert routes_digest(router) == routes
    assert positions_digest(design) == positions

    cell = next(c for c in design.cells.values() if not c.fixed)
    site_width = design.tech.default_site().width
    design.move_cell(cell.name, cell.x + site_width, cell.y)
    assert positions_digest(design) != positions
    design.move_cell(cell.name, cell.x - site_width, cell.y)
    assert positions_digest(design) == positions


def test_flow_reads_digests_off_the_package(monkeypatch):
    """The benchmark times ``ckpt.digest`` by rebinding these two names
    on ``repro.ckpt``; a flow that imported them from elsewhere would
    silently report zero."""
    calls = {"routes": 0, "positions": 0}

    def counting(key, digest):
        def wrapper(obj):
            calls[key] += 1
            return f"{key}:{digest(obj)}"

        return wrapper

    monkeypatch.setattr(ckpt, "routes_digest", counting("routes", routes_digest))
    monkeypatch.setattr(
        ckpt, "positions_digest", counting("positions", positions_digest)
    )
    result = run_flow(fresh_small(), mode="baseline", skip_detailed=True)
    assert not result.failed
    assert calls == {"routes": 1, "positions": 1}
    assert result.routes_digest.startswith("routes:")
    assert result.placement_digest.startswith("positions:")
