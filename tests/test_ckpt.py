"""Tests for ``repro.ckpt``.

The contract under test: checkpoints are atomic, checksummed,
versioned; corruption or staleness is *skipped and reported*, never
fatal, and a resumed run reproduces the uninterrupted run byte-for-byte
(``routes_digest`` / ``placement_digest``).
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from helpers import fresh_small
from repro.ckpt import (
    CheckpointError,
    CheckpointStore,
    FlowCheckpointer,
    atomic_write,
    capture_state,
    positions_digest,
    restore_design,
    restore_router,
    routes_digest,
    run_fingerprint,
)
from repro.ckpt.store import FORMAT_VERSION, MAGIC
from repro.core import CrpConfig
from repro.flow import run_flow
from repro.groute import GlobalRouter
from repro.guard import FaultPlan, use_faults
from repro.obs import MetricsRegistry, use_metrics

SRC = str(Path(__file__).resolve().parent.parent / "src")
TESTS = str(Path(__file__).resolve().parent)


def routed_router(seed: int = 11):
    design = fresh_small(seed=seed)
    router = GlobalRouter(design)
    router.route_all()
    return design, router


def flow_signature(result):
    return (
        result.routes_digest,
        result.placement_digest,
        None
        if result.quality is None
        else (
            result.quality.wirelength_dbu,
            result.quality.vias,
            result.quality.drvs,
            result.quality.score,
        ),
    )


# ------------------------------------------------------------ atomic_write


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


# ----------------------------------------------------------------- store


class TestCheckpointStore:
    def make_state(self, seed: int = 11) -> tuple[dict, dict]:
        design, router = routed_router(seed)
        state = capture_state(design, router, stage="GR", iteration=0)
        meta = {"stage": "GR", "iteration": 0, "fingerprint": {"k": 1}}
        return meta, state

    def test_save_load_round_trip(self, tmp_path):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        path = store.save(meta, state)
        assert path.name == "ckpt-0000-GR0.ckpt"
        got_meta, got_state = store.load(path)
        assert got_meta["stage"] == "GR"
        assert got_meta["fingerprint"] == {"k": 1}
        assert got_state["routes"] == state["routes"]
        assert got_state["positions"] == state["positions"]

    def test_paths_are_sequence_ordered(self, tmp_path):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        for i in range(3):
            store.save({**meta, "stage": "CRP", "iteration": i}, state)
        names = [p.name for p in store.paths()]
        assert names == sorted(names)
        assert len(names) == 3

    def test_checksum_corruption_is_rejected(self, tmp_path):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        path = store.save(meta, state)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            store.load(path)

    # format 1 = the builds whose window solver took HiGHS's pick among
    # tied optima: resuming one here would match neither build's run;
    # format 2 payloads carry a ``router_ctor`` key the ctor dropped
    @pytest.mark.parametrize("version", [FORMAT_VERSION + 1, 1, 2])
    def test_version_mismatch_is_rejected(self, tmp_path, version):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        path = store.save(meta, state)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "big")
        header = json.loads(raw[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len])
        header["format"] = version
        encoded = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(
            MAGIC
            + len(encoded).to_bytes(8, "big")
            + encoded
            + raw[len(MAGIC) + 8 + header_len :]
        )
        with pytest.raises(CheckpointError, match="format"):
            store.load(path)

    def test_truncated_and_garbage_files_are_rejected(self, tmp_path):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        path = store.save(meta, state)
        path.write_bytes(path.read_bytes()[: len(MAGIC) + 4])
        with pytest.raises(CheckpointError):
            store.load(path)
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            store.load(path)

    def test_load_latest_skips_corrupt_and_reports(self, tmp_path):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        good = store.save({**meta, "iteration": 0}, state)
        bad = store.save({**meta, "iteration": 1}, state)
        blob = bytearray(bad.read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        got_meta, got_state, reports = store.load_latest({"k": 1})
        assert got_state is not None
        assert got_meta["iteration"] == 0  # newest valid one wins
        assert [r.stage for r in reports] == ["ckpt.load"]
        assert "CheckpointError" in reports[0].error_type

    def test_load_latest_skips_stale_fingerprint(self, tmp_path):
        meta, state = self.make_state()
        store = CheckpointStore(tmp_path)
        store.save(meta, state)
        got_meta, got_state, reports = store.load_latest({"k": 2})
        assert got_state is None and got_meta is None
        assert reports and reports[0].error_type == "StaleCheckpoint"


# ------------------------------------------------------------ fingerprint


class TestFingerprint:
    def test_checkpoint_dir_is_excluded(self):
        a = run_fingerprint("d", "crp", CrpConfig(seed=5))
        b = run_fingerprint(
            "d", "crp", CrpConfig(seed=5, checkpoint_dir="/x")
        )
        assert a == b
        assert "workers" not in a["config"]
        assert a["format"] == 3

    def test_result_relevant_knobs_are_included(self):
        a = run_fingerprint("d", "crp", CrpConfig(seed=5))
        assert a != run_fingerprint("d", "crp", CrpConfig(seed=6))
        assert a != run_fingerprint("d", "baseline", CrpConfig(seed=5))
        assert a != run_fingerprint("e", "crp", CrpConfig(seed=5))


# ------------------------------------------------------- state round trip


class TestStateRestore:
    def test_restore_reproduces_router_bit_for_bit(self):
        design, router = routed_router()
        state = capture_state(design, router, stage="GR", iteration=0)
        design2 = fresh_small(seed=11)
        restore_design(design2, state)
        router2 = restore_router(design2, state)
        assert routes_digest(router2) == routes_digest(router)
        assert positions_digest(design2) == positions_digest(design)
        for a, b in zip(router.graph.wire_usage, router2.graph.wire_usage):
            assert (a == b).all()
        for a, b in zip(router.graph.via_usage, router2.graph.via_usage):
            assert (a == b).all()

    def test_restore_design_rejects_unknown_cells(self):
        design, router = routed_router()
        state = capture_state(design, router, stage="GR", iteration=0)
        state["positions"]["__no_such_cell__"] = (0, 0, "N")
        with pytest.raises(ValueError, match="__no_such_cell__"):
            restore_design(fresh_small(seed=11), state)


# --------------------------------------------------------- flow + faults


class TestFlowCheckpointing:
    def run_crp(self, tmp_path=None, resume=False, k=2, **kwargs):
        return run_flow(
            fresh_small(seed=11),
            mode="crp",
            crp_iterations=k,
            config=CrpConfig(seed=5),
            checkpoint_dir=None if tmp_path is None else str(tmp_path),
            resume=resume,
            **kwargs,
        )

    def test_boundary_checkpoints_are_written(self, tmp_path):
        self.run_crp(tmp_path)
        names = [p.name for p in CheckpointStore(tmp_path).paths()]
        assert names == [
            "ckpt-0000-GR0.ckpt",
            "ckpt-0001-CRP1.ckpt",
            "ckpt-0002-CRP2.ckpt",
        ]

    def test_resume_from_intermediate_iteration_is_byte_identical(
        self, tmp_path
    ):
        ref = self.run_crp(tmp_path, k=3)
        store = CheckpointStore(tmp_path)
        for path in store.paths()[2:]:  # drop CRP2, CRP3: resume at CRP1
            path.unlink()
        resumed = self.run_crp(tmp_path, resume=True, k=3)
        assert resumed.resumed_from == "CRP:1"
        assert flow_signature(resumed) == flow_signature(ref)
        assert resumed.crp is not None
        assert len(resumed.crp.iterations) == 3  # restored + redone

    def test_resume_without_directory_raises(self):
        with pytest.raises(ValueError, match="checkpoint"):
            self.run_crp(None, resume=True)

    def test_write_fault_degrades_to_uncheckpointed_run(self, tmp_path):
        ref = self.run_crp()
        reg = MetricsRegistry()
        plan = FaultPlan().fail("ckpt.write", times=-1)
        with use_metrics(reg), use_faults(plan):
            result = self.run_crp(tmp_path)
        assert plan.fired("ckpt.write") >= 3
        assert not CheckpointStore(tmp_path).paths()
        assert not result.failed
        assert result.ckpt_failures
        assert all(r.stage == "ckpt.write" for r in result.ckpt_failures)
        assert flow_signature(result) == flow_signature(ref)
        assert reg.raw()["counters"]["ckpt.write_failures"] >= 3

    def test_load_fault_degrades_to_cold_start(self, tmp_path):
        ref = self.run_crp(tmp_path)
        plan = FaultPlan().fail("ckpt.load", times=-1)
        with use_faults(plan):
            result = self.run_crp(tmp_path, resume=True)
        assert plan.fired("ckpt.load") >= 1
        assert result.resumed_from is None  # every load failed -> cold
        assert not result.failed
        assert result.ckpt_failures
        assert flow_signature(result) == flow_signature(ref)


class TestSigkillResume:
    CHILD = textwrap.dedent(
        """
        import os, signal, sys
        sys.path.insert(0, {src!r})
        sys.path.insert(0, {tests!r})
        from helpers import fresh_small
        from repro.core import CrpConfig
        from repro.flow import run_flow
        from repro.guard import FaultPlan, install_faults

        class KillSelf(Exception):
            def __init__(self, *args):
                os.kill(os.getpid(), signal.SIGKILL)

        # First crp.select call (iteration 1) passes through untouched
        # (a forced None is ignored by select_moves); the second one —
        # mid-iteration 2, after the CRP:1 boundary checkpoint landed —
        # SIGKILLs the process: no atexit, no flushing, no mercy.
        plan = FaultPlan()
        plan.force("crp.select", None, times=1)
        plan.fail("crp.select", KillSelf, times=1)
        install_faults(plan)
        run_flow(
            fresh_small(seed=11),
            mode="crp",
            crp_iterations=3,
            config=CrpConfig(seed=5),
            checkpoint_dir={ckpt_dir!r},
        )
        """
    )

    def test_resume_after_sigkill_matches_uninterrupted_run(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD.format(
                src=SRC, tests=TESTS, ckpt_dir=str(ckpt_dir)
            )],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        names = [p.name for p in CheckpointStore(ckpt_dir).paths()]
        assert names == ["ckpt-0000-GR0.ckpt", "ckpt-0001-CRP1.ckpt"]

        resumed = run_flow(
            fresh_small(seed=11),
            mode="crp",
            crp_iterations=3,
            config=CrpConfig(seed=5),
            checkpoint_dir=str(ckpt_dir),
            resume=True,
        )
        assert resumed.resumed_from == "CRP:1"

        ref = run_flow(
            fresh_small(seed=11),
            mode="crp",
            crp_iterations=3,
            config=CrpConfig(seed=5),
        )
        assert flow_signature(resumed) == flow_signature(ref)

