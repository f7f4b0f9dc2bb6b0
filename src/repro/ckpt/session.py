"""The flow-facing checkpoint driver (``FlowCheckpointer``).

``run_flow`` owns one of these per checkpointed run.  It decides what a
run's *fingerprint* is (design, mode and the result-affecting config
knobs), writes a checkpoint at every stage / CR&P-iteration boundary,
and loads the newest compatible checkpoint on ``--resume``.

Failure policy, in both directions, is *the flow outlives the
checkpoint layer*:

* a failed write (bad disk, armed ``ckpt.write`` fault) counts
  ``ckpt.write_failures``, lands as a :class:`FailureReport` on
  ``FlowResult.ckpt_failures``, and the run continues un-checkpointed;
* a corrupt/stale checkpoint on load is skipped (older ones are tried)
  and reported the same way — resume degrades to a cold start instead
  of crashing.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING

from repro.ckpt.state import capture_state
from repro.ckpt.store import FORMAT_VERSION, CheckpointStore
from repro.guard.report import FailureReport
from repro.obs import get_metrics, get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core import CrpConfig
    from repro.db import Design
    from repro.groute import GlobalRouter

#: config fields that do not change results and must not make an
#: otherwise-valid checkpoint look stale
_FINGERPRINT_EXCLUDED = ("checkpoint_dir",)


def run_fingerprint(
    design_name: str, mode: str, config: "CrpConfig"
) -> dict:
    """The JSON-able identity of one run's result-relevant inputs.

    The iteration budget ``k`` is deliberately absent: the CR&P
    trajectory up to iteration ``i`` does not depend on ``k``, so a
    checkpoint written at iteration ``i`` of a ``k=1`` run is
    byte-identical to one from a ``k=10`` run — resuming across
    different ``-k`` values is valid (and useful for extending runs).
    """
    cfg = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in _FINGERPRINT_EXCLUDED
    }
    return {
        "format": FORMAT_VERSION,
        "design": design_name,
        "mode": mode,
        "config": cfg,
    }


class FlowCheckpointer:
    """Checkpoint writer/loader bound to one ``run_flow`` invocation."""

    def __init__(
        self,
        directory: str | Path,
        design: "Design",
        mode: str,
        config: "CrpConfig",
    ) -> None:
        self.store = CheckpointStore(directory)
        self.design = design
        self.fingerprint = run_fingerprint(design.name, mode, config)
        #: write/load problems encountered so far (surfaced on the
        #: FlowResult — informational, never fatal)
        self.failures: list[FailureReport] = []

    def save_boundary(
        self,
        *,
        stage: str,
        iteration: int,
        router: "GlobalRouter",
        rng_state: object | None = None,
        crp_stats: list | None = None,
        runtime: dict | None = None,
    ) -> Path | None:
        """Checkpoint one boundary; absorbs (and reports) any failure."""
        metrics = get_metrics()
        with get_tracer().span("ckpt.write", stage=stage, iteration=iteration):
            try:
                state = capture_state(
                    self.design,
                    router,
                    stage=stage,
                    iteration=iteration,
                    rng_state=rng_state,
                    crp_stats=crp_stats,
                    runtime=runtime,
                    metrics_raw=metrics.raw(),
                )
                return self.store.save(
                    {
                        "stage": stage,
                        "iteration": iteration,
                        "fingerprint": self.fingerprint,
                    },
                    state,
                )
            except Exception as exc:  # repro: noqa:REPRO-G002 — checkpointing must never kill the run it protects
                metrics.count("ckpt.write_failures")
                self.failures.append(
                    FailureReport.from_exception("ckpt.write", exc)
                )
                return None

    def load_resume(self) -> dict | None:
        """The newest compatible state, or ``None`` for a cold start."""
        metrics = get_metrics()
        with get_tracer().span("ckpt.load"):
            meta, state, reports = self.store.load_latest(self.fingerprint)
        self.failures.extend(reports)
        if state is None:
            metrics.count("ckpt.resume_misses")
            return None
        metrics.count("ckpt.resumes")
        metrics.gauge("ckpt.resume_iteration", float(meta.get("iteration", 0)))
        return state
