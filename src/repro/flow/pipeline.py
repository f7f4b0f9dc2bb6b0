"""Flow orchestration: GR -> (CR&P | [18] | nothing) -> DR -> evaluate.

Stage timing is recorded as ``repro.obs`` spans (``flow.run`` ->
``flow.GR`` / ``flow.CRP`` / ``flow.BASELINE`` / ``flow.DR``); the
``FlowResult.runtime`` dict keeps its historical shape but is populated
from those spans, and every result carries the full span tree plus a
metrics snapshot for the profiling exporters.

Stages are fault-isolated (``repro.guard``): an exception — or a
deadline expiry under ``budget_s`` / ``stage_budget_s`` — inside a
stage marks ``FlowResult.failed`` with a :class:`FailureReport`
(stage, exception, traceback, partial metrics) instead of crashing, so
callers always get back whatever the flow managed to produce.  Each
stage also passes a ``fault_point`` (``flow.GR`` etc.) so the recovery
paths are testable.

Crash durability (``repro.ckpt``): with ``checkpoint_dir`` set the
flow writes an atomic, checksummed checkpoint after global routing and
after every CR&P iteration; ``resume=True`` restores the newest
compatible checkpoint and continues from that boundary with
byte-identical final routes, positions, and quality.  Corrupt or stale
checkpoints are skipped (reported on ``FlowResult.ckpt_failures``),
and a failed checkpoint *write* never kills the run it protects.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.db import Design, check_legality
from repro.groute import GlobalRouter
from repro.droute import DetailedRouter
from repro.evalmetrics import QualityScore, evaluate
from repro.core import CrpConfig, CrpFramework, CrpResult
from repro.baseline import FontanaBaseline, FontanaResult
from repro.guard import (
    FailureReport,
    GuardPolicy,
    deadline_scope,
    fault_point,
    gc_paused,
)
from repro.obs import Span, ensure_observation


@dataclass(slots=True)
class FlowResult:
    """Everything one flow run produces."""

    design: str
    mode: str
    crp_iterations: int = 0
    gr_wirelength_dbu: int = 0
    gr_vias: int = 0
    gr_overflow: float = 0.0
    quality: QualityScore | None = None
    crp: CrpResult | None = None
    fontana: FontanaResult | None = None
    #: wall clock per stage: GR, CRP (or BASELINE), DR — backed by ``trace``
    runtime: dict[str, float] = field(default_factory=dict)
    legal: bool = True
    failed: bool = False
    #: what killed the failing stage, when ``failed`` is set
    failure: FailureReport | None = None
    #: ``"<stage>:<iteration>"`` of the checkpoint this run resumed
    #: from, or ``None`` for a cold start
    resumed_from: str | None = None
    #: SHA-256 of the canonical final committed-routes serialization
    #: (``repro.ckpt.routes_digest``) — what the resume-parity tests and
    #: the CI ``ckpt`` job compare byte-for-byte
    routes_digest: str | None = None
    #: SHA-256 of the canonical final cell placement
    placement_digest: str | None = None
    #: non-fatal checkpoint problems (corrupt/stale files skipped on
    #: load, failed writes) — informational, the run continued
    ckpt_failures: list[FailureReport] = field(default_factory=list)
    #: the ``flow.run`` span tree this run recorded
    trace: Span | None = None
    #: metrics snapshot at flow end (cumulative within an ``observe()``)
    metrics: dict[str, dict[str, object]] | None = None

    @property
    def total_runtime(self) -> float:
        return sum(self.runtime.values())

    def summary(self) -> str:
        if self.failed:
            body = (
                f"FAILED[{self.failure.summary()}]"
                if self.failure is not None
                else "FAILED"
            )
        elif self.quality is not None:
            q = self.quality
            body = f"wl={q.wirelength_dbu} vias={q.vias} drvs={q.drvs}"
        else:
            # GR-level run (e.g. skip_detailed): report router stats
            # instead of printing a literal "None".
            body = (
                f"gr_wl={self.gr_wirelength_dbu} gr_vias={self.gr_vias} "
                f"gr_overflow={self.gr_overflow:.1f}"
            )
        warning = "" if self.legal else " !ILLEGAL-PLACEMENT"
        return (
            f"{self.design} [{self.mode}"
            f"{f' k={self.crp_iterations}' if self.crp_iterations else ''}] "
            f"{body} "
            f"({self.total_runtime:.1f}s){warning}"
        )


@gc_paused()
def run_flow(
    design: Design,
    mode: str = "baseline",
    crp_iterations: int = 1,
    config: CrpConfig | None = None,
    baseline_budget_s: float | None = None,
    rrr_passes: int = 3,
    skip_detailed: bool = False,
    budget_s: float | None = None,
    stage_budget_s: float | None = None,
    guard: GuardPolicy | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> FlowResult:
    """Run the full flow on ``design``.

    ``mode`` is ``baseline`` (GR + DR only), ``crp`` (GR + CR&P x k +
    DR), or ``fontana`` (GR + [18] + DR).  ``skip_detailed`` stops after
    the movement stage for GR-level experiments.  ``budget_s`` bounds
    the whole flow's wall clock and ``stage_budget_s`` each stage's;
    expiry fails the stage (with a :class:`FailureReport`) rather than
    hanging.  ``guard`` tunes the CR&P iteration transaction.

    ``checkpoint_dir`` enables ``repro.ckpt`` durability: a checkpoint
    is written after GR and after every CR&P iteration (falls back to
    ``config.checkpoint_dir``, which itself reads
    ``CRP_CHECKPOINT_DIR``).  With ``resume=True`` the newest
    compatible checkpoint in that directory is restored and the flow
    continues from its boundary — final routes, positions, and quality
    are byte-identical to an uninterrupted run.
    """
    if mode not in ("baseline", "crp", "fontana"):
        raise ValueError(f"unknown flow mode {mode!r}")
    config = config or CrpConfig()
    config.validate()  # a bad knob fails here, not after GR has run
    if checkpoint_dir is None:
        checkpoint_dir = config.checkpoint_dir
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    result = FlowResult(
        design=design.name,
        mode=mode,
        crp_iterations=crp_iterations if mode == "crp" else 0,
    )
    ckpt = None
    if checkpoint_dir is not None:
        from repro.ckpt import FlowCheckpointer

        ckpt = FlowCheckpointer(checkpoint_dir, design, mode, config)
    try:
        with ensure_observation() as obs:
            tracer = obs.tracer
            with tracer.span(
                "flow.run", design=design.name, mode=mode
            ) as root:
                with deadline_scope(budget_s, name="flow.run"):
                    _run_stages(
                        design, mode, crp_iterations, config,
                        baseline_budget_s, rrr_passes, skip_detailed,
                        stage_budget_s, guard, result, tracer, obs.metrics,
                        ckpt, resume,
                    )
            result.trace = root
            result.metrics = obs.metrics.snapshot()
    finally:
        if ckpt is not None:
            result.ckpt_failures.extend(ckpt.failures)
    return result


@contextmanager
def _stage(result: FlowResult, name: str, metrics, budget_s: float | None) -> Iterator[None]:
    """Isolate one stage: budget it, and convert death to a FailureReport.

    The stage body must call ``fault_point("flow.<name>")`` as its first
    statement (a context manager cannot raise before its ``yield``).
    """
    try:
        with deadline_scope(budget_s, name=f"flow.{name}"):
            yield
    except Exception as exc:  # repro: noqa:REPRO-G002 — isolation is the point; expiry becomes a FailureReport, not a hang
        result.failed = True
        result.failure = FailureReport.from_exception(
            name, exc, metrics=metrics.snapshot()
        )
        metrics.count("flow.stage_failures")
        metrics.count(f"flow.failed.{name}")


def _restore_from_checkpoint(
    design: Design,
    result: FlowResult,
    tracer,
    metrics,
    ckpt,
) -> tuple[GlobalRouter | None, dict | None]:
    """Try to resume: ``(restored router, state)`` or ``(None, None)``.

    Any restore failure — on top of the corrupt/stale skipping the
    store already does — degrades to a cold start (reported on
    ``FlowResult.ckpt_failures``), never a crash: a broken checkpoint
    must not be able to take down the run it was meant to protect.
    """
    from repro.ckpt import restore_design, restore_router
    from repro.guard import FailureReport

    with tracer.span("ckpt.restore"):
        state = ckpt.load_resume()
        if state is None:
            return None, None
        try:
            restore_design(design, state)
            router = restore_router(design, state)
        except Exception as exc:  # repro: noqa:REPRO-G002 — a bad restore degrades to a cold start, reported not raised
            metrics.count("ckpt.restore_failures")
            ckpt.failures.append(
                FailureReport.from_exception("ckpt.restore", exc)
            )
            return None, None
    saved_raw = state.get("metrics_raw")
    if saved_raw:
        metrics.merge_raw(saved_raw)
    result.runtime.update(state.get("runtime", {}))
    result.resumed_from = f"{state['stage']}:{state['iteration']}"
    metrics.count("ckpt.restores")
    return router, state


def _run_stages(
    design: Design,
    mode: str,
    crp_iterations: int,
    config: CrpConfig | None,
    baseline_budget_s: float | None,
    rrr_passes: int,
    skip_detailed: bool,
    stage_budget_s: float | None,
    guard: GuardPolicy | None,
    result: FlowResult,
    tracer,
    metrics,
    ckpt=None,
    resume: bool = False,
) -> None:
    """The stage sequence, inside the open ``flow.run`` span."""
    router: GlobalRouter | None = None
    restored: dict | None = None
    if ckpt is not None and resume:
        router, restored = _restore_from_checkpoint(
            design, result, tracer, metrics, ckpt
        )
    if router is None:
        with tracer.span("flow.GR") as sp, _stage(
            result, "GR", metrics, stage_budget_s
        ):
            fault_point("flow.GR")
            router = GlobalRouter(design)
            router.route_all(rrr_passes=rrr_passes)
        result.runtime["GR"] = sp.wall_s
        if result.failed:
            return
        if ckpt is not None:
            ckpt.save_boundary(
                stage="GR", iteration=0, router=router,
                runtime=result.runtime,
            )

    if mode == "crp":
        framework = CrpFramework(design, router, config, guard=guard)
        start = 0
        prior_stats: list = []
        if restored is not None:
            start = int(restored["iteration"])
            prior_stats = list(restored["crp_stats"])
            if restored["rng_state"] is not None:
                framework.set_rng_state(restored["rng_state"])
        on_iteration = None
        if ckpt is not None:
            new_stats: list = []

            def on_iteration(k: int, stats) -> None:
                new_stats.append(stats)
                ckpt.save_boundary(
                    stage="CRP", iteration=k + 1, router=router,
                    rng_state=framework.rng_state(),
                    crp_stats=prior_stats + new_stats,
                    runtime=result.runtime,
                )
        with tracer.span("flow.CRP") as sp, _stage(
            result, "CRP", metrics, stage_budget_s
        ):
            fault_point("flow.CRP")
            result.crp = framework.run(
                crp_iterations, start=start, on_iteration=on_iteration
            )
        if result.crp is not None and prior_stats:
            result.crp.iterations[:0] = prior_stats
        result.runtime["CRP"] = (
            result.runtime.get("CRP", 0.0) + sp.wall_s
        )
        if result.failed:
            return
    elif mode == "fontana":
        baseline = FontanaBaseline(
            design, router, time_budget_s=baseline_budget_s
        )
        with tracer.span("flow.BASELINE") as sp, _stage(
            result, "BASELINE", metrics, stage_budget_s
        ):
            fault_point("flow.BASELINE")
            result.fontana = baseline.run()
        result.runtime["BASELINE"] = sp.wall_s
        if result.failed:
            return
        if result.fontana.failed:
            result.failed = True
            result.failure = FailureReport(
                stage="BASELINE",
                error_type="TimeBudgetExceeded",
                message="the [18] baseline exhausted its time budget",
                metrics=metrics.snapshot(),
            )
            return

    result.gr_wirelength_dbu = router.total_wirelength_dbu()
    result.gr_vias = router.total_vias()
    result.gr_overflow = router.total_overflow()
    from repro.ckpt import positions_digest, routes_digest

    result.routes_digest = routes_digest(router)
    result.placement_digest = positions_digest(design)
    result.legal = check_legality(design).is_legal
    metrics.gauge("flow.gr_overflow", result.gr_overflow)
    if not result.legal:
        # An illegal post-movement placement must be loud: counted here,
        # flagged in summary(), and turned into a non-zero CLI exit.
        metrics.count("flow.illegal")

    if skip_detailed:
        return

    with tracer.span("flow.DR") as sp, _stage(result, "DR", metrics, stage_budget_s):
        fault_point("flow.DR")
        guides = router.guides()
        detailed = DetailedRouter(design)
        dr_result = detailed.route_all(guides)
        result.quality = evaluate(design.name, design.tech, dr_result)
    result.runtime["DR"] = sp.wall_s
