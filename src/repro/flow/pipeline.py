"""Flow orchestration: GR -> (CR&P | [18] | nothing) -> DR -> evaluate.

Stage timing is recorded as ``repro.obs`` spans (``flow.run`` ->
``flow.GR`` / ``flow.CRP`` / ``flow.BASELINE`` / ``flow.DR``; a movement
stage ends with GR's ``groute.repair``), and
every result carries that span tree plus a metrics snapshot.  The tree
is the only record of time: ``FlowResult.runtime`` is a view of it.

Stages are fault-isolated (``repro.guard``): an exception inside a
stage marks ``FlowResult.failed`` with a :class:`FailureReport`
(stage, exception, traceback, partial metrics) instead of crashing, so
callers always get back whatever the flow managed to produce.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.db import Design, check_legality
from repro.groute import GlobalRouter
from repro.droute import DetailedRouter
from repro.evalmetrics import QualityScore, evaluate
from repro.core import CrpConfig, CrpFramework, CrpResult
from repro.baseline import FontanaBaseline, FontanaResult
import repro.ckpt as ckpt
from repro.guard import FailureReport, gc_paused
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
    legal: bool = True
    failed: bool = False
    #: what killed the failing stage, when ``failed`` is set
    failure: FailureReport | None = None
    #: SHA-256 of the canonical final committed-routes serialization
    #: (``repro.ckpt.routes_digest``) — what the digest pins and the
    #: benchmark's repetition gate compare byte-for-byte
    routes_digest: str | None = None
    #: SHA-256 of the canonical final cell placement
    placement_digest: str | None = None
    #: the ``flow.run`` span tree this run recorded
    trace: Span | None = None
    #: metrics snapshot at flow end (cumulative within an ``observe()``)
    metrics: dict[str, dict[str, object]] | None = None

    @property
    def runtime(self) -> dict[str, float]:
        """Wall clock per stage that ran (``GR``, ``CRP`` or ``BASELINE``,
        ``DR``): the ``flow.<stage>`` children of ``trace``."""
        if self.trace is None:
            return {}
        return {
            name.removeprefix("flow."): wall
            for name, wall in self.trace.child_walls().items()
        }

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
    skip_detailed: bool = False,
) -> FlowResult:
    """Run the full flow on ``design``.

    ``mode`` is ``baseline`` (GR + DR only), ``crp`` (GR + CR&P x k +
    DR), or ``fontana`` (GR + [18] + DR).  ``skip_detailed`` stops after
    the movement stage for GR-level experiments.  A stage that raises
    fails the flow with a :class:`FailureReport` rather than crashing.
    """
    if mode not in ("baseline", "crp", "fontana"):
        raise ValueError(f"unknown flow mode {mode!r}")
    config = config or CrpConfig()
    config.validate()  # a bad knob fails here, not after GR has run
    result = FlowResult(
        design=design.name,
        mode=mode,
        crp_iterations=crp_iterations if mode == "crp" else 0,
    )
    with ensure_observation() as obs:
        tracer = obs.tracer
        with tracer.span("flow.run", design=design.name, mode=mode) as root:
            _run_stages(
                design, mode, crp_iterations, config, skip_detailed,
                result, tracer, obs.metrics,
            )
        result.trace = root
        result.metrics = obs.metrics.snapshot()
    return result


@contextmanager
def _stage(result: FlowResult, name: str, metrics) -> Iterator[None]:
    """Isolate one stage: convert its death to a FailureReport."""
    try:
        yield
    except Exception as exc:  # repro: noqa:REPRO-G002 — isolation is the point; a dead stage becomes a FailureReport, not a crash
        result.failed = True
        result.failure = FailureReport.from_exception(
            name, exc, metrics=metrics.snapshot()
        )
        metrics.count("flow.stage_failures")
        metrics.count(f"flow.failed.{name}")


def _run_stages(
    design: Design,
    mode: str,
    crp_iterations: int,
    config: CrpConfig | None,
    skip_detailed: bool,
    result: FlowResult,
    tracer,
    metrics,
) -> None:
    """The stage sequence, inside the open ``flow.run`` span."""
    with tracer.span("flow.GR"), _stage(result, "GR", metrics):
        router = GlobalRouter(design)
        router.route_all()
    if result.failed:
        return

    # The movement stage ends with the repair of the reported overflow it
    # left, so DR gets guides GR would have handed it (DESIGN.md, "Two
    # overflows").
    if mode == "crp":
        framework = CrpFramework(design, router, config)
        with tracer.span("flow.CRP"), _stage(result, "CRP", metrics):
            result.crp = framework.run(crp_iterations)
            unrepaired = router.repair_overflow()
        if result.failed:
            return
    elif mode == "fontana":
        baseline = FontanaBaseline(design, router)
        with tracer.span("flow.BASELINE"), _stage(result, "BASELINE", metrics):
            result.fontana = baseline.run()
            unrepaired = router.repair_overflow()
        if result.failed:
            return
    else:
        unrepaired = router.total_overflow()

    result.gr_wirelength_dbu = router.total_wirelength_dbu()
    result.gr_vias = router.total_vias()
    result.gr_overflow = router.total_overflow()
    # Read off the package at call time: the benchmark's tracer wraps
    # these two names on ``repro.ckpt`` to time ``ckpt.digest``.
    result.routes_digest = ckpt.routes_digest(router)
    result.placement_digest = ckpt.positions_digest(design)
    result.legal = check_legality(design).is_legal
    metrics.gauge("flow.gr_overflow", result.gr_overflow)
    metrics.gauge("flow.gr_overflow_unrepaired", unrepaired)
    if not result.legal:
        # An illegal post-movement placement must be loud: counted here,
        # flagged in summary(), and turned into a non-zero CLI exit.
        metrics.count("flow.illegal")

    if skip_detailed:
        return

    with tracer.span("flow.DR"), _stage(result, "DR", metrics):
        guides = router.guides()
        detailed = DetailedRouter(design)
        dr_result = detailed.route_all(guides)
        result.quality = evaluate(design.name, design.tech, dr_result)
