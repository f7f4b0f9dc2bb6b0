"""Runtime accounting for the Fig. 2 / Fig. 3 benchmarks.

Every number here is read off a flow's span tree (``FlowResult.trace``):
``FlowResult.runtime`` holds the ``flow.*`` stage walls, and the CR&P
steps are the ``crp.<step>`` children of every ``crp.iteration`` span
under ``flow.CRP`` (whose last child, ``groute.repair``, is no step).
"""

from __future__ import annotations

from repro.flow.pipeline import FlowResult

#: Fig. 3 stage labels, in the paper's plotting order.
FIG3_STAGES = ("GR", "GCP", "ECC", "UD", "Misc", "DR")

#: Per-iteration CR&P step spans (``crp.<key>``) every breakdown must have.
CRP_STEP_KEYS = ("label", "GCP", "ECC", "ILP", "UD")


def runtime_breakdown_pct(result: FlowResult) -> dict[str, float]:
    """Percentage runtime per Fig. 3 stage for one CR&P flow run.

    ``GCP`` = candidate generation, ``ECC`` = candidate cost estimation,
    ``UD`` = database update, ``Misc`` = labeling + selection ILP; GR
    and DR are the routing stages around CR&P.

    Raises :class:`KeyError` when the trace has a ``flow.CRP`` span but
    its iterations lack any of the five step spans — a silent all-zero
    answer here used to hide instrumentation bugs.
    """
    runtime = result.runtime
    seconds: dict[str, float] = {stage: 0.0 for stage in FIG3_STAGES}
    seconds["GR"] = runtime.get("GR", 0.0)
    seconds["DR"] = runtime.get("DR", 0.0)
    crp = result.trace.find("flow.CRP") if result.trace is not None else None
    if crp is not None:
        steps: dict[str, float] = {}
        for iteration in crp.children:
            if iteration.name != "crp.iteration":
                continue  # the hand-off ``groute.repair``: no Fig. 3 step
            for name, wall in iteration.child_walls().items():
                key = name.removeprefix("crp.")
                steps[key] = steps.get(key, 0.0) + wall
        missing = [key for key in CRP_STEP_KEYS if key not in steps]
        if missing:
            raise KeyError(
                f"CR&P runtime breakdown is missing step spans {missing}; "
                f"got keys {sorted(steps)}"
            )
        seconds["GCP"] = steps["GCP"]
        seconds["ECC"] = steps["ECC"]
        seconds["UD"] = steps["UD"]
        seconds["Misc"] = steps["label"] + steps["ILP"]
    total = sum(seconds.values())
    if total <= 0:
        return {stage: 0.0 for stage in FIG3_STAGES}
    return {stage: 100.0 * s / total for stage, s in seconds.items()}
