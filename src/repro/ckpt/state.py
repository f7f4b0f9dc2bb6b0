"""Flow-state snapshot & restore for checkpoint/resume.

A checkpoint captures everything the flow needs to continue from a
stage or CR&P-iteration boundary with *byte-identical* downstream
results:

* cell positions (plus the CR&P critical/moved history sets the
  labeling step's ``hist_c``/``hist_m`` terms read),
* every committed route (edges + terminals) and the graph's wire/via
  demand arrays,
* the router's constructor arguments, so the restored router is built
  with the same grid/cost configuration,
* the CR&P framework's RNG state and completed-iteration stats,
* the flow's per-stage runtimes and accumulated obs metrics.

Restore rebuilds a fresh :class:`GlobalRouter` over the restored
design, overwrites its demand arrays with the saved ones (integer
route increments on float64 arrays are exact, so saved demand equals
replayed demand bit-for-bit), reinstalls the committed routes, and
invalidates the cost field so every derived cost is recomputed from
identical inputs.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.db import Design
    from repro.groute import GlobalRouter

#: pickle protocol used for digests (must stay fixed for comparability)
DIGEST_PROTOCOL = 4


def capture_state(
    design: "Design",
    router: "GlobalRouter",
    *,
    stage: str,
    iteration: int = 0,
    rng_state: object | None = None,
    crp_stats: list | None = None,
    runtime: dict | None = None,
    metrics_raw: dict | None = None,
) -> dict:
    """Snapshot the flow state at a stage/iteration boundary."""
    graph = router.graph
    return {
        "stage": stage,
        "iteration": iteration,
        "design": design.name,
        "positions": {
            name: (cell.x, cell.y, cell.orient)
            for name, cell in design.cells.items()
        },
        "critical_history": sorted(design.critical_history),
        "moved_history": sorted(design.moved_history),
        "routes": {
            name: (tuple(sorted(route.edges)), tuple(route.terminals))
            for name, route in router.routes.items()
        },
        "wire_usage": [arr.copy() for arr in graph.wire_usage],
        "via_usage": [arr.copy() for arr in graph.via_usage],
        "router_ctor": dict(router.ctor_args),
        "rng_state": rng_state,
        "crp_stats": list(crp_stats or []),
        "runtime": dict(runtime or {}),
        "metrics_raw": metrics_raw,
    }


def restore_design(design: "Design", state: dict) -> None:
    """Reinstate cell positions and CR&P history sets from ``state``."""
    for name, (x, y, orient) in state["positions"].items():
        cell = design.cells.get(name)
        if cell is None:
            raise ValueError(f"checkpoint references unknown cell {name!r}")
        if (cell.x, cell.y, cell.orient) != (x, y, orient):
            design.move_cell(name, x, y, orient)
    design.critical_history = set(state["critical_history"])
    design.moved_history = set(state["moved_history"])


def restore_router(design: "Design", state: dict) -> "GlobalRouter":
    """Rebuild a router carrying the checkpointed routing state.

    ``restore_design`` must run first so the router's fixed-usage and
    terminal queries see the checkpointed placement.
    """
    from repro.groute import GlobalRouter

    router = GlobalRouter(design, **state["router_ctor"])
    return install_routes(router, state)


def install_routes(router: "GlobalRouter", state: dict) -> "GlobalRouter":
    """Overwrite a virgin router's routes + demand with ``state``'s."""
    from repro.groute.router import NetRoute

    graph = router.graph
    for arr, saved in zip(graph.wire_usage, state["wire_usage"]):
        arr[:] = saved
    for arr, saved in zip(graph.via_usage, state["via_usage"]):
        arr[:] = saved
    router.routes.clear()
    router._edge_nets.clear()
    for name, (edges, terminals) in state["routes"].items():
        route = NetRoute(net=name, edges=set(edges), terminals=list(terminals))
        router.routes[name] = route
        for edge in route.edges:
            router._edge_nets.setdefault(edge, set()).add(name)
    router.invalidate_cost_fields()
    return router


# ----------------------------------------------------------------- digests


def routes_digest(router: "GlobalRouter") -> str:
    """SHA-256 over the canonical committed-routes serialization.

    Used by the parity tests and the CI ``ckpt`` job to assert that a
    resumed run's final routes are byte-identical to an uninterrupted
    run's.
    """
    canon = tuple(
        (name, tuple(sorted(router.routes[name].edges)))
        for name in sorted(router.routes)
    )
    return hashlib.sha256(
        pickle.dumps(canon, protocol=DIGEST_PROTOCOL)
    ).hexdigest()


def positions_digest(design: "Design") -> str:
    """SHA-256 over the canonical cell-placement serialization."""
    canon = tuple(
        (name, cell.x, cell.y, cell.orient.value)
        for name, cell in sorted(design.cells.items())
    )
    return hashlib.sha256(
        pickle.dumps(canon, protocol=DIGEST_PROTOCOL)
    ).hexdigest()
