"""Worker-process side of the parallel executor.

Each worker owns a full replica of the parent's routing state: the
pickled :class:`~repro.db.Design` plus a :class:`GlobalRouter` rebuilt
with the parent's constructor arguments.  The replica is kept
bit-identical by replaying the parent's append-only mutation log
(route commits/rip-ups, cell moves, full array resyncs) in order
before every task — integer increments on float64 arrays are exact, so
replayed demand equals parent demand bit-for-bit, and the PR 4
cost-field parity discipline then makes every derived cost identical.

The compute functions here are *pure with respect to committed state*:
they read the replica and return candidate results without committing
anything (maze computation temporarily rips the net's own route and
restores it before returning).  The parent's serial fallback calls the
same functions against the live router, which is what makes
``workers=1`` and ``workers=N`` byte-identical by construction.

Spawn-safety: this module keeps no module-level mutable state — every
worker's state lives in a :class:`WorkerState` local to
:func:`worker_main` — and is importable without side effects, so it
works under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import TYPE_CHECKING

from repro.guard.deadline import DeadlineExceeded, deadline_scope
from repro.obs import get_metrics
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.groute import GlobalRouter

Node = tuple[int, int, int]

#: queue message tags, parent -> worker
MSG_TASK = "task"
MSG_STOP = "stop"
#: queue message tags, worker -> parent
RES_OK = "ok"
RES_DEADLINE = "deadline"
RES_ERR = "err"

#: seconds between heartbeat writes; the parent's hang timeout is many
#: multiples of this, so a single missed beat never looks like a hang
HEARTBEAT_S = 0.5


class WorkerState:
    """One worker's routing replica plus per-process caches."""

    __slots__ = ("router", "droute", "_estimate_models", "_ecc")

    def __init__(self, router: "GlobalRouter") -> None:
        self.router = router
        #: DetailedRouter replica of the parent's open droute session
        #: (built by a ``("ds", ...)`` log entry), or None outside one
        self.droute = None
        self._estimate_models: dict[bool, tuple[object, object]] = {}
        #: (epoch, EccCache) for the current ECC fan-out, or None.  The
        #: epoch token ties the cache to one ``run_estimates`` call so
        #: chunks of the same iteration share pricing work while a new
        #: iteration (new epoch) always starts clean.
        self._ecc: tuple[object, object] | None = None

    def ecc_cache(self, epoch: object):
        """The iteration-scoped ECC pricing cache for ``epoch``."""
        if self._ecc is None or self._ecc[0] != epoch:
            from repro.core.fastecc import EccCache

            self._ecc = (epoch, EccCache())
        return self._ecc[1]

    def estimate_models(self, use_penalty: bool) -> tuple[object, object]:
        """(CostModel, CostField) pair for candidate estimation.

        Mirrors :class:`CrpFramework`'s ablation setup: ``use_penalty=
        False`` prices congestion-blind with a fresh model/field pair
        over the same graph, built once per process.
        """
        return estimate_models_for(
            self.router, use_penalty, self._estimate_models
        )


def estimate_models_for(
    router: "GlobalRouter",
    use_penalty: bool,
    cache: dict[bool, tuple[object, object]],
) -> tuple[object, object]:
    """Cached estimation model/field pair (shared with the parent path)."""
    pair = cache.get(use_penalty)
    if pair is not None:
        return pair
    if use_penalty:
        pair = (router.cost, router.field)
    else:
        from repro.grid import CostField, CostModel, CostParams

        params = CostParams(
            wire_weight=router.cost.params.wire_weight,
            via_weight=router.cost.params.via_weight,
            slope=router.cost.params.slope,
            use_penalty=False,
        )
        pair = (
            CostModel(router.graph, params),
            CostField(router.graph, params),
        )
    cache[use_penalty] = pair
    return pair


# ------------------------------------------------------------------ replica


def build_router(payload: bytes) -> "GlobalRouter":
    """Rebuild the routing state from the parent's init payload."""
    from repro.groute import GlobalRouter

    design, ctor_args = pickle.loads(payload)
    return GlobalRouter(design, **ctor_args)


def apply_entries(state: WorkerState, entries: tuple) -> None:
    """Replay a slice of the parent's mutation log, in order.

    Entry forms:

    * ``("r", edges, sign)`` — a route commit (+1) or rip-up (-1),
      replayed through :meth:`RoutingGraph.apply_route` so the cost
      field sees the same per-edge notifications as the parent's.
    * ``("m", name, x, y, orient)`` — one cell move.
    * ``("a", wire, via, positions)`` — full resync: overwrite the
      usage arrays and cell positions, then invalidate the cost field
      (the parent emits this when something mutated arrays behind the
      graph's back, e.g. a transaction rollback's belt-and-braces
      invalidation).
    * ``("ds", ctor_args, guides)`` — open a detailed-routing session:
      build a fresh :class:`DetailedRouter` replica over the replica
      design (cell positions are already synced by the preceding move
      entries) and begin a session with the parent's guides.
    * ``("dn", name, used)`` — one committed detailed-routed net:
      mark its nodes used and release its reservations, exactly as the
      parent's commit did.
    """
    router = state.router
    if entries:
        # Any replayed mutation can shift pin points (cell moves) or
        # wire-cost map values (route/array entries); the ECC cache's
        # memos key on neither, so drop it wholesale.
        state._ecc = None
    for entry in entries:
        tag = entry[0]
        if tag == "r":
            router.graph.apply_route(list(entry[1]), entry[2])
        elif tag == "m":
            router.design.move_cell(entry[1], entry[2], entry[3], entry[4])
        elif tag == "a":
            _, wire, via, positions = entry
            for arr, new in zip(router.graph.wire_usage, wire):
                arr[:] = new
            for arr, new in zip(router.graph.via_usage, via):
                arr[:] = new
            if positions:
                cells = router.design.cells
                for name in sorted(positions):
                    x, y, orient = positions[name]
                    cell = cells[name]
                    if (cell.x, cell.y, cell.orient) != (x, y, orient):
                        router.design.move_cell(name, x, y, orient)
            router.invalidate_cost_fields()
        elif tag == "ds":
            from repro.droute.router import DetailedRouter

            droute = DetailedRouter(router.design, **entry[1])
            droute.begin_session(entry[2])
            state.droute = droute
        elif tag == "dn":
            state.droute.replay_commit(entry[1], list(entry[2]))
        else:  # pragma: no cover - protocol error
            raise ValueError(f"unknown log entry tag {tag!r}")


# ------------------------------------------------------- pure compute fns


def compute_pattern_route(
    router: "GlobalRouter", net_name: str
) -> tuple[tuple, tuple]:
    """RSMT + 3D pattern route of one net, without committing.

    Identical to the compute half of :meth:`GlobalRouter.route_net`;
    the caller owns the commit.
    """
    net = router.design.nets[net_name]
    terminals = router.terminals_of(net)
    edges = router._route_tree(terminals) if len(terminals) > 1 else set()
    return tuple(sorted(edges)), tuple(terminals)


def compute_maze_route(
    router: "GlobalRouter", net_name: str, old_edges: tuple
) -> tuple[tuple, tuple]:
    """Overflow-averse maze route of one net, without committing.

    Identical to the compute half of :meth:`GlobalRouter._maze_reroute`:
    the net's own committed route is ripped locally so the search does
    not price against itself, and restored before returning (net-zero
    on the replica's arrays, so replicas stay in sync).  A deadline
    expiring mid-net propagates; the caller falls back to the serial
    deadline-safe path for this net.
    """
    from repro.groute.maze import maze_route

    graph = router.graph
    old = list(old_edges)
    if old:
        graph.apply_route(old, sign=-1)
    try:
        net = router.design.nets[net_name]
        terminals = router.terminals_of(net)
        edges: set = set()
        if len(terminals) > 1:
            connected: set[Node] = {terminals[0]}
            for terminal in terminals[1:]:
                path = maze_route(
                    graph,
                    router.cost,
                    router.field,
                    sources=set(connected),
                    targets={terminal},
                    overflow_penalty=10.0 * router.cost.params.via_weight,
                )
                if path is None:
                    get_metrics().count("groute.maze_fallbacks")
                    fallback = router._route_segment(
                        next(iter(connected)),
                        (terminal[1], terminal[2]),
                        terminal[0],
                    )
                    path = fallback[0] if fallback else []
                edges.update(path)
                connected.add(terminal)
                for edge in path:
                    a, b = edge.endpoints(graph)
                    connected.add(a)
                    connected.add(b)
        return tuple(sorted(edges)), tuple(terminals)
    finally:
        if old:
            graph.apply_route(old, sign=1)


def compute_estimate(
    state: WorkerState, candidate: object, extra: object
) -> float:
    """Eq. 10 candidate cost (read-only; identical to the ECC step).

    ``extra`` is ``(use_penalty, epoch)``: chunks carrying the same
    epoch token share one iteration-scoped
    :class:`~repro.core.fastecc.EccCache`.
    """
    from repro.core.estimate import estimate_candidate_cost

    use_penalty, epoch = extra
    model, fld = state.estimate_models(use_penalty)
    router = state.router
    with router.pattern3d.using(model, fld):
        return estimate_candidate_cost(
            router.design, router, candidate, cache=state.ecc_cache(epoch)
        )


def prepare_chunk(
    state: WorkerState, kind: str, items: list, extra: object
) -> None:
    """Work the items of one chunk share, done before the per-item calls.

    An ``estimate`` chunk prices every segment of its candidates in one
    batch; the :func:`compute_estimate` calls that follow only sum
    memoized prices — the same collect -> price -> sum shape as the
    serial ECC step, through the same pricer.  Called by the worker
    loop and by the executor's in-process fallback.
    """
    if kind != "estimate":
        return
    use_penalty, epoch = extra
    model, fld = state.estimate_models(use_penalty)
    router = state.router
    with router.pattern3d.using(model, fld):
        state.ecc_cache(epoch).prefetch(router.design, router, items)


def compute_droute(state: WorkerState, net_name: str):
    """First-pass detail-route of one net, without committing.

    Runs against the session replica built by the ``("ds", ...)`` /
    ``("dn", ...)`` log entries; identical to the compute half of the
    parent's serial first pass, so the parent can commit the returned
    :class:`NetComputation` (or recompute serially on conflict) and
    stay byte-identical with ``workers=1``.
    """
    return state.droute.compute_net(net_name)


def compute_item(state: WorkerState, kind: str, item: object, extra: object):
    """Dispatch one work item; shared by workers and the serial path."""
    if kind == "route":
        return compute_pattern_route(state.router, item)
    if kind == "maze":
        return compute_maze_route(state.router, item[0], item[1])
    if kind == "estimate":
        return compute_estimate(state, item, extra)
    if kind == "droute":
        return compute_droute(state, item)
    raise ValueError(f"unknown task kind {kind!r}")


def flush_state_caches(state: WorkerState) -> None:
    """Publish per-state cache tallies into the current metrics registry.

    Called inside the worker's per-task observability scope (and by the
    executor's serial fallback) so ``crp.ecc_cache_*`` counts land in
    the registry that ships back to the parent.
    """
    if state._ecc is not None:
        state._ecc[1].publish_metrics()


# --------------------------------------------------------------- main loop


def _start_heartbeat(worker_id: int, heartbeat) -> threading.Event:
    """Start the daemon thread that stamps this worker's heartbeat slot.

    Beating from a dedicated thread (started *before* the replica is
    built — deserializing a large design must not look like a hang)
    means a worker busy on a long legitimate compute keeps beating,
    while a deadlocked, frozen, or killed process goes silent and the
    parent's :class:`~repro.par.supervisor.PoolSupervisor` flags it.

    The same thread doubles as an orphan watchdog: if the parent dies
    hard (SIGKILL, OOM — nothing ran to stop the pool) this worker is
    re-parented, ``getppid()`` changes, and the worker ``os._exit``\\ s
    immediately.  Without this, orphans would block on ``task_queue``
    forever while holding inherited pipe file descriptors open — which
    visibly hangs any ``subprocess`` caller capturing the dead parent's
    output.
    """
    halt = threading.Event()
    parent = os.getppid()

    def beat() -> None:
        while not halt.is_set():
            if os.getppid() != parent:
                os._exit(1)  # orphaned: the parent is gone
            if heartbeat is not None:
                heartbeat[worker_id] = time.monotonic()
            halt.wait(HEARTBEAT_S)

    threading.Thread(
        target=beat, name=f"repro-par-heartbeat-{worker_id}", daemon=True
    ).start()
    return halt


def worker_main(
    worker_id: int, task_queue, result_queue, payload: bytes, heartbeat=None
) -> None:
    """Entry point of one worker process.

    Replays log entries, runs the chunk under the parent-supplied
    deadline budget, and ships results (plus optional metrics/span
    payloads) back.  Any exception is reported to the parent, which
    recomputes the chunk serially — a dead task never kills the run.
    ``heartbeat`` is a shared double array; slot ``worker_id`` is
    stamped with ``time.monotonic()`` by a daemon thread so the parent can
    tell a busy worker from a hung one (the thread also exits the
    process if the parent dies hard and this worker is orphaned).
    """
    halt_beat = _start_heartbeat(worker_id, heartbeat)
    try:
        state = WorkerState(build_router(payload))
        _worker_loop(worker_id, task_queue, result_queue, state)
    finally:
        halt_beat.set()


def _worker_loop(worker_id: int, task_queue, result_queue, state: WorkerState) -> None:
    while True:
        msg = task_queue.get()
        if msg[0] == MSG_STOP:
            break
        _, task_id, kind, entries, items, extra, budget_s, obs_on = msg
        wall0 = time.perf_counter()
        try:
            apply_entries(state, entries)
            done: list = []
            expired = False

            def run() -> None:
                nonlocal expired
                try:
                    with deadline_scope(budget_s, name="par.worker"):
                        prepare_chunk(state, kind, items, extra)
                        for item in items:
                            done.append(compute_item(state, kind, item, extra))
                except DeadlineExceeded:
                    expired = True
                finally:
                    flush_state_caches(state)

            obs_payload = None
            if obs_on:
                registry = MetricsRegistry()
                tracer = Tracer()
                with use_metrics(registry), use_tracer(tracer):
                    with tracer.span(
                        "par.task", worker=worker_id, kind=kind, items=len(items)
                    ):
                        run()
                obs_payload = (registry.raw(), tracer.roots)
            else:
                run()
            wall_s = time.perf_counter() - wall0
            tag = RES_DEADLINE if expired else RES_OK
            result_queue.put((tag, task_id, done, wall_s, obs_payload))
        except Exception as exc:  # repro: noqa:REPRO-G002 — worker isolation: the parent recomputes the chunk serially
            result_queue.put(
                (RES_ERR, task_id, f"{type(exc).__name__}: {exc}", 0.0, None)
            )
