"""Parent-side parallel executor: process pool + mutation log + merge.

The executor owns three responsibilities:

1. **Replica sync.**  The parent records every routing-state mutation
   in an append-only log (route commits/rip-ups via
   :meth:`note_route`, cell moves discovered by diffing positions
   before each dispatch, full array resyncs via :meth:`note_desync`).
   Each worker tracks a log sequence number; a task carries exactly
   the unseen tail, so replicas replay the parent's mutations in
   parent order and stay bit-identical.

2. **Deterministic dispatch.**  Work items are chunked and assigned to
   workers round-robin by chunk index, results are collected by task
   id, and the returned list is aligned with the input order — worker
   scheduling and timing can never reorder results.

3. **Degradation.**  A worker error (or an armed ``par.worker`` fault
   point) marks its chunk missing and the parent recomputes it
   in-process with the *same* compute functions, so a dead worker
   costs time, never correctness.  A worker that runs out of its
   deadline budget ships back what it finished; the parent re-checks
   the ambient deadline and lets the per-stage fallback handle the
   rest.  At ``workers=1`` no processes exist at all: the same chunks
   run in-process against the live router, which is the parity
   baseline the tests pin parallel runs against.

4. **Self-healing.**  A :class:`~repro.par.supervisor.PoolSupervisor`
   daemon thread watches worker processes and their heartbeat slots;
   workers it flags (dead, or hung past ``hang_timeout_s``) are healed
   here on the dispatcher's thread: up to ``max_respawns`` respawns
   per slot with exponential backoff, the fresh worker's replica
   rebuilt by replaying the mutation log from entry 0, and the dead
   worker's in-flight tasks re-dispatched (``par.retries``).  A slot
   that exhausts its respawn budget is *shrunk* out of the rotation
   (``par.pool_shrinks``); only when no live slot remains does the
   pool fall back to the serial in-process path.  Determinism is
   untouched: replicas are bit-identical by construction and compute
   functions are pure, so *which* worker computes a chunk never
   changes its result.

Observability: when the ambient tracer/metrics are recording, workers
run each task under a private registry + tracer and ship back raw
metrics and ``par.task`` span trees; the parent folds the metrics in
task order and attaches the spans to the enclosing ``par.route`` span.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import time
from typing import TYPE_CHECKING

from repro.guard.deadline import DeadlineExceeded, check_deadline, remaining_budget
from repro.guard.faults import fault_point
from repro.obs import get_metrics, get_tracer

from repro.par import worker as parworker
from repro.par.supervisor import (
    REASON_HUNG,
    REASON_INJECTED,
    PoolSupervisor,
)
from repro.par.worker import WorkerState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.groute import GlobalRouter

#: default work items per task for routing kinds (maze compute dominates)
ROUTE_CHUNK = 8
#: default work items per task for candidate estimation (cheap per item)
ESTIMATE_CHUNK = 32
#: seconds between liveness polls while waiting on the result queue
POLL_S = 10.0


class ParallelExecutor:
    """Deterministic process-pool executor for routing and estimation."""

    def __init__(
        self,
        workers: int = 1,
        *,
        chunk: int = ROUTE_CHUNK,
        start_method: str | None = None,
        poll_s: float = POLL_S,
        hang_timeout_s: float = 30.0,
        max_respawns: int = 2,
        respawn_backoff_s: float = 0.05,
    ) -> None:
        self.workers = max(1, int(workers))
        self.chunk = max(1, int(chunk))
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self.start_method = start_method
        self.poll_s = max(0.05, float(poll_s))
        self.hang_timeout_s = float(hang_timeout_s)
        #: respawn budget *per worker slot*; exhausting it shrinks the slot
        self.max_respawns = max(0, int(max_respawns))
        #: base of the exponential backoff before each respawn attempt
        self.respawn_backoff_s = max(0.0, float(respawn_backoff_s))
        self.router: "GlobalRouter | None" = None
        self._log: list[tuple] = []
        self._procs: list = []
        self._task_queues: list = []
        self._result_queue = None
        self._worker_seq: list[int] = []
        self._synced_pos: dict[str, tuple] = {}
        self._estimate_models: dict[bool, tuple[object, object]] = {}
        self._started = False
        self._dead = False
        #: the DetailedRouter of the active droute session (if any) and
        #: the session stash replayed to workers when the pool starts
        #: mid-first-pass: (ctor_args, guides, [(name, used), ...])
        self._droute = None
        self._droute_session: list | None = None
        self._next_task = 0
        #: monotonically increasing token scoping worker EccCaches to
        #: one run_estimates call (i.e. one CR&P ECC step)
        self._ecc_epoch = 0
        self._ctx = None
        self._payload: bytes | None = None
        self._heartbeats = None
        self._alive: list[bool] = []
        self._respawns: list[int] = []
        #: task_id -> dispatch record, for re-dispatch after a heal
        self._inflight: dict[int, dict] = {}
        self._supervisor: PoolSupervisor | None = None

    # ----------------------------------------------------------- lifecycle

    def bind(self, router: "GlobalRouter") -> "ParallelExecutor":
        """Attach to a router; the router's drivers batch through us."""
        self.router = router
        router.executor = self
        return self

    @property
    def parallel(self) -> bool:
        """True when tasks actually cross a process boundary."""
        return self.workers > 1 and not self._dead

    def close(self) -> None:
        """Stop workers and detach; safe to call twice.

        Reaping escalates: cooperative STOP + ``join(timeout)``, then
        ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL) — a worker
        wedged in uninterruptible C code cannot leak past close.
        """
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        if self._started:
            for worker in self._live_workers():
                try:
                    self._task_queues[worker].put((parworker.MSG_STOP,))
                except (OSError, ValueError):
                    pass
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            self._procs = []
            self._task_queues = []
            self._result_queue = None
            self._heartbeats = None
            self._alive = []
            self._inflight.clear()
            self._started = False
        if self.router is not None and self.router.executor is self:
            self.router.executor = None
        self._dead = True

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------- mutation log

    def note_route(self, edges: list, sign: int) -> None:
        """Record one route commit (+1) or rip-up (-1) for the replicas."""
        if self._started and not self._dead:
            self._log.append(("r", tuple(edges), sign))

    def note_desync(self) -> None:
        """Record a full-state resync (arrays were mutated out-of-band)."""
        if not self._started or self._dead:
            return
        graph = self.router.graph
        positions = {
            name: (cell.x, cell.y, cell.orient)
            for name, cell in self.router.design.cells.items()
        }
        self._log.append(
            (
                "a",
                [arr.copy() for arr in graph.wire_usage],
                [arr.copy() for arr in graph.via_usage],
                positions,
            )
        )
        self._synced_pos = positions

    def note_droute_start(self, droute, guides) -> None:
        """Open a detailed-routing session for the replicas.

        Called by :meth:`DetailedRouter.route_all` before its batched
        first pass.  If the pool is live the session opens in the log
        right away (after a move sync, so replicas build their obstacle
        maps against current cell positions); otherwise it is stashed
        and flushed by :meth:`_ensure_pool` the moment the pool spins
        up, together with any commits made serially before that point.
        """
        self._droute = droute
        if self._dead:
            return
        if self._started:
            self._sync_moves()
            self._log.append(("ds", droute.ctor_args, guides))
            self._droute_session = None
        else:
            self._droute_session = [droute.ctor_args, guides, []]

    def note_droute_commit(self, name: str, used) -> None:
        """Record one committed detailed-routed net for the replicas."""
        if self._dead:
            return
        if self._started:
            self._log.append(("dn", name, tuple(used)))
        elif self._droute_session is not None:
            self._droute_session[2].append((name, tuple(used)))

    def _sync_moves(self) -> None:
        """Append a move entry for every cell that moved since last sync."""
        for name in sorted(self.router.design.cells):
            cell = self.router.design.cells[name]
            pos = (cell.x, cell.y, cell.orient)
            if self._synced_pos.get(name) != pos:
                self._synced_pos[name] = pos
                self._log.append(("m", name, *pos))

    # ------------------------------------------------------------- pool

    def _ensure_pool(self) -> None:
        if self._started or not self.parallel:
            return
        router = self.router
        ctx = mp.get_context(self.start_method)
        self._ctx = ctx
        self._payload = pickle.dumps(
            (router.design, router.ctor_args),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._result_queue = ctx.Queue()
        # Heartbeat slots start "fresh" so a worker still deserializing
        # its replica is not flagged before its first beat.
        self._heartbeats = ctx.Array("d", [time.monotonic()] * self.workers)
        self._task_queues = [None] * self.workers
        self._procs = [None] * self.workers
        self._worker_seq = [0] * self.workers
        self._alive = [True] * self.workers
        self._respawns = [0] * self.workers
        self._inflight = {}
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id)
        self._started = True
        self._synced_pos = {
            name: (cell.x, cell.y, cell.orient)
            for name, cell in router.design.cells.items()
        }
        # Workers rebuilt a virgin router from the design; bring them up
        # to the parent's current committed demand with one resync.
        graph = router.graph
        self._log.append(
            (
                "a",
                [arr.copy() for arr in graph.wire_usage],
                [arr.copy() for arr in graph.via_usage],
                None,
            )
        )
        # A droute session opened before the pool existed (the first
        # batches were small enough to run in-process): replay the
        # session open plus every serial commit made so far, in order.
        if self._droute_session is not None:
            ctor_args, guides, commits = self._droute_session
            self._log.append(("ds", ctor_args, guides))
            for name, used in commits:
                self._log.append(("dn", name, used))
            self._droute_session = None
        self._supervisor = PoolSupervisor(
            self,
            poll_s=min(1.0, self.poll_s),
            hang_timeout_s=self.hang_timeout_s,
        )
        self._supervisor.start()
        get_metrics().gauge("par.pool_workers", self.workers)

    def _spawn_worker(self, worker_id: int) -> None:
        """(Re)start one worker slot with a fresh task queue."""
        task_queue = self._ctx.Queue()
        self._heartbeats[worker_id] = time.monotonic()
        proc = self._ctx.Process(
            target=parworker.worker_main,
            args=(
                worker_id,
                task_queue,
                self._result_queue,
                self._payload,
                self._heartbeats,
            ),
            daemon=True,
        )
        proc.start()
        self._task_queues[worker_id] = task_queue
        self._procs[worker_id] = proc

    def _live_workers(self) -> list[int]:
        """Slots still in the dispatch rotation."""
        return [w for w in range(len(self._procs)) if self._alive[w]]

    def _kill_pool(self) -> None:
        """Abandon a wedged/broken pool; remaining work runs in-process."""
        get_metrics().count("par.pool_failures")
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        self._procs = []
        self._task_queues = []
        self._result_queue = None
        self._heartbeats = None
        self._alive = []
        self._inflight.clear()
        self._started = False
        self._dead = True

    # ---------------------------------------------------------- self-healing

    def _heal_suspects(self, metrics) -> None:
        """Drain the supervisor's suspect map and repair each worker.

        Runs on the dispatcher's thread (before enqueueing a batch and
        on every result-queue poll timeout), so all pool mutations stay
        single-threaded.  Augments the supervisor with a direct process
        liveness scan — a worker can die between supervisor polls.
        """
        if not self._started:
            return
        suspects: dict[int, str] = {}
        if self._supervisor is not None:
            suspects.update(self._supervisor.take_suspects())
        for worker in self._live_workers():
            proc = self._procs[worker]
            if proc is not None and not proc.is_alive():
                suspects.setdefault(worker, "died")
        for worker in sorted(suspects):
            if not self._started:
                return
            if self._alive[worker]:
                self._heal_worker(worker, suspects[worker], metrics)

    def _heal_worker(self, worker: int, reason: str, metrics) -> None:
        """Respawn (bounded, backed-off) or shrink one suspect slot."""
        proc = self._procs[worker]
        # Recheck before acting: a suspicion can go stale (the flagged
        # process was already healed, or a "hung" worker beat again).
        # An injected fault skips the recheck by design — its worker is
        # genuinely healthy, the point is to force the recovery path.
        if reason == REASON_HUNG:
            if (
                proc is not None
                and proc.is_alive()
                and time.monotonic() - self._heartbeats[worker] <= self.hang_timeout_s
            ):
                return
        elif reason != REASON_INJECTED:
            if proc is not None and proc.is_alive():
                return
        orphans = {
            tid: info
            for tid, info in self._inflight.items()
            if info["worker"] == worker
        }
        attempt = self._respawns[worker]
        if attempt >= self.max_respawns:
            self._shrink(worker, metrics)
        else:
            self._respawns[worker] = attempt + 1
            metrics.count("par.respawns")
            self._reap(worker)
            time.sleep(self.respawn_backoff_s * (2**attempt))
            self._spawn_worker(worker)
            # Fresh replica: replay the whole mutation log on next task.
            self._worker_seq[worker] = 0
        if self._supervisor is not None:
            self._supervisor.forget(worker)
        if not self._live_workers():
            self._kill_pool()
            return
        self._requeue(orphans, metrics)

    def _reap(self, worker: int) -> None:
        """Force one worker process down (terminate -> kill escalation)."""
        proc = self._procs[worker]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        old_queue = self._task_queues[worker]
        if old_queue is not None:
            try:
                old_queue.close()
                old_queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
        self._task_queues[worker] = None
        self._procs[worker] = None

    def _shrink(self, worker: int, metrics) -> None:
        """Retire a slot whose respawn budget is exhausted."""
        metrics.count("par.pool_shrinks")
        self._alive[worker] = False
        self._reap(worker)
        metrics.gauge("par.pool_workers", len(self._live_workers()))

    def _requeue(self, orphans: dict[int, dict], metrics) -> None:
        """Re-dispatch a healed worker's in-flight tasks.

        All in-flight tasks of one batch were dispatched at the same
        log sequence (the log only grows between batches), so any live
        worker's replica can serve any orphan: the entry slice
        ``log[worker_seq:seq]`` is the full log for a fresh respawn and
        empty for an already-caught-up neighbour.
        """
        live = self._live_workers()
        if not live:
            return
        for n, task_id in enumerate(sorted(orphans)):
            info = orphans[task_id]
            target = (
                info["worker"]
                if self._alive[info["worker"]]
                else live[n % len(live)]
            )
            seq = info["seq"]
            entries = tuple(self._log[self._worker_seq[target] : seq])
            if seq > self._worker_seq[target]:
                self._worker_seq[target] = seq
            info["worker"] = target
            try:
                self._task_queues[target].put(
                    (
                        parworker.MSG_TASK,
                        task_id,
                        info["kind"],
                        entries,
                        info["items"],
                        info["extra"],
                        info["budget_s"],
                        info["obs_on"],
                    )
                )
            except (OSError, ValueError):
                self._kill_pool()
                return
            metrics.count("par.retries")

    # ----------------------------------------------------------- dispatch

    def run_route_batch(self, names: list[str]) -> dict[str, object]:
        """Pattern-route a conflict-free batch; name -> (edges, terminals).

        A ``None`` value means the worker hit its deadline budget before
        reaching that net; the caller's commit stage falls back to the
        serial deadline-safe path for it.
        """
        results = self._dispatch("route", list(names), None, self.chunk)
        return dict(zip(names, results))

    def run_droute_batch(self, names: list[str]) -> dict[str, object]:
        """Detail-route a spatial batch; name -> NetComputation.

        Requires an open droute session (:meth:`note_droute_start`).
        ``None`` values (deadline/worker loss) are recomputed serially
        by :meth:`_dispatch`'s in-process fallback, so the caller always
        sees a complete mapping.
        """
        results = self._dispatch("droute", list(names), None, self.chunk)
        return dict(zip(names, results))

    def run_maze_batch(self, items: list[tuple]) -> dict[str, object]:
        """Maze-reroute a batch of ``(name, old_edges)``; name -> result."""
        results = self._dispatch("maze", list(items), None, self.chunk)
        return {item[0]: result for item, result in zip(items, results)}

    def run_estimates(self, candidates: list, use_penalty: bool) -> list[float]:
        """Price candidates in order (ECC); pure reads, order-preserving.

        A fresh epoch token rides along as the task extra, so every
        worker (and the in-process fallback) shares one iteration-scoped
        :class:`~repro.core.fastecc.EccCache` per call and discards it
        on the next.  Caching is read-only memoization of bit-identical
        values, so results match the uncached estimator byte-for-byte.
        """
        self._ecc_epoch += 1
        return self._dispatch(
            "estimate",
            list(candidates),
            (bool(use_penalty), self._ecc_epoch),
            ESTIMATE_CHUNK,
        )

    def _dispatch(
        self, kind: str, items: list, extra: object, chunk: int
    ) -> list:
        """Run ``items`` through the pool; returns results aligned with input.

        Chunks that fail (worker error, armed ``par.worker`` fault,
        broken pool) are recomputed in-process.  Chunks cut short by a
        worker-side deadline stay ``None`` unless the ambient deadline
        turns out to still have budget.
        """
        results: list = [None] * len(items)
        metrics = get_metrics()
        deadline_hit = False
        # A single chunk cannot overlap with anything — shipping it to a
        # worker while the parent waits is pure overhead, and the long
        # singleton tail of the batch chain on dense designs would pay
        # a queue round-trip per net.  The size test depends only on
        # the input, never on worker count, so determinism holds.
        if len(items) > chunk and self.parallel:
            self._ensure_pool()
        if len(items) > chunk and self._started and not self._dead:
            deadline_hit = self._dispatch_pool(
                kind, items, extra, chunk, results, metrics
            )
        if deadline_hit:
            metrics.count("par.deadline_returns")
            # Normally the ambient scope the budget came from has also
            # expired and this raises; if it somehow still has slack,
            # fall through and finish the chunk in-process.
            check_deadline("par.worker")
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            if self._started:
                metrics.count("par.serial_fallback_items", len(missing))
            state = self._parent_state()
            try:
                parworker.prepare_chunk(
                    state, kind, [items[i] for i in missing], extra
                )
                for i in missing:
                    results[i] = parworker.compute_item(
                        state, kind, items[i], extra
                    )
            finally:
                parworker.flush_state_caches(state)
        return results

    def _dispatch_pool(
        self,
        kind: str,
        items: list,
        extra: object,
        chunk: int,
        results: list,
        metrics,
    ) -> bool:
        """Ship chunks to workers and fold results back; True on deadline."""
        # Heal before enqueueing: a worker that died while the pool sat
        # idle must not be handed a batch's worth of tasks first.
        self._heal_suspects(metrics)
        if not self._started:
            return False
        self._sync_moves()
        budget_s = remaining_budget()
        obs_on = bool(get_metrics().recording or get_tracer().recording)
        chunks = [
            (start, items[start : start + chunk])
            for start in range(0, len(items), chunk)
        ]
        pending: dict[int, int] = {}  # task_id -> chunk start index
        live = self._live_workers()
        for chunk_index, (start, chunk_items) in enumerate(chunks):
            try:
                fault_point("par.worker")
            except DeadlineExceeded:
                raise
            except Exception:
                metrics.count("par.worker_failures")
                continue
            worker = live[chunk_index % len(live)]
            seq = len(self._log)
            entries = tuple(self._log[self._worker_seq[worker] : seq])
            self._worker_seq[worker] = seq
            task_id = self._next_task
            self._next_task += 1
            task_items = tuple(chunk_items)
            try:
                self._task_queues[worker].put(
                    (
                        parworker.MSG_TASK,
                        task_id,
                        kind,
                        entries,
                        task_items,
                        extra,
                        budget_s,
                        obs_on,
                    )
                )
            except (OSError, ValueError):
                self._kill_pool()
                break
            pending[task_id] = start
            self._inflight[task_id] = {
                "worker": worker,
                "seq": seq,
                "kind": kind,
                "items": task_items,
                "extra": extra,
                "budget_s": budget_s,
                "obs_on": obs_on,
            }
            metrics.count("par.tasks")
        deadline_hit = self._collect(pending, chunk, results, metrics)
        for task_id in pending:  # abandoned (pool killed) tasks
            self._inflight.pop(task_id, None)
        return deadline_hit

    def _collect(
        self, pending: dict[int, int], chunk: int, results: list, metrics
    ) -> bool:
        """Drain the result queue for ``pending`` tasks; True on deadline."""
        deadline_hit = False
        span = get_tracer().current()
        stalled_s = 0.0
        while pending and self._started:
            try:
                msg = self._result_queue.get(timeout=self.poll_s)
            except queue_mod.Empty:
                try:
                    check_deadline("par.collect")
                except DeadlineExceeded:
                    # The flow budget ran out while workers stalled:
                    # without this check the poll loop can outlive the
                    # deadline by the full hang timeout.  Abandon the
                    # pool; the caller's serial fallback is
                    # deadline-checked and aborts cleanly.
                    self._kill_pool()
                    deadline_hit = True
                    break
                stalled_s += self.poll_s
                if stalled_s >= 600.0:
                    # Healing exhausted: even respawned workers are not
                    # producing.  Abandon the pool, recompute serially.
                    self._kill_pool()
                    break
                self._heal_suspects(metrics)
                continue
            stalled_s = 0.0
            tag, task_id = msg[0], msg[1]
            start = pending.pop(task_id, None)
            self._inflight.pop(task_id, None)
            if start is None:
                continue  # stale result from an abandoned dispatch
            if tag == parworker.RES_ERR:
                metrics.count("par.worker_failures")
                continue
            _, _, done, wall_s, obs_payload = msg
            for offset, value in enumerate(done):
                results[start + offset] = value
            metrics.observe("par.worker_wall_s", wall_s)
            if obs_payload is not None:
                raw, roots = obs_payload
                metrics.merge_raw(raw)
                if span is not None:
                    span.children.extend(roots)
            if tag == parworker.RES_DEADLINE:
                deadline_hit = True
        return deadline_hit

    # ------------------------------------------------------ serial compute

    def _parent_state(self) -> WorkerState:
        """A WorkerState facade over the live parent router.

        The in-process path and the worker path run the *same* compute
        functions; only the router instance differs.
        """
        state = WorkerState.__new__(WorkerState)
        state.router = self.router
        state.droute = self._droute
        state._estimate_models = self._estimate_models
        state._ecc = None
        return state
