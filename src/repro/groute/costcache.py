"""O(dirty-nets) route-cost accounting for the global router.

:class:`NetCostCache` keeps the Eq. 10 cost of every committed route so
the full-design total that CR&P's guard pre-cost and labeling step
repeatedly ask for re-prices only nets whose cost can actually have
changed.

Soundness argument (mirrors the :class:`repro.grid.field.CostField`
staleness discipline): a committed net's cost is the sum of a flat
``via_weight`` per via edge plus the dense wire-cost map value of each
wire edge.  A route commit or rip-up changes the wire-cost map only on
the rows ``RoutingGraph.apply_route`` returns and the field marks dirty
— the mutated wire edge's own row, and for a mutated via the two
adjacent wire layers' rows through that GCell (the Eq. 9 ``delta_e``
term).  A cached net cost is therefore stale iff one of those dirty
rows carries one of the net's own wire edges; the cache keeps a row ->
nets index over committed wire edges, keyed by the field's row id
(``RoutingGraph.edge_rows``), and marks exactly those nets (plus the
mutated net itself) stale.  Because the field's row recompute is
deterministic — same usage arrays in, same float64s out — a *non-stale*
cached value is
bit-identical to a fresh rescan, and the canonical-order re-sum of
cached float64s in ``design.nets`` order is bit-identical to the full
O(all-nets) scan (same addends, same association).

Out-of-band mutations (guard rollback's belt-and-braces, tests poking
usage arrays) arrive via :meth:`GlobalRouter.invalidate_cost_fields`,
which calls :meth:`note_all` — values are dropped wholesale while the
membership index is kept (it derives from ``router.routes``, which
commit/rip-up notifications keep in sync even across rollback, since
``restore_route`` replays through the same two methods).
"""

from __future__ import annotations

from repro.obs import get_metrics


class NetCostCache:
    """Per-net Eq. 10 cost cache with row-granular staleness tracking."""

    __slots__ = (
        "router",
        "_n_wire",
        "_edge_rows",
        "_cost",
        "_stale",
        "_row_nets",
        "hits",
        "rescans",
    )

    def __init__(self, router) -> None:
        self.router = router
        self._n_wire = router.graph.n_wire
        self._edge_rows = router.graph.edge_rows
        #: net name -> cached Eq. 10 cost (float64, bitwise-fresh)
        self._cost: dict[str, float] = {}
        #: nets whose cached value may be stale
        self._stale: set[str] = set()
        #: field row -> committed nets with a wire edge on that row
        self._row_nets: dict[int, set[str]] = {}
        self.hits = 0
        self.rescans = 0
        # The cache may be enabled on an already-routed router: adopt
        # the committed routes into the membership index (values fill
        # lazily on first query).
        for name, route in router.routes.items():
            self._register(name, route.edges)

    # ---------------------------------------------------------- bookkeeping

    def _register(self, name: str, edges) -> None:
        n_wire = self._n_wire
        edge_rows = self._edge_rows
        row_nets = self._row_nets
        for edge in edges:
            if edge < n_wire:
                (row,) = edge_rows[edge]
                users = row_nets.get(row)
                if users is None:
                    row_nets[row] = {name}
                else:
                    users.add(name)

    def _unregister(self, name: str, edges) -> None:
        n_wire = self._n_wire
        edge_rows = self._edge_rows
        row_nets = self._row_nets
        for edge in edges:
            if edge < n_wire:
                (row,) = edge_rows[edge]
                users = row_nets.get(row)
                if users is not None:
                    users.discard(name)
                    if not users:
                        del row_nets[row]

    def _touch(self, name: str, rows: set[int]) -> None:
        """Mark the mutated net and every net with a wire edge on a dirty
        row stale."""
        stale = self._stale
        row_nets = self._row_nets
        # only set.update targets: order-independent by construction
        for row in rows:
            users = row_nets.get(row)
            if users:
                stale.update(users)
        stale.add(name)

    # ------------------------------------------------------- notifications

    def note_commit(self, name: str, edges, rows: set[int]) -> None:
        """A route was committed (called after ``router.routes`` updates);
        ``rows`` are the field rows its ``apply_route`` dirtied."""
        self._register(name, edges)
        self._touch(name, rows)

    def note_rip(self, name: str, edges, rows: set[int]) -> None:
        """A route was ripped up (called after ``router.routes`` updates)."""
        self._touch(name, rows)
        self._unregister(name, edges)

    def note_all(self) -> None:
        """Out-of-band mutation: drop every cached value, keep membership."""
        self._cost.clear()
        self._stale.clear()

    # ------------------------------------------------------------- queries

    def net_cost(self, name: str) -> float:
        """Cached Eq. 10 cost, re-priced only when stale or unseen."""
        value = self._cost.get(name)
        if value is not None and name not in self._stale:
            self.hits += 1
            return value
        self.rescans += 1
        value = self.router._net_cost_fresh(name)
        self._cost[name] = value
        self._stale.discard(name)
        return value

    # ------------------------------------------------------------- metrics

    def publish_metrics(self) -> None:
        """Flush tallies as ``crp.cost_*`` metric deltas."""
        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("crp.cost_rescans", self.rescans)
        metrics.count("crp.cost_cache_hits", self.hits)
        self.rescans = 0
        self.hits = 0
