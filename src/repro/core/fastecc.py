"""Iteration-scoped ECC pricing cache (the fast Algorithm 3 kernel).

The ECC step is a pure read of a frozen demand state, so all of an
iteration's pricing work is known before any of it is done.
:class:`EccCache` runs it as **collect -> price -> sum**:

* **collect** (:meth:`EccCache.prefetch`) walks every net of every
  candidate once.  The (layer, gx, gy) node of every pin whose cell is
  *not* virtually moved is a pure function of the committed placement,
  so it is derived once per net; ``build_rsmt`` is deterministic in its
  input point order, so trees are memoized on the ordered terminal
  tuple.  The walk leaves one *plan* per (net, virtual moves) — the
  segment keys ``(ax, ay, bx, by, src_layer, dst_layer)`` of its tree
  edges in edge order — and the list of keys no one has priced yet;
* **price** (:func:`price_segments`) prices all of those keys in one
  call: every pattern path of every segment is grouped by its
  run-direction signature (``H``, ``V``, ``HV``, ``VH``, ``HVH``,
  ``VHV``), run costs are gathered from the ``CostField`` prefix arrays
  as ``[layers, paths]`` blocks, and the layer-assignment DP of
  :meth:`PatternRouter3D.route_cost` runs vectorized over the path
  axis, once per signature;
* **sum** (:meth:`EccCache.net_cost`, reached once per net through the
  unchanged ``estimate_candidate_cost`` loop) adds the memoized prices
  of a plan in edge order.

Bit-parity contract: ``net_cost`` returns the exact float the uncached
:func:`repro.core.estimate.estimate_net_cost` would compute.  The
batched DP applies the scalar recurrence elementwise — the same IEEE
operation on the same operands for every (path, layer) — and ``min``
over an axis is a selection, not a reduction-order-dependent sum; the
per-net total adds the same floats in the same order.  A net that was
never prefetched is planned and priced on the spot through the same two
steps (a batch of one net), so there is one pricer.

The cache holds no routing state of its own, so its lifetime must not
span a demand or placement mutation — CR&P builds one per iteration.

Invalidation rule: none within a lifetime, by construction — the ECC
step is a pure read of the routing state.  Anything that mutates demand
or cell positions (Update-Database, guard rollback, RRR) happens
outside the step, after which the cache is discarded.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.geom import Orientation, Point
from repro.db import Design, Net
from repro.flute import build_rsmt
from repro.groute.patterns import pattern_paths_2d
from repro.obs import get_metrics
from repro.core.estimate import candidate_scope, overridden_node

Node = tuple[int, int, int]
#: (ax, ay, bx, by, src_layer, dst_layer) — one RSMT edge to price
SegmentKey = tuple[int, int, int, int, int, "int | None"]


class EccCache:
    """Per-iteration memo of terminal lists, RSMTs, plans, and segment prices."""

    __slots__ = (
        "_fixed", "_trees", "_plans", "_segments",
        "hits", "misses", "batches", "batch_paths",
    )

    def __init__(self) -> None:
        #: net name -> [(pin, fixed node)] in pin order
        self._fixed: dict[str, list[tuple[object, Node]]] = {}
        #: ordered (x, y) terminal tuple -> RSMT
        self._trees: dict[tuple, object] = {}
        #: (net name, virtual moves) -> segment keys in tree-edge order
        self._plans: dict[tuple, list[SegmentKey]] = {}
        #: segment key -> best path cost
        self._segments: dict[SegmentKey, float | None] = {}
        self.hits = 0
        self.misses = 0
        self.batches = 0
        self.batch_paths = 0

    # -------------------------------------------------------------- pricing

    def prefetch(
        self,
        design: Design,
        router,
        candidates,
        include_conflicts: bool = False,
    ) -> None:
        """Plan every net of ``candidates`` and price what is new, in one batch.

        Afterwards :func:`repro.core.estimate.estimate_candidate_cost`
        with this cache only sums memoized prices.
        """
        pending: dict[SegmentKey, None] = {}
        for candidate in candidates:
            overrides, nets = candidate_scope(
                design, candidate, include_conflicts
            )
            moves = tuple(overrides.items())
            for net in nets:
                plan_key = (net.name, moves)
                if plan_key not in self._plans:
                    self._plan(design, router, net, overrides, plan_key, pending)
        self._price(router.pattern3d, pending)

    def net_cost(
        self,
        design: Design,
        router,
        net: Net,
        overrides: dict[str, tuple[int, int, Orientation]],
    ) -> float:
        """Cached twin of :func:`repro.core.estimate.estimate_net_cost`."""
        plan_key = (net.name, tuple(overrides.items()))
        plan = self._plans.get(plan_key)
        if plan is None:
            pending: dict[SegmentKey, None] = {}
            plan = self._plan(design, router, net, overrides, plan_key, pending)
            self._price(router.pattern3d, pending)
        self.hits += len(plan)
        segments = self._segments
        total = 0.0
        for key in plan:
            best = segments[key]
            if best is not None:
                total += best
        return total

    def _plan(
        self,
        design: Design,
        router,
        net: Net,
        overrides: dict[str, tuple[int, int, Orientation]],
        plan_key: tuple,
        pending: dict[SegmentKey, None],
    ) -> list[SegmentKey]:
        """Segment keys of one virtually-moved net; unpriced ones join ``pending``."""
        plan: list[SegmentKey] = []
        self._plans[plan_key] = plan
        terminals = self._terminals(design, router, net, overrides)
        if len(terminals) < 2:
            return plan
        points_key = tuple((t[1], t[2]) for t in terminals)
        tree = self._trees.get(points_key)
        if tree is None:
            self.misses += 1
            tree = build_rsmt([Point(t[1], t[2]) for t in terminals])
            self._trees[points_key] = tree
        else:
            self.hits += 1
        layer_at: dict[tuple[int, int], int] = {}
        for layer, gx, gy in terminals:
            layer_at.setdefault((gx, gy), layer)

        min_wire = router.graph.min_wire_layer
        segments = self._segments
        for a, b in tree.edges:
            pa, pb = tree.points[a], tree.points[b]
            src_layer = layer_at.get((pa.x, pa.y))
            if src_layer is None:
                src_layer = min_wire
            dst_layer = layer_at.get((pb.x, pb.y))
            key = (pa.x, pa.y, pb.x, pb.y, src_layer, dst_layer)
            if key not in segments and key not in pending:
                self.misses += 1
                pending[key] = None
            plan.append(key)
        return plan

    def _price(self, p3d, pending: dict[SegmentKey, None]) -> None:
        if not pending:
            return
        keys = list(pending)
        costs, paths = price_segments(p3d, keys)
        self._segments.update(zip(keys, costs))
        self.batches += 1
        self.batch_paths += paths

    def _terminals(
        self,
        design: Design,
        router,
        net: Net,
        overrides: dict[str, tuple[int, int, Orientation]],
    ) -> list[Node]:
        """Distinct terminal nodes, fixed pins served from the memo."""
        fixed = self._fixed.get(net.name)
        if fixed is None:
            self.misses += 1
            fixed = []
            grid = router.grid
            for pin in net.pins:
                point = design.pin_point(pin)
                layer = design.pin_layer(pin)
                gx, gy = grid.gcell_of(point)
                fixed.append((pin, (layer, gx, gy)))
            self._fixed[net.name] = fixed
        else:
            self.hits += 1
        nodes: list[Node] = []
        seen: set[Node] = set()
        for pin, fixed_node in fixed:
            if pin.cell is not None and pin.cell in overrides:
                node = overridden_node(design, router, pin, overrides[pin.cell])
            else:
                node = fixed_node
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        return nodes

    # -------------------------------------------------------------- metrics

    def publish_metrics(self) -> None:
        """Flush the tallies as ``crp.ecc_cache_*`` / ``crp.ecc_batch*`` deltas."""
        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("crp.ecc_cache_hits", self.hits)
        metrics.count("crp.ecc_cache_misses", self.misses)
        metrics.count("crp.ecc_batches", self.batches)
        metrics.count("crp.ecc_batch_paths", self.batch_paths)
        self.hits = 0
        self.misses = 0
        self.batches = 0
        self.batch_paths = 0


def price_segments(
    p3d, keys: list[SegmentKey]
) -> tuple[list[float | None], int]:
    """Best ``route_cost`` over the pattern paths of every segment in ``keys``.

    Returns the prices aligned with ``keys`` (``None`` where no path has
    a usable layer in every run direction) and the number of pattern
    paths priced.  Paths with the same number of points and the same
    first-run direction form one group — ``pattern_paths_2d`` emits no
    zero-length run and alternates directions, so that pair *is* the
    run signature — and each group is one vectorized pass of
    ``PatternRouter3D._layer_dp`` plus the terminal ``min`` of
    ``route_cost``, elementwise over ``[layers, paths]``:

    * ``cost = rc_0 + via_w * |L - src|`` for the first run,
    * ``cost = min_p(cost[p] + via_w * |L - p|) + rc_i`` per later run,
    * ``min_L cost`` at a free far end, ``min_L(cost + via_w * |L - dst|)``
      at a terminal one.

    Each element sees the operands of the scalar recurrence in the
    scalar order, and every ``min``/``where`` selects one of the scalar
    candidates, so a price is the float the strict-``<`` scan of
    ``route_cost`` over ``pattern_paths_2d`` returns, whatever else is
    in the batch.
    """
    field = p3d.field
    field.ensure()
    via_w = p3d.cost.params.via_weight

    #: (points per path, first run horizontal) -> (flat x, y of the
    #: paths' points, owning key index of each path)
    groups: dict[tuple[int, bool], tuple[list, list[int]]] = {}
    #: key index -> cost of its run-less path (both ends in one GCell)
    stacks: dict[int, float] = {}
    for index, (ax, ay, bx, by, src_layer, dst_layer) in enumerate(keys):
        for path in pattern_paths_2d((ax, ay), (bx, by)):
            if len(path) < 2:
                end = dst_layer if dst_layer is not None else src_layer
                stacks[index] = via_w * abs(end - src_layer)
                continue
            signature = (len(path), path[0][1] == path[1][1])
            group = groups.get(signature)
            if group is None:
                group = groups[signature] = ([], [])
            group[0].extend(chain.from_iterable(path))
            group[1].append(index)

    count = len(keys)
    src = np.fromiter((key[4] for key in keys), dtype=np.int64, count=count)
    # -1 marks a free far end (layers are non-negative)
    dst = np.fromiter(
        (-1 if key[5] is None else key[5] for key in keys),
        dtype=np.int64,
        count=count,
    )
    pinned = dst >= 0
    layer_lists = p3d._dir_layers
    layer_arrays = {
        horizontal: np.asarray(layer_lists[horizontal], dtype=np.int64)
        for horizontal in (True, False)
    }
    best = np.full(count, np.inf)
    found = np.zeros(count, dtype=bool)
    num_paths = len(stacks)
    for (points, first_horizontal), (coords, owners) in groups.items():
        num_paths += len(owners)
        used = (first_horizontal,) if points == 2 else (True, False)
        if not all(layer_lists[horizontal] for horizontal in used):
            continue  # a run direction without layers: route_cost is None
        owner = np.asarray(owners, dtype=np.intp)
        xy = np.array(coords, dtype=np.intp).reshape(len(owners), points, 2)
        horizontal = first_horizontal
        cost = layers_prev = None
        for i in range(points - 1):
            layers = layer_arrays[horizontal]
            along, across = (0, 1) if horizontal else (1, 0)
            p, q = xy[:, i, along], xy[:, i + 1, along]
            rc = field.run_cost_batch(
                layer_lists[horizontal],
                np.minimum(p, q),
                np.maximum(p, q),
                xy[:, i, across],
            )
            if cost is None:
                cost = rc + via_w * np.abs(layers[:, None] - src[owner][None, :])
            else:
                step = via_w * np.abs(layers[None, :] - layers_prev[:, None])
                cost = (cost[:, None, :] + step[:, :, None]).min(axis=0) + rc
            layers_prev = layers
            horizontal = not horizontal
        path_cost = np.where(
            pinned[owner],
            (
                cost + via_w * np.abs(layers_prev[:, None] - dst[owner][None, :])
            ).min(axis=0),
            cost.min(axis=0),
        )
        # A segment's paths of one signature are adjacent (appended
        # under one key index), so a segmented min reduces them.
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        segment = owner[starts]
        best[segment] = np.minimum(
            best[segment], np.minimum.reduceat(path_cost, starts)
        )
        found[segment] = True

    costs: list[float | None] = [
        value if priced else None
        for value, priced in zip(best.tolist(), found.tolist())
    ]
    for index, cost in stacks.items():
        if costs[index] is None or cost < costs[index]:
            costs[index] = cost
    return costs, num_paths
