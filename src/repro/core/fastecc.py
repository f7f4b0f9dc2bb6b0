"""Iteration-scoped ECC pricing cache (the fast Algorithm 3 kernel).

:class:`EccCache` amortizes the three repeated computations of the
candidate-cost estimation step across every candidate of one CR&P
iteration:

* **fixed terminals** — the (layer, gx, gy) node of every pin whose
  cell is *not* virtually moved is a pure function of the committed
  placement, so it is derived once per net instead of once per
  candidate (and once per overridden ``(cell, pin, position)``);
* **RSMT topology** — ``build_rsmt`` is deterministic in its input
  point order, so trees are memoized on the ordered terminal tuple;
* **segment pricing** — the best pattern-path cost of a tree edge
  depends only on its endpoints and terminal layers (the demand state
  is frozen during the read-only ECC step), so each distinct segment is
  priced once, through a batched numpy DP whose every float64 operation
  mirrors :meth:`PatternRouter3D.route_cost` operation-for-operation.

Bit-parity contract: a cache hit returns the exact float the uncached
:func:`repro.core.estimate.estimate_net_cost` would compute, and a miss
computes it with the same IEEE operations in the same order (the
vectorized DP applies the scalar recurrence elementwise; ``min`` over
an axis is a selection, not a reduction-order-dependent sum).  The
cache holds no routing state of its own, so its lifetime must not span
a demand or placement mutation — CR&P builds one per iteration, and
``repro.par`` workers key theirs by dispatch epoch and drop it on any
mutation-log replay.

Invalidation rule: none within a lifetime, by construction — the ECC
step is a pure read of the routing state.  Anything that mutates demand
or cell positions (Update-Database, guard rollback, RRR) happens
outside the step, after which the cache is discarded.
"""

from __future__ import annotations

import numpy as np

from repro.geom import Orientation, Point
from repro.db import Design, Net
from repro.flute import build_rsmt
from repro.groute.patterns import pattern_paths_2d, runs_of_path
from repro.obs import get_metrics

Node = tuple[int, int, int]

_MISS = object()


class EccCache:
    """Per-iteration memo of terminal lists, RSMTs, and segment prices."""

    __slots__ = ("_fixed", "_onodes", "_trees", "_segments", "hits", "misses")

    def __init__(self) -> None:
        #: net name -> [(pin, fixed node)] in pin order
        self._fixed: dict[str, list[tuple[object, Node]]] = {}
        #: (cell, pin, x, y, orient) -> node of a virtually-moved pin
        self._onodes: dict[tuple, Node] = {}
        #: ordered (x, y) terminal tuple -> RSMT
        self._trees: dict[tuple, object] = {}
        #: (ax, ay, bx, by, src_layer, dst_layer) -> best path cost
        self._segments: dict[tuple, float | None] = {}
        self.hits = 0
        self.misses = 0

    # -------------------------------------------------------------- pricing

    def net_cost(
        self,
        design: Design,
        router,
        net: Net,
        overrides: dict[str, tuple[int, int, Orientation]],
    ) -> float:
        """Cached twin of :func:`repro.core.estimate.estimate_net_cost`."""
        terminals = self._terminals(design, router, net, overrides)
        if len(terminals) < 2:
            return 0.0
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

        total = 0.0
        min_wire = router.graph.min_wire_layer
        segments = self._segments
        for a, b in tree.edges:
            pa, pb = tree.points[a], tree.points[b]
            src_layer = layer_at.get((pa.x, pa.y))
            if src_layer is None:
                src_layer = min_wire
            dst_layer = layer_at.get((pb.x, pb.y))
            key = (pa.x, pa.y, pb.x, pb.y, src_layer, dst_layer)
            best = segments.get(key, _MISS)
            if best is _MISS:
                self.misses += 1
                best = _price_segment(
                    router.pattern3d, (pa.x, pa.y), (pb.x, pb.y),
                    src_layer, dst_layer,
                )
                segments[key] = best
            else:
                self.hits += 1
            if best is not None:
                total += best
        return total

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
                node = self._overridden(design, router, pin, overrides[pin.cell])
            else:
                node = fixed_node
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        return nodes

    def _overridden(
        self,
        design: Design,
        router,
        pin,
        position: tuple[int, int, Orientation],
    ) -> Node:
        key = (pin.cell, pin.pin, position[0], position[1], position[2])
        node = self._onodes.get(key)
        if node is None:
            from repro.core.estimate import overridden_node

            self.misses += 1
            node = overridden_node(design, router, pin, position)
            self._onodes[key] = node
        else:
            self.hits += 1
        return node

    # -------------------------------------------------------------- metrics

    def publish_metrics(self) -> None:
        """Flush hit/miss tallies as ``crp.ecc_cache_*`` metric deltas."""
        metrics = get_metrics()
        if not metrics.recording:
            return
        metrics.count("crp.ecc_cache_hits", self.hits)
        metrics.count("crp.ecc_cache_misses", self.misses)
        self.hits = 0
        self.misses = 0


def _price_segment(
    p3d, a: tuple[int, int], b: tuple[int, int],
    src_layer: int, dst_layer: int | None,
) -> float | None:
    """Best ``route_cost`` over the pattern paths of one segment.

    All runs of all candidate paths are gathered into one
    :meth:`CostField.run_cost_batch` call per direction and the
    layer-assignment DP runs vectorized over layers; the returned float
    is bit-identical to the per-path ``route_cost``/strict-``<`` scan of
    the uncached estimator.
    """
    field = p3d.field
    field.ensure()
    via_w = p3d.cost.params.via_weight
    paths = pattern_paths_2d(a, b)
    runs_by_path = [runs_of_path(path) for path in paths]

    # Distinct runs per direction -> one batched prefix gather each.
    h_index: dict[tuple[int, int, int], int] = {}
    v_index: dict[tuple[int, int, int], int] = {}
    for runs in runs_by_path:
        for (x0, y0), (x1, y1) in runs:
            if y0 == y1:
                key = (min(x0, x1), max(x0, x1), y0)
                h_index.setdefault(key, len(h_index))
            else:
                key = (min(y0, y1), max(y0, y1), x0)
                v_index.setdefault(key, len(v_index))
    layers_h = p3d._dir_layers[True]
    layers_v = p3d._dir_layers[False]
    costs_h = (
        field.run_cost_batch(layers_h, list(h_index))
        if h_index and layers_h
        else None
    )
    costs_v = (
        field.run_cost_batch(layers_v, list(v_index))
        if v_index and layers_v
        else None
    )
    arr_h = np.asarray(layers_h, dtype=np.int64)
    arr_v = np.asarray(layers_v, dtype=np.int64)

    best_cost: float | None = None
    for runs in runs_by_path:
        if not runs:
            end = dst_layer if dst_layer is not None else src_layer
            cost = via_w * abs(end - src_layer)
        else:
            cost = _dp_path(
                runs, src_layer, dst_layer, via_w,
                arr_h, costs_h, h_index, arr_v, costs_v, v_index,
            )
        if cost is None:
            continue
        if best_cost is None or cost < best_cost:
            best_cost = cost
    return best_cost


def _dp_path(
    runs, src_layer, dst_layer, via_w,
    arr_h, costs_h, h_index, arr_v, costs_v, v_index,
) -> float | None:
    """Vectorized twin of ``PatternRouter3D._layer_dp`` + the final min.

    Elementwise replication of the scalar recurrence:
    ``best0 = rc0 + via_w*|L - src|`` then
    ``best = min_p(best[p] + via_w*|L - p|) + rc_i`` per run, and the
    terminal ``min(best + via_w*|L - dst|)``.  ``min`` selects one of
    the scalar candidates, so no float association changes.
    """
    layers_prev = None
    best = None
    for (x0, y0), (x1, y1) in runs:
        if y0 == y1:
            if costs_h is None:
                return None
            layers_cur = arr_h
            rc = costs_h[:, h_index[(min(x0, x1), max(x0, x1), y0)]]
        else:
            if costs_v is None:
                return None
            layers_cur = arr_v
            rc = costs_v[:, v_index[(min(y0, y1), max(y0, y1), x0)]]
        if best is None:
            best = rc + via_w * np.abs(layers_cur - src_layer)
        else:
            trans = best[:, None] + via_w * np.abs(
                layers_cur[None, :] - layers_prev[:, None]
            )
            best = trans.min(axis=0) + rc
        layers_prev = layers_cur
    if dst_layer is None:
        return float(best.min())
    return float((best + via_w * np.abs(layers_prev - dst_layer)).min())
