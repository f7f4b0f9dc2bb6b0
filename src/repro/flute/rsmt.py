"""Rectilinear Steiner minimal trees.

The original flow calls FLUTE, a lookup-table RSMT package.  The tables
are not redistributable, so this module provides an equivalent
constructor: exact solutions for up to 3 terminals (the bulk of real
netlists), and a Prim MST refined by greedy median-point steinerization
for larger nets.  The output is a tree over points, which the global
router decomposes into 2-pin segments for pattern routing (Algorithm 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geom import Point, manhattan


@dataclass(slots=True)
class SteinerTree:
    """A tree over 2-D points.

    ``points[:num_terminals]`` are the original terminals (deduplicated);
    any points beyond that are Steiner points.  ``edges`` are index pairs
    into ``points``; each edge stands for an L-shaped rectilinear
    connection whose exact bend the pattern router chooses later.
    """

    points: list[Point]
    edges: list[tuple[int, int]]
    num_terminals: int

    def length(self) -> int:
        """Total rectilinear length of the tree."""
        return sum(
            manhattan(self.points[a], self.points[b]) for a, b in self.edges
        )

    def segments(self) -> list[tuple[Point, Point]]:
        """The 2-pin segments the tree decomposes into."""
        return [(self.points[a], self.points[b]) for a, b in self.edges]

    def validate(self) -> None:
        """Raise when the edge set is not a spanning tree over the points."""
        n = len(self.points)
        if n == 0:
            raise ValueError("empty tree")
        if len(self.edges) != n - 1:
            raise ValueError(f"{len(self.edges)} edges for {n} points")
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("cycle in Steiner tree")
            parent[ra] = rb


def build_rsmt(terminals: list[Point]) -> SteinerTree:
    """Build a rectilinear Steiner tree over ``terminals``.

    Terminals are deduplicated first.  Up to 3 distinct terminals the
    result is optimal; beyond that a steinerized MST is returned (within
    1.5x of optimal by the classic MST bound, usually much closer).
    """
    unique: list[Point] = []
    seen: set[tuple[int, int]] = set()
    for p in terminals:
        key = p.as_tuple()
        if key not in seen:
            seen.add(key)
            unique.append(p)
    if not unique:
        raise ValueError("build_rsmt needs at least one terminal")
    if len(unique) == 1:
        return SteinerTree(points=unique, edges=[], num_terminals=1)
    if len(unique) == 2:
        return SteinerTree(points=unique, edges=[(0, 1)], num_terminals=2)
    if len(unique) == 3:
        return _exact_three(unique)
    return _steinerized_mst(unique)


def _exact_three(pts: list[Point]) -> SteinerTree:
    """Optimal RSMT of 3 points: star through the coordinate-median point."""
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    median = Point(xs[1], ys[1])
    for i, p in enumerate(pts):
        if p == median:
            edges = [(i, j) for j in range(3) if j != i]
            return SteinerTree(points=pts, edges=edges, num_terminals=3)
    points = pts + [median]
    return SteinerTree(points=points, edges=[(0, 3), (1, 3), (2, 3)], num_terminals=3)


def _prim_mst(pts: list[Point]) -> list[tuple[int, int]]:
    """Prim's MST under Manhattan distance (dense O(n^2))."""
    n = len(pts)
    in_tree = [False] * n
    best_dist = [float("inf")] * n
    best_from = [0] * n
    in_tree[0] = True
    for j in range(1, n):
        best_dist[j] = manhattan(pts[0], pts[j])
    edges: list[tuple[int, int]] = []
    for _ in range(n - 1):
        pick = -1
        pick_dist = float("inf")
        for j in range(n):
            if not in_tree[j] and best_dist[j] < pick_dist:
                pick = j
                pick_dist = best_dist[j]
        in_tree[pick] = True
        edges.append((best_from[pick], pick))
        for j in range(n):
            if not in_tree[j]:
                d = manhattan(pts[pick], pts[j])
                if d < best_dist[j]:
                    best_dist[j] = d
                    best_from[j] = pick
    return edges


def _steinerized_mst(terminals: list[Point]) -> SteinerTree:
    """MST refined by greedy median-point insertion.

    For every tree vertex with two or more neighbours, the coordinate
    median of (vertex, neighbour A, neighbour B) is tried as a Steiner
    point; the insertion with the largest length saving is applied,
    repeating until no insertion helps.
    """
    points = list(terminals)
    edges = {(min(a, b), max(a, b)) for a, b in _prim_mst(points)}
    num_terminals = len(points)

    def adj() -> dict[int, list[int]]:
        table: dict[int, list[int]] = {i: [] for i in range(len(points))}
        for a, b in edges:
            table[a].append(b)
            table[b].append(a)
        return table

    improved = True
    while improved:
        # Each pass strictly shortens the tree, so the loop terminates.
        improved = False
        best_gain = 0
        best_move: tuple[int, int, int, Point] | None = None
        table = adj()
        for v, neighbours in table.items():
            for i in range(len(neighbours)):
                for j in range(i + 1, len(neighbours)):
                    a, b = neighbours[i], neighbours[j]
                    xs = sorted((points[v].x, points[a].x, points[b].x))
                    ys = sorted((points[v].y, points[a].y, points[b].y))
                    med = Point(xs[1], ys[1])
                    if med == points[v]:
                        continue
                    old = manhattan(points[v], points[a]) + manhattan(
                        points[v], points[b]
                    )
                    new = (
                        manhattan(points[v], med)
                        + manhattan(points[a], med)
                        + manhattan(points[b], med)
                    )
                    gain = old - new
                    if gain > best_gain:
                        best_gain = gain
                        best_move = (v, a, b, med)
        if best_move is not None:
            v, a, b, med = best_move
            # The median may coincide with a neighbour: re-hook through
            # it instead of creating a duplicate Steiner point.
            if med == points[a]:
                s = a
            elif med == points[b]:
                s = b
            else:
                points.append(med)
                s = len(points) - 1
            for pair in ((v, a), (a, v), (v, b), (b, v)):
                edges.discard(pair)
            for end in (v, a, b):
                if end != s:
                    edges.add((min(end, s), max(end, s)))
            improved = True

    tree = SteinerTree(
        points=points, edges=sorted(edges), num_terminals=num_terminals
    )
    tree.validate()
    return tree
