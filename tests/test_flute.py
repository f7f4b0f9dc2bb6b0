"""Unit and property tests for the RSMT constructor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import Point, manhattan
from repro.flute import SteinerTree, build_rsmt

coords = st.integers(min_value=0, max_value=10000)
points = st.builds(Point, coords, coords)


def test_empty_rejected():
    with pytest.raises(ValueError):
        build_rsmt([])


def test_single_terminal():
    tree = build_rsmt([Point(5, 5)])
    assert tree.num_terminals == 1
    assert tree.edges == []
    assert tree.length() == 0


def test_duplicates_collapse():
    tree = build_rsmt([Point(1, 1)] * 5 + [Point(3, 3)])
    assert tree.num_terminals == 2
    assert tree.length() == 4


def test_two_terminals():
    tree = build_rsmt([Point(0, 0), Point(10, 5)])
    assert tree.length() == 15


def test_three_collinear_no_steiner():
    tree = build_rsmt([Point(0, 0), Point(5, 0), Point(10, 0)])
    assert tree.length() == 10
    assert len(tree.points) == 3  # median coincides with middle terminal


def test_three_l_shape():
    tree = build_rsmt([Point(0, 0), Point(10, 0), Point(10, 10)])
    assert tree.length() == 20


def test_three_steiner_point_added():
    # Symmetric Y: optimal via Steiner point at (5, 5)
    tree = build_rsmt([Point(0, 0), Point(10, 0), Point(5, 10)])
    assert tree.length() == 20
    assert len(tree.points) == 4


def test_cross_benefits_from_steiner():
    terminals = [Point(5, 0), Point(5, 10), Point(0, 5), Point(10, 5)]
    tree = build_rsmt(terminals)
    # MST would cost 30; the Steiner cross costs 20.
    assert tree.length() == 20


def test_validate_rejects_cycles():
    tree = SteinerTree(
        points=[Point(0, 0), Point(1, 0), Point(1, 1)],
        edges=[(0, 1), (1, 2), (2, 0)],
        num_terminals=3,
    )
    with pytest.raises(ValueError):
        tree.validate()


def test_validate_rejects_wrong_edge_count():
    tree = SteinerTree(points=[Point(0, 0), Point(1, 0)], edges=[], num_terminals=2)
    with pytest.raises(ValueError):
        tree.validate()


def test_segments_cover_edges():
    tree = build_rsmt([Point(0, 0), Point(4, 4), Point(8, 0)])
    assert len(tree.segments()) == len(tree.edges)


@settings(max_examples=60, deadline=None)
@given(st.lists(points, min_size=2, max_size=12))
def test_tree_is_spanning_and_bounded(terminals):
    tree = build_rsmt(terminals)
    tree.validate()  # spanning tree over all points
    unique = {p.as_tuple() for p in terminals}
    assert tree.num_terminals == len(unique)
    # All terminals must appear among tree points.
    tree_points = {p.as_tuple() for p in tree.points}
    assert unique <= tree_points


@settings(max_examples=60, deadline=None)
@given(st.lists(points, min_size=2, max_size=10))
def test_length_at_most_mst_and_at_least_half_perimeter(terminals):
    tree = build_rsmt(terminals)
    unique = list({p.as_tuple(): p for p in terminals}.values())
    # Lower bound: HPWL/... actually RSMT >= half-perimeter of bbox.
    hpwl = (
        max(p.x for p in unique) - min(p.x for p in unique)
        + max(p.y for p in unique) - min(p.y for p in unique)
    )
    assert tree.length() >= hpwl / 2
    # Upper bound: never worse than the Prim MST over terminals.
    mst = _prim_length(unique)
    assert tree.length() <= mst


def _prim_length(pts):
    n = len(pts)
    if n < 2:
        return 0
    in_tree = [False] * n
    dist = [float("inf")] * n
    in_tree[0] = True
    for j in range(1, n):
        dist[j] = manhattan(pts[0], pts[j])
    total = 0
    for _ in range(n - 1):
        best = min(
            (j for j in range(n) if not in_tree[j]), key=lambda j: dist[j]
        )
        total += dist[best]
        in_tree[best] = True
        for j in range(n):
            if not in_tree[j]:
                d = manhattan(pts[best], pts[j])
                if d < dist[j]:
                    dist[j] = d
    return total

