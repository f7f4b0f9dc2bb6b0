"""Unit and property tests for the spatial index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geom import Rect
from repro.db import SpatialIndex

DIE = Rect(0, 0, 10000, 10000)


def test_insert_query_remove():
    index = SpatialIndex(DIE)
    index.insert("a", Rect(0, 0, 100, 100))
    index.insert("b", Rect(500, 500, 600, 600))
    assert index.query(Rect(50, 50, 60, 60)) == ["a"]
    assert set(index.query(DIE)) == {"a", "b"}
    index.remove("a")
    assert index.query(Rect(50, 50, 60, 60)) == []
    assert len(index) == 1


def test_remove_unknown_is_noop():
    index = SpatialIndex(DIE)
    index.remove("ghost")
    assert len(index) == 0


def test_move_replaces():
    index = SpatialIndex(DIE)
    index.insert("a", Rect(0, 0, 100, 100))
    index.move("a", Rect(900, 900, 950, 950))
    assert index.query(Rect(0, 0, 200, 200)) == []
    assert index.query(Rect(890, 890, 960, 960)) == ["a"]


def test_strict_vs_touching_query():
    index = SpatialIndex(DIE)
    index.insert("a", Rect(0, 0, 100, 100))
    assert index.query(Rect(100, 0, 200, 100)) == []
    assert index.query(Rect(100, 0, 200, 100), strict=False) == ["a"]


def test_overlapping_pairs():
    index = SpatialIndex(DIE)
    index.insert("a", Rect(0, 0, 100, 100))
    index.insert("b", Rect(50, 50, 150, 150))
    index.insert("c", Rect(150, 150, 250, 250))  # abuts b at a corner only
    assert index.overlapping_pairs() == [("a", "b")]


def test_contains():
    index = SpatialIndex(DIE)
    index.insert("a", Rect(0, 0, 10, 10))
    assert "a" in index
    assert "b" not in index


@st.composite
def boxes(draw):
    lx = draw(st.integers(0, 9000))
    ly = draw(st.integers(0, 9000))
    w = draw(st.integers(1, 900))
    h = draw(st.integers(1, 900))
    return Rect(lx, ly, lx + w, ly + h)


@settings(max_examples=40, deadline=None)
@given(st.lists(boxes(), min_size=1, max_size=30), boxes())
def test_query_matches_brute_force(all_boxes, window):
    index = SpatialIndex(DIE)
    for i, box in enumerate(all_boxes):
        index.insert(f"c{i}", box)
    expected = sorted(
        f"c{i}" for i, box in enumerate(all_boxes) if box.intersects(window)
    )
    assert index.query(window) == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(boxes(), min_size=2, max_size=20))
def test_overlapping_pairs_matches_brute_force(all_boxes):
    index = SpatialIndex(DIE)
    for i, box in enumerate(all_boxes):
        index.insert(f"c{i}", box)
    expected = set()
    for i in range(len(all_boxes)):
        for j in range(i + 1, len(all_boxes)):
            if all_boxes[i].intersects(all_boxes[j]):
                expected.add(tuple(sorted((f"c{i}", f"c{j}"))))
    assert set(index.overlapping_pairs()) == expected
