"""Unit tests for 1-D intervals."""

import pytest

from repro.geom import Interval


def test_malformed_interval():
    with pytest.raises(ValueError):
        Interval(5, 2)


def test_length_and_contains():
    iv = Interval(2, 10)
    assert iv.length == 8
    assert iv.contains(2) and iv.contains(10) and iv.contains(5)
    assert not iv.contains(11)


def test_overlaps():
    assert Interval(0, 5).overlaps(Interval(4, 9))
    assert not Interval(0, 5).overlaps(Interval(5, 9))  # touching, strict
    assert Interval(0, 5).overlaps(Interval(5, 9), strict=False)


def test_intersection():
    assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
    assert Interval(0, 2).intersection(Interval(5, 9)) is None
