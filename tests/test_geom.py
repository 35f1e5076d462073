import random
from fractions import Fraction

from plhomeo.geom import (BOUNDARY, INSIDE, OUTSIDE, area2, clip_convex,
                          on_segment, orient, point_in_convex,
                          seg_intersection, split_convex)

Q = Fraction


def pt(x, y):
    return (Q(x), Q(y))


UNIT_SQUARE = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]


def test_orientation_basic():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_point_in_polygon_examples():
    sq = UNIT_SQUARE
    assert point_in_convex(pt(Q(1, 2), Q(1, 2)), sq) == INSIDE
    assert point_in_convex(pt(0, 0), sq) == BOUNDARY
    assert point_in_convex(pt(5, 5), sq) == OUTSIDE
    assert point_in_convex(pt(Q(1, 2), 0), sq) == BOUNDARY
    assert point_in_convex(pt(Q(1, 2), 1), sq) == BOUNDARY
    # on the line of an edge but beyond its end
    assert point_in_convex(pt(2, 0), sq) == OUTSIDE


def test_point_in_polygon_matches_halfplane_on_convex():
    rng = random.Random(7)
    sq = UNIT_SQUARE
    for _ in range(200):
        p = pt(Q(rng.randint(-8, 16), 8), Q(rng.randint(-8, 16), 8))
        expected = INSIDE
        if not (0 < p[0] < 1 and 0 < p[1] < 1):
            expected = OUTSIDE
        if (p[0] in (0, 1) and 0 <= p[1] <= 1) or (p[1] in (0, 1)
                                                   and 0 <= p[0] <= 1):
            expected = BOUNDARY
        assert point_in_convex(p, sq) == expected


def test_segment_intersection_cases():
    kind, p = seg_intersection(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert kind == "point" and p == pt(1, 1)
    kind, _ = seg_intersection(pt(0, 0), pt(1, 0), pt(2, 1), pt(3, 1))
    assert kind == "none"
    kind, p = seg_intersection(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 5))
    assert kind == "point" and p == pt(1, 0)
    kind, seg = seg_intersection(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))
    assert kind == "overlap" and seg == (pt(1, 0), pt(2, 0))
    kind, p = seg_intersection(pt(0, 0), pt(2, 0), pt(2, 0), pt(3, 0))
    assert kind == "point" and p == pt(2, 0)
    # endpoint in the middle of the other segment
    kind, p = seg_intersection(pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 3))
    assert kind == "point" and p == pt(2, 0)


def test_clip_convex():
    tri = [pt(0, 0), pt(1, 0), pt(0, 1)]
    out = clip_convex(list(UNIT_SQUARE), tri)
    assert area2(tuple(out)) == 1  # half the unit square, doubled
    out = clip_convex(list(UNIT_SQUARE), [pt(5, 5), pt(6, 5), pt(6, 6)])
    assert out == []


def test_split_convex():
    left, right = split_convex(list(UNIT_SQUARE), pt(Q(1, 2), 0), pt(Q(1, 2), 1))
    assert area2(tuple(left)) == 1 and area2(tuple(right)) == 1
    left, right = split_convex(list(UNIT_SQUARE), pt(5, 0), pt(5, 1))
    assert right == [] and area2(tuple(left)) == 2


def test_on_segment():
    assert on_segment(pt(1, 1), pt(0, 0), pt(2, 2))
    assert not on_segment(pt(3, 3), pt(0, 0), pt(2, 2))
    assert on_segment(pt(0, 0), pt(0, 0), pt(2, 2))
