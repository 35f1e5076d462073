import random
from fractions import Fraction

from plhomeo.geom import (BOUNDARY, INSIDE, OUTSIDE, area2, clip_convex,
                          cross, line_points, on_segment, orient,
                          point_in_convex, seg_intersection, split_convex)

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


def _cross_vals(poly, a, b):
    return [cross(a, b, p) for p in poly]


def test_split_convex():
    left, right = split_convex(list(UNIT_SQUARE), _cross_vals(
        UNIT_SQUARE, pt(Q(1, 2), 0), pt(Q(1, 2), 1)))
    assert area2(tuple(left)) == 1 and area2(tuple(right)) == 1
    left, right = split_convex(list(UNIT_SQUARE),
                               _cross_vals(UNIT_SQUARE, pt(5, 0), pt(5, 1)))
    assert right == [] and area2(tuple(left)) == 2


def test_on_segment():
    assert on_segment(pt(1, 1), pt(0, 0), pt(2, 2))
    assert not on_segment(pt(3, 3), pt(0, 0), pt(2, 2))
    assert on_segment(pt(0, 0), pt(0, 0), pt(2, 2))


def _grid_pt(rng, r):
    """A random point of the grid of step 1/4 in [-r/4, r/4]^2."""
    return pt(Q(rng.randint(-r, r), 4), Q(rng.randint(-r, r), 4))


def _random_convex(rng):
    """The CCW convex hull of random grid points."""
    while True:
        pts = sorted({_grid_pt(rng, 20) for _ in range(rng.randint(3, 9))})
        hull = []
        for chain in (pts, pts[::-1]):
            start = len(hull)
            for p in chain:
                while len(hull) >= start + 2 and \
                        orient(hull[-2], hull[-1], p) <= 0:
                    hull.pop()
                hull.append(p)
            hull.pop()
        if len(hull) >= 3:
            return hull


def test_line_points_match_the_edge_oracle():
    rng = random.Random(0)
    for _ in range(50):
        poly = _random_convex(rng)
        n = len(poly)
        i = rng.randrange(n)
        lines = [(_grid_pt(rng, 24), _grid_pt(rng, 24)),
                 (poly[i], _grid_pt(rng, 24)), (poly[i], poly[(i + 1) % n])]
        for a, b in lines:
            if a == b:
                continue
            vals = [cross(a, b, p) for p in poly]
            far = (a[0] + 100 * (b[0] - a[0]), a[1] + 100 * (b[1] - a[1]))
            back = (a[0] - 100 * (b[0] - a[0]), a[1] - 100 * (b[1] - a[1]))
            oracle = set()
            for j in range(n):
                kind, got = seg_intersection(poly[j], poly[(j + 1) % n],
                                             back, far)
                if kind == "point":
                    oracle.add(got)
                elif kind == "overlap":
                    oracle.update(got)
            hits = line_points(poly, vals)
            assert len(hits) == len(set(hits))
            assert set(hits) == oracle
            left, right = split_convex(poly, vals)
            assert area2(tuple(left)) + area2(tuple(right)) == \
                area2(tuple(poly))
            assert all(cross(a, b, p) >= 0 for p in left)
            assert all(cross(a, b, p) <= 0 for p in right)
