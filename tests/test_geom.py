import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from plhomeo.errors import OverlayDegenerate
from plhomeo.exact import mod1
from plhomeo.geom import (BOUNDARY, INSIDE, OUTSIDE, area2, clip_halfplane,
                          frac_poly, hom, line_points, line_through,
                          on_segment, orient, point_in_convex, split_convex)
from plhomeo.maps import _action_key
from plhomeo.suspension import (IDENTITY_AFFINE, Affine, affine_from_pairs,
                                integer_charts, isometry_affine)
from test_clip_convex import PRIMES, _convex, clip_homs, reference_normalize
from test_sphere import seg_intersection

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
    square = [hom(p) for p in UNIT_SQUARE]
    tri = [hom(p) for p in [pt(0, 0), pt(1, 0), pt(0, 1)]]
    out = clip_homs(square, tri)
    assert area2(tuple(frac_poly(out))) == 1  # half the unit square, doubled
    out = clip_homs(square, [hom(p) for p in [pt(5, 5), pt(6, 5),
                                              pt(6, 6)]])
    assert out == []


def _line(a, b):
    """The line through the Fraction points a and b."""
    return line_through(hom(a), hom(b))


def _split(poly, line):
    """``split_convex`` on Fraction points."""
    return tuple(frac_poly(piece) for piece in
                 split_convex([hom(p) for p in poly], line))


def test_split_convex():
    left, right = _split(UNIT_SQUARE, _line(pt(Q(1, 2), 0), pt(Q(1, 2), 1)))
    assert area2(tuple(left)) == 1 and area2(tuple(right)) == 1
    left, right = _split(UNIT_SQUARE, _line(pt(5, 0), pt(5, 1)))
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
            line = _line(a, b)
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
            hits = frac_poly(line_points([hom(p) for p in poly], line))
            assert len(hits) == len(set(hits))
            assert set(hits) == oracle
            left, right = _split(poly, line)
            assert area2(tuple(left)) + area2(tuple(right)) == \
                area2(tuple(poly))
            assert all(_cross_oracle(a, b, p) >= 0 for p in left)
            assert all(_cross_oracle(a, b, p) <= 0 for p in right)


def _crossing_oracle(p, q, vp, vq):
    t = vp / (vp - vq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _line_points_oracle(poly, vals):
    out = []
    n = len(poly)
    for i in range(n):
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp == 0:
            out.append(poly[i])
        elif (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            out.append(_crossing_oracle(poly[i], poly[(i + 1) % n], vp, vq))
    return out


def _clip_halfplane_oracle(poly, vals):
    res = []
    n = len(poly)
    for i in range(n):
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp >= 0:
            res.append(poly[i])
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            res.append(_crossing_oracle(poly[i], poly[(i + 1) % n], vp, vq))
    return res


def _split_convex_oracle(poly, vals):
    return tuple(reference_normalize(_clip_halfplane_oracle(poly, vs))
                 for vs in (vals, [-v for v in vals]))


def test_line_kernels_match_the_fraction_formulas():
    """``line_points``, ``clip_halfplane`` and ``split_convex`` on integer
    points give the points of the Fraction formulas, in the same order,
    for coordinates over distinct primes above 2^61: random lines, lines
    through a vertex and lines along an edge of random convex polygons."""
    rng = random.Random(5)
    crossed = missed = 0
    for _ in range(40):
        poly = _convex(rng, PRIMES)
        n = len(poly)
        i = rng.randrange(n)
        mean = (sum(x for x, _ in poly) / n, sum(y for _, y in poly) / n)
        far, near = _convex(rng, PRIMES)[:2]
        for a, b in ((far, near), (far, mean), (poly[i], near),
                     (poly[i], poly[(i + 1) % n])):
            if a == b:
                continue
            vals = [_cross_oracle(a, b, p) for p in poly]
            hp = [hom(p) for p in poly]
            line = _line(a, b)
            assert frac_poly(line_points(hp, line)) == \
                _line_points_oracle(poly, vals)
            for lv, vs in ((line, vals),
                           (tuple(-c for c in line), [-v for v in vals])):
                assert frac_poly(clip_halfplane(hp, lv)) == \
                    _clip_halfplane_oracle(poly, vs)
            assert _split(poly, line) == _split_convex_oracle(poly, vals)
            crossed += min(vals) < 0 < max(vals)
            missed += min(vals) > 0 or max(vals) < 0
    assert crossed > 40 and missed > 5


# Oracles: the kernels written in Fraction arithmetic.

def _orient_oracle(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 1 if d > 0 else (-1 if d < 0 else 0)


def _cross_oracle(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _area2_oracle(verts):
    total = Fraction(0)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _mod1_oracle(q):
    return q - (q.numerator // q.denominator)


def affine_of(a, b, c, d, e, f):
    """The ``Affine`` of x' = a x + b y + c, y' = d x + e y + f, for
    rational coefficients: their numerators over the lcm w of their
    denominators.  A prime power dividing w exactly divides some
    coefficient's denominator, whose numerator over w that prime then does
    not divide, so the seven integers are canonical."""
    cs = [Q(q) for q in (a, b, c, d, e, f)]
    w = lcm(*[q.denominator for q in cs])
    return Affine(*[q.numerator * (w // q.denominator) for q in cs], w)


def fractions_of(A):
    """A's six coefficients as Fractions, the fields the oracles read."""
    return SimpleNamespace(**{k: Q(getattr(A, k), A.w) for k in "abcdef"})


def _call_oracle(A, p):
    x, y = p
    return (A.a * x + A.b * y + A.c, A.d * x + A.e * y + A.f)


def _det_oracle(A):
    return A.a * A.e - A.b * A.d


def _inverse_oracle(A):
    # as a Fraction, so that int coefficients do not divide into floats
    dt = Q(_det_oracle(A))
    if dt == 0:
        raise OverlayDegenerate("affine map not invertible")
    ia, ib = A.e / dt, -A.b / dt
    id_, ie = -A.d / dt, A.a / dt
    return affine_of(ia, ib, -(ia * A.c + ib * A.f),
                     id_, ie, -(id_ * A.c + ie * A.f))


def _compose_oracle(A, o):
    return affine_of(A.a * o.a + A.b * o.d, A.a * o.b + A.b * o.e,
                     A.a * o.c + A.b * o.f + A.c, A.d * o.a + A.e * o.d,
                     A.d * o.b + A.e * o.e, A.d * o.c + A.e * o.f + A.f)


def on_integers(src, dst):
    """The arguments of ``affine_from_pairs`` for Fraction point lists:
    (S, src over S, T, dst over T) (``integer_charts``)."""
    (S, (xy,)), (T, (uv,)) = integer_charts([src]), integer_charts([dst])
    return S, xy, T, uv


def _affine_from_pairs_oracle(src, dst):
    (x1, y1), (x2, y2), (x3, y3) = src
    (u1, v1), (u2, v2), (u3, v3) = dst
    # as a Fraction, so that int coordinates do not divide into floats
    det = Q((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    a = ((u2 - u1) * (y3 - y1) - (u3 - u1) * (y2 - y1)) / det
    b = ((u3 - u1) * (x2 - x1) - (u2 - u1) * (x3 - x1)) / det
    d = ((v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)) / det
    e = ((v3 - v1) * (x2 - x1) - (v2 - v1) * (x3 - x1)) / det
    return affine_of(a, b, u1 - a * x1 - b * y1, d, e, v1 - d * x1 - e * y1)


def _rat(rng):
    """A small int, or a Fraction of either sign with a denominator of up
    to 100 bits."""
    if rng.random() < 0.3:
        return rng.randint(-5, 5)
    return _big(rng, rng.randint(1, 2 ** rng.randint(0, 100)))


def _big(rng, den):
    """A Fraction of either sign over den, within 4 of zero."""
    return Q(rng.randint(-4 * den, 4 * den), den)


def _same(got, want):
    assert got == want
    if isinstance(want, Fraction):
        assert type(got) is Fraction
    if isinstance(want, tuple):
        for g, w in zip(got, want):
            _same(g, w)


def test_integer_kernels_match_the_fraction_formulas():
    rng = random.Random(0)
    for _ in range(400):
        a, b, p = [(_rat(rng), _rat(rng)) for _ in range(3)]
        t = _rat(rng)
        on_ab = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        for c in (p, on_ab, a):
            _same(orient(a, b, c), _orient_oracle(a, b, c))
            ha, hb, hc = hom(a), hom(b), hom(c)
            lx, ly, lw = line_through(ha, hb)
            assert lx * hc[0] + ly * hc[1] + lw * hc[2] == \
                _cross_oracle(a, b, c) * ha[2] * hb[2] * hc[2]
        poly = (a, b, p, on_ab)[:rng.randint(1, 4)]
        _same(area2(poly), _area2_oracle(poly))
        _same(mod1(t), _mod1_oracle(t))
        A = affine_of(*[_rat(rng) for _ in range(6)])
        B = affine_of(*[_rat(rng) for _ in range(6)])
        if orient(a, b, p) != 0:
            src = [a, b, p, on_ab]
            dst = [A(q) for q in src]
            _same(affine_from_pairs(*on_integers(src, dst)),
                  _affine_from_pairs_oracle(src[:3], dst[:3]))
            dst[3] = (dst[3][0] + 1, dst[3][1])
            with pytest.raises(OverlayDegenerate, match=INCOMPATIBLE):
                affine_from_pairs(*on_integers(src, dst))
        # a singular map: second row a multiple of the first
        fa = fractions_of(A)
        S = affine_of(fa.a, fa.b, fa.c, t * fa.a, t * fa.b, fa.f)
        for M in (A, B, S):
            fm, fb = fractions_of(M), fractions_of(B)
            _same(M(p), _call_oracle(fm, p))
            # det is the determinant times w^2
            _same(Q(M.det, M.w ** 2), _det_oracle(fm))
            _same(M.compose_after(B), _compose_oracle(fm, fb))
            if _det_oracle(fm) == 0:
                with pytest.raises(OverlayDegenerate):
                    M.inverse()
            else:
                _same(M.inverse(), _inverse_oracle(fm))
    # coordinates and coefficients over distinct primes above 2^61
    for _ in range(40):
        dens = rng.sample(PRIMES, len(PRIMES))
        src = [(_big(rng, dens[2 * i]), _big(rng, dens[2 * i + 1]))
               for i in range(4)]
        A = affine_of(*[_big(rng, dens[rng.randrange(8)])
                        for _ in range(6)])
        dst = [A(q) for q in src]
        if orient(*src[:3]) != 0:
            _same(affine_from_pairs(*on_integers(src, dst)),
                  _affine_from_pairs_oracle(src[:3], dst[:3]))
            dst[3] = (dst[3][0], dst[3][1] + Q(1, dens[0]))
            with pytest.raises(OverlayDegenerate, match=INCOMPATIBLE):
                affine_from_pairs(*on_integers(src, dst))
        line = [(src[0][0] + t * src[1][0], src[0][1] + t * src[1][1])
                for t in (0, 1, Q(1, dens[2]), -3)]
        with pytest.raises(OverlayDegenerate, match=COLLINEAR):
            affine_from_pairs(*on_integers(line, [A(q) for q in line]))


INCOMPATIBLE = "^point pairs are not affinely compatible$"
COLLINEAR = "^all polygon vertices collinear$"


def _fraction_action_key(A):
    """The key of two cells that act alike, on Fractions."""
    return (A.a, A.b, mod1(A.c), A.d, A.e, A.f)


def test_action_key_agrees_with_the_fraction_key():
    rng = random.Random(4)
    affines = []
    for _ in range(40):
        # few distinct values, so that random keys also coincide
        a, b, c, d, e, f = [Q(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                            for _ in range(6)]
        affines += [affine_of(a, b, c, d, e, f),
                    affine_of(a, b, c + rng.randint(-3, 3), d, e, f),
                    affine_of(a, b, c + Q(1, 2), d, e, f)]
    equal = 0
    for A in affines:
        for B in affines:
            same = _fraction_action_key(fractions_of(A)) == \
                _fraction_action_key(fractions_of(B))
            assert (_action_key(A) == _action_key(B)) == same
            equal += same
    assert len(affines) < equal < len(affines) ** 2


def test_affines_equal_as_maps_are_equal_however_built():
    """An ``Affine`` is canonical, w > 0 and the gcd of its seven integers
    1, so two that are equal as maps compare and hash equal, whichever
    constructor built them."""
    A = affine_of(Q(1, 2), Q(-3, 4), Q(7, 3), Q(0), Q(5, 6), Q(-1))
    pts = [(Q(0), Q(0)), (Q(1, 3), Q(0)), (Q(0), Q(2, 5)), (Q(1), Q(1))]
    big = [(x * 7 + Q(1, 11), y * 5) for x, y in pts]
    pairs = [
        (A.compose_after(A.inverse()), IDENTITY_AFFINE),
        (A.inverse().compose_after(A), IDENTITY_AFFINE),
        (isometry_affine(1, Q(2, 4), 1), isometry_affine(1, Q(1, 2), 1)),
        (isometry_affine(-1, Q(3), 1), affine_of(-1, 0, 3, 0, 1, 0)),
        # the same points over different S and T
        (affine_from_pairs(*on_integers(pts, [A(p) for p in pts])), A),
        (affine_from_pairs(*on_integers(big, [A(p) for p in big])), A),
        (affine_from_pairs(*on_integers(pts + [(Q(1, 7), Q(0))],
                                        [A(p) for p in pts] +
                                        [A((Q(1, 7), Q(0)))])), A),
        (A.shifted(3).shifted(-3), A),
        (A.shifted(2), affine_of(Q(1, 2), Q(-3, 4), Q(7, 3) - 2, Q(0),
                                 Q(5, 6), Q(-1))),
    ]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want)
        assert got.w > 0
        assert gcd(got.a, got.b, got.c, got.d, got.e, got.f, got.w) == 1
        assert all(type(getattr(got, k)) is int for k in "abcdefw")
    assert A.shifted(1) != A
    assert _action_key(A.shifted(1)) == _action_key(A)
    # a negative denominator and a common factor are divided out
    M = affine_from_pairs(1, [(0, 0), (0, 1), (1, 0)],
                          2, [(0, 0), (0, 2), (2, 0)])
    assert M == IDENTITY_AFFINE
