"""The integer overlay kernels against a Fraction reference.

``geom.clip_convex`` and ``geom.normalize_poly`` take and return
homogeneous integer points, and ``clip_convex`` rejects a pair that some
edge line separates before it computes any intersection.  The reference
here is the Sutherland-Hodgman clip and the normalization on Fraction
points, run on every pair.  On seeded pairs of convex CCW polygons that
share an edge or only a vertex, are nested, identical, disjoint or
overlapping, have collinear or repeated vertices, or have coordinates
over distinct primes above 2^61, the kernel must return the reference's
piece, with the same vertices in the same order, and [] exactly where it
does; and it must reject a pair that only touches, or is disjoint,
before it clips.
"""

import random
from fractions import Fraction
from math import gcd

from plhomeo import geom
from plhomeo.geom import (BOUNDARY, INSIDE, OUTSIDE, area2, clip_convex,
                          edge_lines, frac_poly, hom, normalize_poly)

Q = Fraction

# primes above 2^61, one denominator per coordinate
PRIMES = [2305843009213693967, 2305843009214693987, 2305843009216694009,
          2305843009219694033, 2305843009223694089, 2305843009228694107,
          2305843009234694143, 2305843009241694179]


# ---------------------------------------------------------------------------
# Fraction kernels that geom no longer has: helpers of the tests, and the
# reference of ``geom.point_in_convex``


def orient(a, b, c):
    """Sign of the determinant of (b - a, c - a) of Fraction points: +1
    CCW, -1 CW, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def on_segment(p, a, b):
    """p lies on the closed segment [a, b]."""
    return (orient(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def reference_point_in_convex(p, poly):
    """Classification of a Fraction point against a convex CCW polygon of
    Fraction points, edge by edge: outside right of an edge, or on its
    line off the edge."""
    n = len(poly)
    on_edge = False
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        s = orient(a, b, p)
        if s < 0 or (s == 0 and not on_segment(p, a, b)):
            return OUTSIDE
        on_edge = on_edge or s == 0
    return BOUNDARY if on_edge else INSIDE


# ---------------------------------------------------------------------------
# the reference: the kernels on Fraction points


def reference_clip(subject, clip):
    out = [hom(p) for p in subject]
    hc = [hom(p) for p in clip]
    n = len(clip)
    for i in range(n):
        if not out:
            return []
        (ax, ay, aw), (bx, by, bw) = hc[i], hc[(i + 1) % n]
        lx, ly, lw = ay * bw - by * aw, bx * aw - ax * bw, ax * by - bx * ay
        res = []
        m = len(out)
        vals = [lx * px + ly * py + lw * pw for (px, py, pw) in out]
        for j in range(m):
            p, vp = out[j], vals[j]
            q, vq = out[(j + 1) % m], vals[(j + 1) % m]
            if vp >= 0:
                res.append(p)
            if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
                alpha = vp * q[2]
                beta = vq * p[2]
                den = alpha - beta
                rx = alpha * q[0] * p[2] - beta * p[0] * q[2]
                ry = alpha * q[1] * p[2] - beta * p[1] * q[2]
                rw = den * p[2] * q[2]
                g = gcd(gcd(abs(rx), abs(ry)), abs(rw)) or 1
                if rw < 0:
                    g = -g
                res.append((rx // g, ry // g, rw // g))
        out = res
    return reference_normalize([(Q(px, pw), Q(py, pw)) for px, py, pw in out])


def reference_normalize(poly):
    out = []
    for p in poly:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) >= 2 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a, b, c = out[i - 1], out[i], out[(i + 1) % len(out)]
            if orient(a, b, c) == 0:
                del out[i]
                changed = True
                break
    if len(out) < 3 or area2(tuple(out)) == 0:
        return []
    return out


def clip_homs(subject, clip):
    """``clip_convex`` of two polygons of homogeneous points, with the
    edge lines it takes computed here."""
    return clip_convex(subject, clip, edge_lines(subject), edge_lines(clip))


def _clip(subject, clip):
    return frac_poly(clip_homs([hom(p) for p in subject],
                               [hom(p) for p in clip]))


# ---------------------------------------------------------------------------
# seeded convex polygons


def _hull(points):
    """The CCW convex hull, without collinear vertices."""
    pts = sorted(set(points))
    hull = []
    for chain in (pts, pts[::-1]):
        start = len(hull)
        for p in chain:
            while len(hull) >= start + 2 and orient(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        hull.pop()
    return hull


def _coordinate(rng, dens):
    den = rng.choice(dens)
    return Q(rng.randint(-4 * den, 4 * den), den)


def _convex(rng, dens):
    while True:
        hull = _hull([(_coordinate(rng, dens), _coordinate(rng, dens))
                      for _ in range(rng.randint(3, 8))])
        if len(hull) >= 3:
            return hull


def _with_midpoints(poly):
    """poly with the midpoint of each edge inserted: collinear vertices."""
    out = []
    for i, (x, y) in enumerate(poly):
        u, v = poly[(i + 1) % len(poly)]
        out += [(x, y), ((x + u) / 2, (y + v) / 2)]
    return out


def _across_edge(rng, poly):
    """poly turned by a half turn about the midpoint of one of its edges
    a b: a convex CCW polygon on the other side of a b, sharing it."""
    i = rng.randrange(len(poly))
    (ax, ay), (bx, by) = poly[i], poly[(i + 1) % len(poly)]
    return [(ax + bx - x, ay + by - y) for x, y in poly]


def _scaled(poly, t):
    """poly scaled by t about the mean of its vertices."""
    cx = sum(p[0] for p in poly) / len(poly)
    cy = sum(p[1] for p in poly) / len(poly)
    return [(cx + t * (x - cx), cy + t * (y - cy)) for x, y in poly]


def _pairs(rng, dens):
    p = _convex(rng, dens)
    v = rng.choice(p)
    yield "edge", p, _across_edge(rng, p)
    yield "vertex", p, [(2 * v[0] - x, 2 * v[1] - y) for x, y in p]
    yield "nested", p, _scaled(p, Q(rng.randint(1, 9), 10))
    yield "identical", p, list(p)
    yield "disjoint", p, [(x + 20, y) for x, y in p]
    yield "overlapping", p, _convex(rng, dens)
    yield "collinear", _with_midpoints(p), _with_midpoints(_convex(rng, dens))
    # an edge whose two ends coincide, which separates nothing
    q = _scaled(p, Q(rng.randint(11, 19), 10))
    yield "repeated", p[:1] + p, q + q[-1:]


def _check_pairs(rng, dens, rounds, monkeypatch):
    kinds = {}
    for _ in range(rounds):
        for kind, p, q in _pairs(rng, dens):
            for a, b in ((p, q), (q, p)):
                want = reference_clip(a, b)
                if kind in ("edge", "vertex", "disjoint"):
                    assert want == []
                    # rejected by an edge line, before any clipping
                    with monkeypatch.context() as m:
                        m.setattr(geom, "normalize_poly", _refused)
                        assert _clip(a, b) == []
                assert _clip(a, b) == want, kind
                kinds.setdefault(kind, set()).add(bool(want))
    # the random pairs of each kind that can meet in an area met in one
    assert {k for k, seen in kinds.items() if True in seen} == \
        {"nested", "identical", "overlapping", "collinear", "repeated"}


def _refused(poly):
    raise AssertionError("a touching pair was clipped")


def test_clip_matches_the_reference_on_small_denominators(monkeypatch):
    _check_pairs(random.Random(0), [1, 2, 3, 4, 6, 8], 60, monkeypatch)


def test_clip_matches_the_reference_on_prime_denominators_above_2_61(
        monkeypatch):
    assert len(set(PRIMES)) == len(PRIMES)
    assert all(p > 2 ** 61 and pow(2, p - 1, p) == 1 for p in PRIMES)
    _check_pairs(random.Random(1), PRIMES, 15, monkeypatch)


def test_normalize_matches_the_reference():
    rng = random.Random(2)
    for dens in ([1, 2, 3], PRIMES):
        for _ in range(100):
            p = _convex(rng, dens)
            # repeated, collinear and wrapped-around vertices
            poly = _with_midpoints(p) if rng.random() < 0.5 else list(p)
            poly = [q for q in poly for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.3:
                poly.append(poly[0])
            if rng.random() < 0.2:
                poly = poly[:2]
            assert frac_poly(normalize_poly([hom(q) for q in poly])) == \
                reference_normalize(poly)
