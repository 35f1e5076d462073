"""Planar primitives over exact rationals.

Points are (x, y) tuples of Fractions.  Everything here is decided by the
sign of exact determinants; there are no tolerances.  The kernels
(``orient``, ``cross``, ``area2``, ``clip_convex``) take Fractions (or
ints) and return Fractions, but inside they compute on integer numerators
over a common denominator, and build one Fraction per output value.

A line meets a convex polygon only here.  It is given by an affine
function, as its values at the polygon's vertices, so a caller that has
those values (a level s - tau, ``cross(a, b, .)``, a row of a linear
equation) passes them as they are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateInput

Pt = tuple[Fraction, Fraction]

INSIDE, BOUNDARY, OUTSIDE = "inside", "boundary", "outside"


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the 2x2 determinant of (b - a, c - a): +1 CCW, -1 CW, 0."""
    d = _cross_ints(a, b, c)[0]
    return 1 if d > 0 else (-1 if d < 0 else 0)


def cross(o: Pt, a: Pt, b: Pt) -> Fraction:
    """The determinant of (a - o, b - o)."""
    return Fraction(*_cross_ints(o, a, b))


def _cross_ints(o: Pt, a: Pt, b: Pt) -> tuple[int, int]:
    """cross(o, a, b) as an integer over a positive integer: the 3x3
    determinant of the homogeneous points over their weights' product."""
    ox, oy, ow = _hom(o)
    ax, ay, aw = _hom(a)
    bx, by, bw = _hom(b)
    return (ox * (ay * bw - by * aw) - oy * (ax * bw - bx * aw)
            + ow * (ax * by - bx * ay), ow * aw * bw)


def _hom(p: Pt) -> tuple[int, int, int]:
    """p as integers (X, Y, W) with W > 0 and p = (X/W, Y/W)."""
    x, y = p
    xd, yd = x.denominator, y.denominator
    w = lcm(xd, yd)
    return x.numerator * (w // xd), y.numerator * (w // yd), w


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def area2(verts: tuple[Pt, ...]) -> Fraction:
    """Twice the signed area of a closed polygon (CCW positive)."""
    den = lcm(*[c.denominator for p in verts for c in p])
    xs = [x.numerator * (den // x.denominator) for x, _ in verts]
    ys = [y.numerator * (den // y.denominator) for _, y in verts]
    total = sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1]
                for i in range(len(verts)))
    return Fraction(total, den * den)


def clip_convex(subject: list[Pt], clip: list[Pt]) -> list[Pt]:
    """Intersection of two convex CCW polygons (Sutherland-Hodgman), exact.

    Runs on homogeneous integer coordinates (no per-step normalization);
    returns a possibly empty CCW Fraction vertex list, degenerate results
    as [].
    """
    out = [_hom(p) for p in subject]
    hc = [_hom(p) for p in clip]
    n = len(clip)
    for i in range(n):
        if not out:
            return []
        (ax, ay, aw), (bx, by, bw) = hc[i], hc[(i + 1) % n]
        # the line through a and b: at p, a positive multiple of
        # cross(a, b, p), so positive on the left
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
                g = _gcd(_gcd(abs(rx), abs(ry)), abs(rw))
                if rw < 0:
                    g = -g
                res.append((rx // g, ry // g, rw // g))
        out = res
    pts = [(Fraction(px, pw), Fraction(py, pw)) for (px, py, pw) in out]
    return normalize_poly(pts)


def _gcd(a, b):
    return gcd(a, b) or 1


def line_points(poly, vals) -> list[Pt]:
    """Where the line vals = 0 meets the boundary of a convex polygon: each
    vertex on it, and one point on each edge whose ends it strictly
    separates, in boundary order."""
    out: list[Pt] = []
    n = len(poly)
    for i in range(n):
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp == 0:
            out.append(poly[i])
        elif (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            out.append(_crossing(poly[i], poly[(i + 1) % n], vp, vq))
    return out


def clip_halfplane(poly, vals) -> list[Pt]:
    """Keep the closed side vals >= 0 of a convex polygon."""
    res: list[Pt] = []
    n = len(poly)
    for i in range(n):
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp >= 0:
            res.append(poly[i])
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            res.append(_crossing(poly[i], poly[(i + 1) % n], vp, vq))
    return res


def _crossing(p: Pt, q: Pt, vp, vq) -> Pt:
    """The zero on the edge p q of the affine function with values vp at p
    and vq at q, of opposite signs."""
    t = vp / (vp - vq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def normalize_poly(poly: list[Pt]) -> list[Pt]:
    """Dedupe consecutive and collinear vertices; [] when area vanishes."""
    out: list[Pt] = []
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


def split_convex(poly, vals) -> tuple[list[Pt], list[Pt]]:
    """Split a convex polygon by the line vals = 0.

    Returns the normalized pieces (vals >= 0, vals <= 0); either is [] if
    the line misses the interior.
    """
    neg = [-v for v in vals]
    return (normalize_poly(clip_halfplane(poly, vals)),
            normalize_poly(clip_halfplane(poly, neg)))


def poly_bbox(poly) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def bbox_overlap(b1, b2) -> bool:
    return not (b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1])


def point_in_convex(p: Pt, poly: list[Pt]) -> str:
    """Classification against a convex CCW polygon."""
    n = len(poly)
    on_edge = False
    for i in range(n):
        s = orient(poly[i], poly[(i + 1) % n], p)
        if s < 0:
            return OUTSIDE
        if s == 0:
            if on_segment(p, poly[i], poly[(i + 1) % n]):
                on_edge = True
            else:
                return OUTSIDE
    return BOUNDARY if on_edge else INSIDE


def centroid(poly: list[Pt]) -> Pt:
    """Area centroid of a simple polygon (affine-equivariant)."""
    a_total = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        a_total += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if a_total == 0:
        raise DegenerateInput("centroid of a degenerate polygon")
    return (cx / (3 * a_total), cy / (3 * a_total))
