"""Planar primitives over exact rationals.

Everything here is decided by the sign of exact determinants; there are no
tolerances.  ``orient``, ``on_segment``, ``area2``, ``point_in_convex`` and
``centroid`` take (x, y) tuples of Fractions (``Pt``).  The overlay and line
kernels take and return homogeneous integer points (X, Y, W), W > 0, in
lowest terms (``hom``), so equal points are equal tuples.

A line meets a convex polygon only here.  It is three integers (lx, ly, lw),
positive where lx X + ly Y + lw W > 0, so a caller passes the line it holds
(a level, a row of a linear equation, ``line_through`` a chord), and every
edge crossing is the one integer ``_crossing``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateInput

Pt = tuple[Fraction, Fraction]
Hom = tuple[int, int, int]

INSIDE, BOUNDARY, OUTSIDE = "inside", "boundary", "outside"


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the 2x2 determinant of (b - a, c - a): +1 CCW, -1 CW, 0."""
    d = _det3(hom(a), hom(b), hom(c))
    return 1 if d > 0 else (-1 if d < 0 else 0)


def _det3(o: Hom, a: Hom, b: Hom) -> int:
    """The determinant of (a - o, b - o) times the product of the weights
    of o, a and b."""
    (ox, oy, ow), (ax, ay, aw), (bx, by, bw) = o, a, b
    return (ox * (ay * bw - by * aw) - oy * (ax * bw - bx * aw)
            + ow * (ax * by - bx * ay))


def hom(p: Pt) -> Hom:
    """p = (X/W, Y/W) as integers (X, Y, W) in lowest terms, W > 0."""
    x, y = p
    xd, yd = x.denominator, y.denominator
    w = lcm(xd, yd)
    return x.numerator * (w // xd), y.numerator * (w // yd), w


def lowest(x: int, y: int, w: int) -> Hom:
    """(x/w, y/w), w > 0, in lowest terms, the form ``hom`` gives."""
    k = gcd(x, y, w)
    return x // k, y // k, w // k


def on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def area2(verts: tuple[Pt, ...]) -> Fraction:
    """Twice the signed area of a closed polygon (CCW positive)."""
    return Fraction(*hom_area2([hom(p) for p in verts]))


def clip_convex(subject: list[Hom], clip: list[Hom], subject_lines: list[Hom],
                clip_lines: list[Hom]) -> list[Hom]:
    """Intersection of two convex CCW polygons (Sutherland-Hodgman), exact.

    Takes and returns homogeneous points in lowest terms (``hom``), and
    the ``edge_lines`` of both polygons, which a caller that clips one
    polygon against many computes once; [] when some edge line of either
    polygon has the other on its closed outer side (an edge whose ends
    coincide separates nothing), before any intersection is computed,
    and for any other degenerate result.
    """
    if _separated(clip_lines, subject) or _separated(subject_lines, clip):
        return []
    out = subject
    for line in clip_lines:
        out = _halfplane(out, line)
        if not out:
            return []
    return normalize_poly(out)


def edge_lines(poly: list[Hom]) -> list[Hom]:
    """Each edge's line (``line_through``), positive on its left."""
    return list(map(line_through, poly, poly[1:] + poly[:1]))


def _separated(lines: list[Hom], poly: list[Hom]) -> bool:
    """Some line, not all zero, has all of poly on its closed right side."""
    for lx, ly, lw in lines:
        if lx or ly:
            for px, py, pw in poly:
                if lx * px + ly * py + lw * pw > 0:
                    break
            else:
                return True
    return False


def line_points(poly: list[Hom], line: Hom) -> list[Hom]:
    """Where the line lx X + ly Y + lw W = 0 meets the boundary of a convex
    polygon: each vertex on it, and one point on each edge whose ends it
    strictly separates, in boundary order."""
    lx, ly, lw = line
    vals = [lx * px + ly * py + lw * pw for (px, py, pw) in poly]
    out: list[Hom] = []
    n = len(poly)
    for i in range(n):
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp == 0:
            out.append(poly[i])
        elif (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            out.append(_crossing(poly[i], poly[(i + 1) % n], vp, vq))
    return out


def clip_halfplane(poly: list[Hom], line: Hom) -> list[Hom]:
    """Keep the closed side lx X + ly Y + lw W >= 0 of a convex polygon."""
    return _halfplane(poly, line)


def _halfplane(poly: list[Hom], line: Hom) -> list[Hom]:
    """The Sutherland-Hodgman step of ``clip_halfplane``.  ``clip_convex``
    takes it once per edge line of its clip polygon, so the calls of
    ``clip_halfplane`` (a layer ``bench/tracer.py`` counts) are the cuts
    by a single line."""
    lx, ly, lw = line
    vals = [lx * px + ly * py + lw * pw for (px, py, pw) in poly]
    res: list[Hom] = []
    n = len(poly)
    for i in range(n):
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp >= 0:
            res.append(poly[i])
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            res.append(_crossing(poly[i], poly[(i + 1) % n], vp, vq))
    return res


def _crossing(p: Hom, q: Hom, vp: int, vq: int) -> Hom:
    """The point, in lowest terms, where a line crosses the edge p q, from
    its values vp at p and vq at q, of opposite signs: the line vanishes
    at the homogeneous point vp q - vq p."""
    rx = vp * q[0] - vq * p[0]
    ry = vp * q[1] - vq * p[1]
    rw = vp * q[2] - vq * p[2]
    g = gcd(rx, ry, rw)
    if rw < 0:
        g = -g
    return rx // g, ry // g, rw // g


def line_through(a: Hom, b: Hom) -> Hom:
    """The line (lx, ly, lw) through a and b: its value at p is the
    determinant of (b - a, p - a) times the weights of a, b and p, so it
    is positive left of a -> b."""
    (ax, ay, aw), (bx, by, bw) = a, b
    return ay * bw - by * aw, bx * aw - ax * bw, ax * by - bx * ay


def normalize_poly(poly: list[Hom]) -> list[Hom]:
    """Dedupe consecutive and collinear vertices; [] when area vanishes."""
    out: list[Hom] = []
    for p in poly:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) >= 2 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            if _det3(out[i - 1], out[i], out[(i + 1) % len(out)]) == 0:
                del out[i]
                changed = True
                break
    if len(out) < 3 or hom_area2(out)[0] == 0:
        return []
    return out


def hom_area2(poly: list[Hom]) -> tuple[int, int]:
    """Twice the signed area of a polygon of homogeneous points (CCW
    positive), as an integer over the square of the weights' lcm."""
    den = lcm(*[w for _, _, w in poly])
    return (int_area2([x * (den // w) for x, _, w in poly],
                      [y * (den // w) for _, y, w in poly]), den * den)


def int_area2(xs, ys) -> int:
    """Twice the signed area of the polygon with integer vertices
    (xs[i], ys[i]) (CCW positive)."""
    return sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(len(xs)))


def frac_poly(poly: list[Hom]) -> list[Pt]:
    """Homogeneous points as Fraction points."""
    return [(Fraction(x, w), Fraction(y, w)) for x, y, w in poly]


def split_convex(poly: list[Hom], line: Hom) -> tuple[list[Hom], list[Hom]]:
    """Split a convex polygon by a line.

    Returns the normalized pieces (line >= 0, line <= 0); either is [] if
    the line misses the interior.
    """
    lx, ly, lw = line
    return (normalize_poly(clip_halfplane(poly, line)),
            normalize_poly(clip_halfplane(poly, (-lx, -ly, -lw))))


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
