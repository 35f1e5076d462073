"""Planar primitives over exact rationals.

Points are (x, y) tuples of Fractions.  Everything here is decided by the
sign of exact determinants; there are no tolerances.  ``orient``,
``cross`` and ``area2`` take Fractions but compute on integers; the
overlay kernels (``clip_convex``, ``normalize_poly``, ``hom_area2``) take
integer points (X, Y, W) in lowest terms (``hom``), so tuples compare.

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
Hom = tuple[int, int, int]

INSIDE, BOUNDARY, OUTSIDE = "inside", "boundary", "outside"


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the 2x2 determinant of (b - a, c - a): +1 CCW, -1 CW, 0."""
    d = _det3(hom(a), hom(b), hom(c))
    return 1 if d > 0 else (-1 if d < 0 else 0)


def cross(o: Pt, a: Pt, b: Pt) -> Fraction:
    """The determinant of (a - o, b - o)."""
    o, a, b = hom(o), hom(a), hom(b)
    return Fraction(_det3(o, a, b), o[2] * a[2] * b[2])


def _det3(o: Hom, a: Hom, b: Hom) -> int:
    """cross(o, a, b) times the product of the weights of o, a and b."""
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


def clip_convex(subject: list[Hom], clip: list[Hom]) -> list[Hom]:
    """Intersection of two convex CCW polygons (Sutherland-Hodgman), exact.

    Takes and returns homogeneous points in lowest terms (``hom``); []
    when some edge line of either polygon has the other on its closed
    outer side (an edge whose ends coincide separates nothing), before
    any intersection is computed, and for any other degenerate result.
    """
    lines = _edge_lines(clip)
    if _separated(lines, subject) or _separated(_edge_lines(subject), clip):
        return []
    out = subject
    for lx, ly, lw in lines:
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
                g = gcd(rx, ry, rw)
                if rw < 0:
                    g = -g
                res.append((rx // g, ry // g, rw // g))
        out = res
        if not out:
            return []
    return normalize_poly(out)


def _edge_lines(poly: list[Hom]) -> list[Hom]:
    """Each edge's line (lx, ly, lw): lx X + ly Y + lw W > 0 on its left."""
    return [(ay * bw - by * aw, bx * aw - ax * bw, ax * by - bx * ay)
            for (ax, ay, aw), (bx, by, bw) in zip(poly, poly[1:] + poly[:1])]


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


def split_convex(poly, vals) -> tuple[list[Pt], list[Pt]]:
    """Split a convex polygon by the line vals = 0.

    Returns the normalized pieces (vals >= 0, vals <= 0); either is [] if
    the line misses the interior.
    """
    return tuple(frac_poly(normalize_poly([hom(p) for p in
                                           clip_halfplane(poly, vs)]))
                 for vs in (vals, [-v for v in vals]))


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
