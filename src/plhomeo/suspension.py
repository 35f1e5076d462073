"""Suspension-coordinate charts for the disc (cone) and sphere (suspension).

The disc is the cylinder [0,1) x [0,1] with the line s = 0 collapsed to the
center; the sphere is [0,1) x [-1,1] with s = 1 collapsed to the north pole N
and s = -1 to the south pole S.  Model isometries are rational affine maps in
this chart, which is the whole point: euclidean cos(2*pi/n) is irrational,
suspension coordinates are not.  Each one is a single affine map
(t, s) -> (+-t + k/n, +-s) up to horizontal integer shifts
(``isometry_affine``), and it is the one description of the isometry.
The verifier builds model o h by following each cell of h with that map
(``maps.follow``), never by overlaying a band complex of the model, and
``ModelIsometry.as_map`` is the identity on vertical bands followed by
the same map.

A complex is a set of convex chart cells tiling the unit rectangle
[0,1] x s-range; vertices on a collapsed line are chart representatives of
the single collapsed model point.  Cells never straddle the meridian t in Z,
so the model literally unfolds to the rectangle for overlay work.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import DegenerateInput, OverlayDegenerate, ParseError
from .exact import fmt_pt, mod1
from .geom import Hom, Pt, lowest

Q = Fraction

DISC, SPHERE = "disc", "sphere"


def s_range(model: str) -> tuple[Fraction, Fraction]:
    if model == DISC:
        return Q(0), Q(1)
    if model == SPHERE:
        return Q(-1), Q(1)
    raise ParseError(f"unknown model {model!r}")


def collapsed_levels(model: str) -> tuple[Fraction, ...]:
    if model == DISC:
        return (Q(0),)
    return (Q(-1), Q(1))


def model_point(model: str, t: Fraction, s: Fraction) -> Pt:
    """Canonical model point: angles mod 1, collapsed levels pinned to t=0."""
    lo, hi = s_range(model)
    if not lo <= s <= hi:
        raise ParseError(f"s={s} outside the {model} range")
    if s in collapsed_levels(model):
        return (Q(0), s)
    return (mod1(t), s)


def is_collapsed(model: str, p: Pt) -> bool:
    return p[1] in collapsed_levels(model)


# ---------------------------------------------------------------------------
# affine chart maps


class Affine(NamedTuple):
    """The chart map (x, y) -> ((a x + b y + c) / w, (d x + e y + f) / w)
    as seven integers, kept canonical: w > 0 and the gcd of all seven is
    1 (``_canonical``), so equality and hash are those of the map.  The
    maps take Fractions (or ints) and return Fractions, or take and
    return homogeneous integer points (``map_hom``)."""
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    w: int

    def __call__(self, p: Pt) -> Pt:
        x, y = p
        xd, yd = x.denominator, y.denominator
        return self.at_hom((x.numerator * yd, y.numerator * xd, xd * yd))

    def at_hom(self, p: Hom) -> Pt:
        """The image of the point (X/Z, Y/Z), given as (X, Y, Z), Z > 0."""
        a, b, c, d, e, f, w = self
        X, Y, Z = p
        return (Q(a * X + b * Y + c * Z, w * Z),
                Q(d * X + e * Y + f * Z, w * Z))

    def map_hom(self, p: Hom) -> Hom:
        """The image of the homogeneous point p = (X, Y, Z), Z > 0, in
        lowest terms (``geom.lowest``)."""
        a, b, c, d, e, f, w = self
        X, Y, Z = p
        return lowest(a * X + b * Y + c * Z, d * X + e * Y + f * Z, w * Z)

    @property
    def det(self) -> int:
        """The determinant times w^2: of its sign, and 0 with it."""
        return self.a * self.e - self.b * self.d

    def shifted(self, m: int) -> "Affine":
        """The map followed by t -> t - m for an integer m, still
        canonical."""
        return self._replace(c=self.c - m * self.w)

    def inverse(self) -> "Affine":
        A, B, C, D, E, F, W = self
        dt = A * E - B * D
        if dt == 0:
            raise OverlayDegenerate("affine map not invertible")
        return _canonical(E * W, -B * W, B * F - C * E,
                          -D * W, A * W, C * D - A * F, dt)

    def compose_after(self, other: "Affine") -> "Affine":
        """self o other."""
        A, B, C, D, E, F, W = self
        a, b, c, d, e, f, w = other
        return _canonical(A * a + B * d, A * b + B * e,
                          A * c + B * f + C * w, D * a + E * d,
                          D * b + E * e, D * c + E * f + F * w, W * w)


def _canonical(a: int, b: int, c: int, d: int, e: int, f: int,
               w: int) -> Affine:
    """The canonical ``Affine`` of seven integers, w != 0: all divided by
    their gcd, signed so that w > 0."""
    g = gcd(a, b, c, d, e, f, w)
    g = g if w > 0 else -g
    return Affine(a // g, b // g, c // g, d // g, e // g, f // g, w // g)


IDENTITY_AFFINE = _canonical(1, 0, 0, 0, 1, 0, 1)


def isometry_affine(t_sign: int, shift: Fraction, s_sign: int) -> Affine:
    """(t, s) -> (t_sign t + shift, s_sign s), the chart form of a model
    isometry."""
    q = shift.denominator
    return _canonical(t_sign * q, 0, shift.numerator, 0, s_sign * q, 0, q)


def affine_from_pairs(S: int, xy, T: int, uv) -> Affine:
    """The affine map sending three independent source points to targets,
    solved by Cramer's rule and checked on every pair on integers: the
    sources given as integer points over S, the targets over T
    (``integer_charts``)."""
    i, j, k = _independent_triple(xy)
    (x1, y1), (x2, y2), (x3, y3) = xy[i], xy[j], xy[k]
    (u1, v1), (u2, v2), (u3, v3) = uv[i], uv[j], uv[k]
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    # then a = S na / (T det), b = S nb / (T det) and c = nc / (T det)
    na = (u2 - u1) * (y3 - y1) - (u3 - u1) * (y2 - y1)
    nb = (x2 - x1) * (u3 - u1) - (x3 - x1) * (u2 - u1)
    nc = u1 * det - na * x1 - nb * y1
    nd = (v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)
    ne = (x2 - x1) * (v3 - v1) - (x3 - x1) * (v2 - v1)
    nf = v1 * det - nd * x1 - ne * y1
    for (x, y), (u, v) in zip(xy, uv):
        if na * x + nb * y + nc != u * det or nd * x + ne * y + nf != v * det:
            raise OverlayDegenerate("point pairs are not affinely compatible")
    return _canonical(S * na, S * nb, nc, S * nd, S * ne, nf, T * det)


def _independent_triple(pts: list[tuple[int, int]]) -> tuple[int, int, int]:
    for j in range(1, len(pts)):
        for k in range(j + 1, len(pts)):
            (x0, y0), (x1, y1), (x2, y2) = pts[0], pts[j], pts[k]
            if (x1 - x0) * (y2 - y0) != (y1 - y0) * (x2 - x0):
                return 0, j, k
    raise OverlayDegenerate("all polygon vertices collinear")


# ---------------------------------------------------------------------------
# tilings, checked on integer coordinates


def integer_charts(polys) -> tuple[int, list[list[tuple[int, int]]]]:
    """Chart polygons as integer points: (D, polys) with each point (x, y)
    given as (X, Y), x = X/D and y = Y/D, over the lcm D of all the
    coordinates' denominators."""
    D = lcm(*{c.denominator for poly in polys for p in poly for c in p})
    return D, [[(x.numerator * (D // x.denominator),
                 y.numerator * (D // y.denominator)) for x, y in poly]
               for poly in polys]


def hom_charts(polys: list[list[Hom]]) -> tuple[
        int, list[list[tuple[int, int]]]]:
    """``integer_charts`` of polygons given as homogeneous points in lowest
    terms: the lcm of their weights is that of the coordinates'
    denominators, so no Fraction is built."""
    D = lcm(*{w for poly in polys for _, _, w in poly})
    return D, [[(x * (D // w), y * (D // w)) for x, y, w in poly]
               for poly in polys]


def chart_point(p: tuple[int, int], D: int) -> Pt:
    """The Fraction point of an integer point over D."""
    return (Q(p[0], D), Q(p[1], D))


def complex_check(model: str, D: int, polys) -> list[str]:
    """Tiling certificate for chart polygons given as integer points over
    D (``integer_charts``), each fan-triangulated from its first vertex.

    The checks, in the order their problems are listed: every vertex
    lies at a height in the s-range, once per model point (X mod D, Y);
    every triangle is CCW, and then inside the chart rectangle; the
    triangles' area is the rectangle's; every edge, keyed by
    ``_int_edge_key``, is matched by one of the opposite direction, except
    on a collapsed line or the disc boundary, where each is used once;
    and those edges cover their line.  A Fraction is built only for a
    message."""
    lo, hi = s_range(model)
    LO, HI = int(lo) * D, int(hi) * D
    lines: dict[int, list] = {int(level) * D: [] for level in (
        collapsed_levels(model) + ((Q(1),) if model == DISC else ()))}
    heights: list[str] = []
    problems: list[str] = []
    seen: set = set()
    total = 0
    edges: dict = {}
    ti = -1
    for poly in polys:
        for i in range(1, len(poly) - 1):
            ti += 1
            ch = (poly[0], poly[i], poly[i + 1])
            for X, Y in ch:
                key = (X % D, Y)
                if key not in seen:
                    seen.add(key)
                    if not LO <= Y <= HI:
                        heights.append(
                            f"vertex height {Q(Y, D)} outside range")
            (ax, ay), (bx, by), (cx, cy) = ch
            a2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if a2 <= 0:
                problems.append(f"triangle {ti} not positively oriented")
                continue
            total += a2
            for X, Y in ch:
                if not (0 <= X <= D and LO <= Y <= HI):
                    problems.append(
                        f"triangle {ti} leaves the chart rectangle")
            for p, q in ((ch[0], ch[1]), (ch[1], ch[2]), (ch[2], ch[0])):
                edges.setdefault(_int_edge_key(p, q, D), []).append(
                    1 if p < q else -1)
    expected = 2 * (hi - lo)
    if total != expected * D * D:
        problems.append(f"chart area {Q(total, D * D)} != {expected}")
    for (p, q), signs in edges.items():
        if p[1] == q[1] and p[1] in lines:
            lines[p[1]].append((p[0], q[0]))
            if len(signs) != 1:
                problems.append(
                    f"line edge {fmt_pt(chart_point(p, D))} to "
                    f"{fmt_pt(chart_point(q, D))} used {len(signs)} times")
        elif len(signs) != 2 or sum(signs) != 0:
            problems.append(f"edge {fmt_pt(chart_point(p, D))} to "
                            f"{fmt_pt(chart_point(q, D))} not matched: "
                            f"{signs}")
    for level, spans in lines.items():
        # an edge key starts in [0, D), so after a gap pos stays -1
        pos = 0
        for x0, x1 in sorted(spans):
            pos = x1 if x0 == pos else -1
        if pos != D:
            problems.append(f"line s={Q(level, D)} not fully edge-covered")
    return heights + problems


def _edge_key(p: Pt, q: Pt) -> tuple[Pt, Pt]:
    """Canonical key for a model edge: shift the chart back into [0,1)."""
    lo = min(p[0], q[0])
    shift = lo - mod1(lo)
    pp = (p[0] - shift, p[1])
    qq = (q[0] - shift, q[1])
    return (pp, qq) if pp < qq else (qq, pp)


def _int_edge_key(p: tuple[int, int], q: tuple[int, int], D: int):
    """``_edge_key`` of two integer points over D."""
    shift = min(p[0], q[0]) // D * D
    pp = (p[0] - shift, p[1])
    qq = (q[0] - shift, q[1])
    return (pp, qq) if pp < qq else (qq, pp)


# ---------------------------------------------------------------------------
# base complexes: vertical bands with n columns


def band_cells(model: str, n: int) -> list[tuple[Pt, ...]]:
    """2n triangles tiling the rectangle with columns [j/n, (j+1)/n]."""
    if n < 3:
        raise DegenerateInput("need at least 3 bands")
    lo, hi = s_range(model)
    cells = []
    for j in range(n):
        a, b = Q(j, n), Q(j + 1, n)
        cells.append(((a, lo), (b, lo), (b, hi)))
        cells.append(((a, lo), (b, hi), (a, hi)))
    return cells
