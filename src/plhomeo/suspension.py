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

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInput, OverlayDegenerate, ParseError
from .exact import fmt_pt, mod1
from .geom import Pt, area2, orient

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


@dataclass(frozen=True)
class Affine:
    """x' = a x + b y + c ; y' = d x + e y + f, all rational."""
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def __call__(self, p: Pt) -> Pt:
        x, y = p
        return (self.a * x + self.b * y + self.c,
                self.d * x + self.e * y + self.f)

    @property
    def det(self) -> Fraction:
        return self.a * self.e - self.b * self.d

    def inverse(self) -> "Affine":
        dt = self.det
        if dt == 0:
            raise OverlayDegenerate("affine map not invertible")
        ia, ib = self.e / dt, -self.b / dt
        id_, ie = -self.d / dt, self.a / dt
        return Affine(ia, ib, -(ia * self.c + ib * self.f),
                      id_, ie, -(id_ * self.c + ie * self.f))

    def compose_after(self, other: "Affine") -> "Affine":
        """self o other."""
        o = other
        return Affine(self.a * o.a + self.b * o.d,
                      self.a * o.b + self.b * o.e,
                      self.a * o.c + self.b * o.f + self.c,
                      self.d * o.a + self.e * o.d,
                      self.d * o.b + self.e * o.e,
                      self.d * o.c + self.e * o.f + self.f)


IDENTITY_AFFINE = Affine(Q(1), Q(0), Q(0), Q(0), Q(1), Q(0))


def isometry_affine(t_sign: int, shift: Fraction, s_sign: int) -> Affine:
    """(t, s) -> (t_sign t + shift, s_sign s), the chart form of a model
    isometry."""
    return Affine(Q(t_sign), Q(0), shift, Q(0), Q(s_sign), Q(0))


def affine_from_pairs(src: list[Pt], dst: list[Pt]) -> Affine:
    """The affine map sending three independent source points to targets."""
    i, j, k = _independent_triple(src)
    (x1, y1), (x2, y2), (x3, y3) = src[i], src[j], src[k]
    (u1, v1), (u2, v2), (u3, v3) = dst[i], dst[j], dst[k]
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0:
        raise OverlayDegenerate("degenerate source triple")
    a = ((u2 - u1) * (y3 - y1) - (u3 - u1) * (y2 - y1)) / det
    b = ((u3 - u1) * (x2 - x1) - (u2 - u1) * (x3 - x1)) / det
    c = u1 - a * x1 - b * y1
    d = ((v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)) / det
    e = ((v3 - v1) * (x2 - x1) - (v2 - v1) * (x3 - x1)) / det
    f = v1 - d * x1 - e * y1
    aff = Affine(a, b, c, d, e, f)
    for p, q in zip(src, dst):
        if aff(p) != q:
            raise OverlayDegenerate("point pairs are not affinely compatible")
    return aff


def _independent_triple(pts: list[Pt]) -> tuple[int, int, int]:
    n = len(pts)
    for j in range(1, n):
        for k in range(j + 1, n):
            if orient(pts[0], pts[j], pts[k]) != 0:
                return 0, j, k
    raise OverlayDegenerate("all polygon vertices collinear")


# ---------------------------------------------------------------------------
# triangulated view (the serialized form)


@dataclass
class SuspensionComplex:
    """Triangle view of a chart tiling: vertices plus per-triangle lifts."""
    model: str
    verts: list[Pt]                       # (t in [0,1), s)
    tris: list[tuple[int, int, int]]
    lifts: list[tuple[int, int, int]]

    def chart(self, ti: int) -> list[Pt]:
        (i, j, k), (li, lj, lk) = self.tris[ti], self.lifts[ti]
        return [(self.verts[i][0] + li, self.verts[i][1]),
                (self.verts[j][0] + lj, self.verts[j][1]),
                (self.verts[k][0] + lk, self.verts[k][1])]


def complex_check(cx: SuspensionComplex) -> list[str]:
    """Tiling certificate: CCW charts inside the rectangle, matched edges
    with one boundary cycle per free line, full area."""
    problems: list[str] = []
    lo, hi = s_range(cx.model)
    for t, s in cx.verts:
        if not (0 <= t < 1):
            problems.append(f"vertex angle {t} outside [0,1)")
        if not (lo <= s <= hi):
            problems.append(f"vertex height {s} outside range")
    total = Q(0)
    edge_count: dict[tuple[Pt, Pt], list[int]] = {}
    for ti in range(len(cx.tris)):
        ch = cx.chart(ti)
        a2 = area2(tuple(ch))
        if a2 <= 0:
            problems.append(f"triangle {ti} not positively oriented")
            continue
        total += a2
        for p in ch:
            if not (0 <= p[0] <= 1 and lo <= p[1] <= hi):
                problems.append(f"triangle {ti} leaves the chart rectangle")
        for z in range(3):
            p, q = ch[z], ch[(z + 1) % 3]
            edge_count.setdefault(_edge_key(p, q), []).append(
                1 if p < q else -1)
    expected = 2 * (hi - lo)
    if total != expected:
        problems.append(f"chart area {total} != {expected}")
    for key, signs in edge_count.items():
        (p, q) = key
        on_collapsed = p[1] == q[1] and p[1] in collapsed_levels(cx.model)
        on_boundary = cx.model == DISC and p[1] == q[1] == 1
        if on_collapsed or on_boundary:
            if len(signs) != 1:
                problems.append(f"line edge {fmt_pt(p)} to {fmt_pt(q)} "
                                f"used {len(signs)} times")
        else:
            if len(signs) != 2 or sum(signs) != 0:
                problems.append(f"edge {fmt_pt(p)} to {fmt_pt(q)} not "
                                f"matched: {signs}")
    for level in collapsed_levels(cx.model) + (
            (Q(1),) if cx.model == DISC else ()):
        if not _line_covered(edge_count, level):
            problems.append(f"line s={level} not fully edge-covered")
    return problems


def _edge_key(p: Pt, q: Pt) -> tuple[Pt, Pt]:
    """Canonical key for a model edge: shift the chart back into [0,1)."""
    lo = min(p[0], q[0])
    shift = lo - mod1(lo)
    if min(p[0], q[0]) == 1 and max(p[0], q[0]) == 1:
        shift = Q(1)
    pp = (p[0] - shift, p[1])
    qq = (q[0] - shift, q[1])
    return (pp, qq) if pp < qq else (qq, pp)


def _line_covered(edge_count, level: Fraction) -> bool:
    spans = []
    for (p, q) in edge_count:
        if p[1] == level and q[1] == level:
            spans.append((min(p[0], q[0]), max(p[0], q[0])))
    spans.sort()
    pos = Q(0)
    for a, b in spans:
        if a != pos:
            return False
        pos = b
    return pos == 1


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
