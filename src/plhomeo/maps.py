"""Cellwise-affine self-homeomorphisms of the disc and sphere models.

A PLMap2 is a list of convex chart cells tiling the unit rectangle, each
with its affine image; the model map is the induced quotient map.  All
operations (evaluation, composition, inversion, iteration, period and
fixed-set computation, validation) are exact.

Composition keeps the refined pieces as cells, so the source of f^n is the
common refinement of the pullbacks of f's cells under all lower iterates;
for periodic f that refinement is permuted cell-to-cell by f, which is what
the equivariant machinery needs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor

from .circle import CirclePL, period_circle
from .errors import OverlayDegenerate, ParseError, StructureViolated
from .exact import fmt_pt, mod1
from .geom import (Pt, area2, bbox_overlap, clip_convex, clip_halfplane,
                   line_points, point_in_convex, poly_bbox, INSIDE, OUTSIDE)
from .suspension import (Affine, SuspensionComplex, affine_from_pairs,
                         band_cells, collapsed_levels, complex_check,
                         is_collapsed, model_point, s_range, DISC, SPHERE)

Q = Fraction


def shift_into_unit(poly) -> tuple[int, tuple[Pt, ...]]:
    """Translate a chart polygon into [0,1] horizontally; error if it
    straddles a meridian."""
    xs = [p[0] for p in poly]
    m = floor(min(xs))
    if max(xs) > m + 1:
        m += 1
        if min(xs) < m:
            raise OverlayDegenerate("cell straddles the meridian")
    return m, tuple((x - m, y) for x, y in poly)


def ccw(poly):
    return tuple(poly) if area2(tuple(poly)) > 0 else tuple(reversed(poly))


def poly_key(poly) -> tuple[Pt, ...]:
    """Canonical key: unit-shifted, CCW, rotated to the smallest vertex."""
    _, p = shift_into_unit(ccw(poly))
    k = min(range(len(p)), key=lambda i: p[i])
    return tuple(p[k:] + p[:k])


@dataclass(frozen=True)
class CellMap:
    poly: tuple[Pt, ...]   # CCW convex chart polygon inside [0,1] x s-range
    img: tuple[Pt, ...]    # image chart points, aligned with poly


@dataclass
class PLMap2:
    """``affines``, when given, is the affine map of each cell, aligned
    with ``cells``; whoever passes it vouches that each one sends its
    cell's ``poly`` to its ``img``.  Otherwise ``affine`` solves each one
    from the cell's vertices when it is first asked for."""
    model: str
    cells: list[CellMap]
    affines: list[Affine] | None = field(default=None, repr=False,
                                         compare=False)
    _bboxes: list = field(default=None, repr=False, compare=False)
    _xindex: tuple = field(default=None, repr=False, compare=False)
    _pows: dict = field(default=None, repr=False, compare=False)

    def affine(self, i: int) -> Affine:
        if self.affines is None:
            self.affines = [None] * len(self.cells)
        if self.affines[i] is None:
            c = self.cells[i]
            self.affines[i] = affine_from_pairs(list(c.poly), list(c.img))
        return self.affines[i]

    def bbox(self, i: int):
        if self._bboxes is None:
            self._bboxes = [poly_bbox(c.poly) for c in self.cells]
        return self._bboxes[i]

    def cells_from_left(self, x: Fraction) -> list[int]:
        """The cells whose box starts at or left of x, in min-x order: the
        only ones that can meet a point or box ending at x."""
        if self._xindex is None:
            order = sorted(range(len(self.cells)), key=lambda i: self.bbox(i)[0])
            self._xindex = (order, [self.bbox(i)[0] for i in order])
        order, minxs = self._xindex
        return order[:bisect_right(minxs, x)]

    @property
    def orientation_sign(self) -> int:
        return 1 if self.affine(0).det > 0 else -1

    def pow_cache(self) -> dict:
        if self._pows is None:
            self._pows = {}
        return self._pows


def identity_map(model: str, cells=None) -> PLMap2:
    if cells is None:
        cells = band_cells(model, 4)
    return PLMap2(model, [CellMap(tuple(c), tuple(c)) for c in cells])


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: PLMap2, p: Pt) -> Pt:
    """Image of a model point, exactly; ties go to the lowest cell index."""
    t, s = model_point(f.model, p[0], p[1])
    if is_collapsed(f.model, (t, s)):
        return _collapsed_image(f, s)
    idx, chart = locate_cell(f, (t, s))
    x, y = f.affine(idx)(chart)
    return model_point(f.model, x, y)


def locate_cell(f: PLMap2, p: Pt) -> tuple[int, Pt]:
    """Lowest-index cell whose chart contains p (or its +1 translate)."""
    candidates = [p] if p[0] != 0 else [p, (p[0] + 1, p[1])]
    best = None
    best_q = None
    for q in candidates:
        for i in f.cells_from_left(q[0]):
            if best is not None and i >= best:
                continue
            bb = f.bbox(i)
            if bb[2] < q[0] or bb[1] > q[1] or bb[3] < q[1]:
                continue
            if point_in_convex(q, list(f.cells[i].poly)) != OUTSIDE:
                best = i
                best_q = q
    if best is None:
        raise StructureViolated(f"point {fmt_pt(p)} not covered by any cell")
    return best, best_q


def _collapsed_image(f: PLMap2, level: Fraction) -> Pt:
    for c in f.cells:
        for (x, y), (xi, yi) in zip(c.poly, c.img):
            if y == level:
                return model_point(f.model, Q(0), yi)
    raise StructureViolated("no cell touches the collapsed line")


# ---------------------------------------------------------------------------
# composition and friends


def compose(f: PLMap2, g: PLMap2) -> PLMap2:
    """g after f.  Cells: pieces of f's cells whose f-image fits one g-cell.

    The pieces tile each cell of f, which the area check below confirms, so
    the result tiles the chart rectangle wherever f's cells do.  Each piece
    carries its affine map, g's on that g-cell after f's shifted into the
    unit chart, so the result never solves one from its vertices.  A model
    isometry is one affine map, so following f by it needs no overlay:
    ``follow`` does that and keeps f's cells."""
    if f.model != g.model:
        raise ParseError("cannot compose maps on different models")
    out: list[CellMap] = []
    affines: list[Affine] = []
    for ci, cell in enumerate(f.cells):
        A = f.affine(ci)
        img = [A(p) for p in cell.poly]
        m, img_u = shift_into_unit(img)
        img_ccw = list(img_u) if A.det > 0 else list(reversed(img_u))
        Ainv = A.inverse()
        A_unit = Affine(A.a, A.b, A.c - m, A.d, A.e, A.f)
        target = area2(tuple(img_ccw))
        got = Q(0)
        boxi = poly_bbox(img_ccw)
        for di in g.cells_from_left(boxi[2]):
            gb = g.bbox(di)
            if gb[2] < boxi[0] or gb[3] < boxi[1] or boxi[3] < gb[1]:
                continue
            piece = clip_convex(img_ccw, g.cells[di].poly)
            if not piece:
                continue
            got += area2(tuple(piece))
            B = g.affine(di)
            src = [Ainv((x + m, y)) for x, y in piece]
            new_img = [B(p) for p in piece]
            if A.det < 0:
                src.reverse()
                new_img.reverse()
            out.append(CellMap(tuple(src), tuple(new_img)))
            affines.append(B.compose_after(A_unit))
        if got != target:
            raise OverlayDegenerate("composition pieces fail to tile a cell")
    return PLMap2(f.model, out, affines)


def follow(h: PLMap2, R: Affine) -> PLMap2:
    """R after h, for an affine R that keeps the chart's s-range, such as
    a model isometry (``suspension.isometry_affine``).

    The cells are h's cells, cut only where their image under R o A_h
    crosses an integer meridian, so the result tiles the chart rectangle
    exactly where h's cells do.  Each piece carries R o A_h shifted into
    the unit chart; the cuts come from the first row of that map, so no
    inverse is taken, and an image that still straddles a meridian raises
    in ``shift_into_unit``."""
    out: list[CellMap] = []
    affines: list[Affine] = []
    for ci, cell in enumerate(h.cells):
        B = R.compose_after(h.affine(ci))
        for poly in _meridian_pieces(list(cell.poly), B):
            m, img = shift_into_unit([B(p) for p in poly])
            out.append(CellMap(tuple(poly), img))
            affines.append(Affine(B.a, B.b, B.c - m, B.d, B.e, B.f))
    return PLMap2(h.model, out, affines)


def _meridian_pieces(poly: list[Pt], B: Affine) -> list[list[Pt]]:
    """A convex CCW polygon cut along the lines B.a x + B.b y + B.c = m
    for the integers m strictly inside the range of that functional on
    it, in order of m; the polygon itself when no such m exists."""
    def level(p):
        return B.a * p[0] + B.b * p[1] + B.c

    vals = [level(p) for p in poly]
    pieces = []
    for m in range(floor(min(vals)) + 1, ceil(max(vals))):
        vs = [level(p) - m for p in poly]
        pieces.append(clip_halfplane(poly, [-v for v in vs]))
        poly = clip_halfplane(poly, vs)
    pieces.append(poly)
    return pieces


def inverse(f: PLMap2) -> PLMap2:
    out = []
    for cell in f.cells:
        _, img_u = shift_into_unit(cell.img)
        poly = list(img_u)          # index-aligned with cell.poly
        img = list(cell.poly)
        if area2(tuple(poly)) < 0:
            poly.reverse()
            img.reverse()
        out.append(CellMap(tuple(poly), tuple(img)))
    return PLMap2(f.model, out)


def power(f: PLMap2, m: int) -> PLMap2:
    """f^m for m >= 0, built by left composition with f and memoized on f.

    Each iterate is f^(m-1) followed by f, so the source cells of f^m are
    the common refinement of the pullbacks of f's own cells under all lower
    iterates.  For periodic f that refinement is permuted cell-to-cell by
    f, which the equivariant machinery relies on; every caller therefore
    shares these iterates, and ``period`` builds the ones the analysis and
    the certificate need."""
    cache = f.pow_cache()
    if not cache:
        cache[0] = identity_map(f.model, [list(c.poly) for c in f.cells])
        cache[1] = f
    best = max(i for i in cache if i <= m)
    out = cache[best]
    for i in range(best + 1, m + 1):
        out = compose(out, f)
        cache[i] = out
    return out


def unit_rotation_power(f: PLMap2, k: int, n: int) -> PLMap2:
    """f^j with j k = 1 (mod n): the iterate of a map of rotation class k/n
    whose class is 1/n."""
    return power(f, pow(k, -1, n))


def is_model_rotation(f: PLMap2):
    """The exact rotation angle if f is (t, s) -> (t + c, s); else None."""
    c = None
    for i in range(len(f.cells)):
        a = f.affine(i)
        if not (a.a == 1 and a.b == 0 and a.d == 0 and a.e == 1
                and a.f == 0):
            return None
        cc = mod1(a.c)
        if c is None:
            c = cc
        elif cc != c:
            return None
    return c


def is_identity(f: PLMap2) -> bool:
    return is_model_rotation(f) == 0


def _action_key(A: Affine) -> tuple:
    """Two cells act alike as model maps exactly when their affine maps
    differ by a horizontal integer shift, that is when these keys agree."""
    return (A.a, A.b, mod1(A.c), A.d, A.e, A.f)


def _mismatches(f: PLMap2, g: PLMap2):
    """Every overlap piece of a cell of f with a cell of g on which their
    affine actions differ by more than a horizontal integer shift, in the
    order of the cell index pairs.

    Precondition: g's cells tile the chart rectangle, as the right-hand
    side that ``check_certificate`` builds with ``follow`` does wherever
    h's domain cells do.  Then a cell of f is the union of its pieces, so
    it has a differing piece exactly when the pieces it shares with g's
    cells of its own action cover less than its area.  Only such a cell
    is clipped against all g-cells near it; so on equal maps each cell is
    clipped only against g-cells that act alike.
    A cell left uncovered without a differing piece, or covered beyond its
    area, proves the precondition false and raises StructureViolated."""
    alike: dict[tuple, list[int]] = {}
    for di in range(len(g.cells)):
        alike.setdefault(_action_key(g.affine(di)), []).append(di)
    for ci, cell in enumerate(f.cells):
        key = _action_key(f.affine(ci))
        box = f.bbox(ci)
        covered = Q(0)
        for di in alike.get(key, ()):
            if bbox_overlap(box, g.bbox(di)):
                piece = clip_convex(cell.poly, g.cells[di].poly)
                if piece:
                    covered += area2(tuple(piece))
        target = area2(cell.poly)
        if covered > target:
            raise StructureViolated("cells of the map compared with overlap")
        if covered == target:
            continue
        near = sorted(di for di in g.cells_from_left(box[2])
                      if bbox_overlap(box, g.bbox(di)))
        differs = False
        for di in near:
            piece = clip_convex(cell.poly, g.cells[di].poly)
            if piece and _action_key(g.affine(di)) != key:
                differs = True
                yield piece
        if not differs:
            raise StructureViolated(
                "cells of the map compared with do not cover the chart")


def first_disagreement(f: PLMap2, g: PLMap2):
    """A witness model point where the two maps differ, or None when they
    are equal as model maps: the same affine action, up to horizontal
    integer shifts, on every overlap piece.

    g's cells must tile the chart rectangle (see ``_mismatches``); then a
    cell of f is clipped against all of g only when it differs somewhere.
    The witness lies on the first differing overlap piece in the order of
    the cell index pairs.  Maps on different models cannot be compared
    and raise ParseError."""
    if f.model != g.model:
        raise ParseError("cannot compare maps on different models")
    for piece in _mismatches(f, g):
        # centroid of the piece disagrees or a corner does
        for p in piece:
            if evaluate(f, model_point(f.model, mod1(p[0]), p[1])) != \
                    evaluate(g, model_point(g.model, mod1(p[0]), p[1])):
                return model_point(f.model, mod1(p[0]), p[1])
        cx = sum(p[0] for p in piece) / len(piece)
        cy = sum(p[1] for p in piece) / len(piece)
        return model_point(f.model, mod1(cx), cy)
    return None


def map_equal(f: PLMap2, g: PLMap2) -> bool:
    """Equality as model maps; False for maps on different models.  The
    verifier takes its verdict and its witness from one
    ``first_disagreement`` scan and does not call this."""
    return f.model == g.model and first_disagreement(f, g) is None


def period(f: PLMap2) -> int | None:
    """The period of f, or None when f is not periodic.

    The candidate n is the period of the circle map on s = 1, the disc
    boundary or the link of the north pole; when f swaps the poles, it is
    twice the period of that circle map of f^2, since odd iterates swap
    them.  A periodic f has no other period, because an iterate that is
    the identity on that circle is the identity.  On the disc, it is
    conjugate to an isometry (Kerekjarto) that fixes the boundary circle.
    At a fixed pole, it maps each ray of a small star into itself with a
    slope that periodicity forces to be 1; so it is the identity near the
    pole, and by Newman's theorem everywhere.  Hence f^n = id confirms n,
    and f^n != id proves that f is not periodic.  Only the search for the
    circle period is bounded, by ``circle.MAX_PERIOD``."""
    swaps = f.model == SPHERE and _collapsed_image(f, Q(1))[1] != 1
    m = period_circle(boundary_restriction(power(f, 2) if swaps else f))
    if m is None:
        return None
    n = 2 * m if swaps else m
    return n if is_identity(power(f, n)) else None


def orientation(f: PLMap2) -> str:
    return "preserving" if f.orientation_sign > 0 else "reversing"


# ---------------------------------------------------------------------------
# fixed sets


@dataclass
class FixedSet:
    zero: list[Pt]               # isolated fixed model points
    one: list[list[Pt]]          # maximal fixed arcs (model point chains)
    two: list[tuple[Pt, ...]]    # fixed 2-cells (chart polygons)
    everything: bool
    segments: list[tuple[Pt, Pt]] = field(default_factory=list)  # chart form

    def is_empty(self) -> bool:
        return not (self.zero or self.one or self.two or self.everything)


def fixed_set(f: PLMap2) -> FixedSet:
    lo, hi = s_range(f.model)
    zero_chart: list[Pt] = []
    segs: list[tuple[Pt, Pt]] = []
    two: list[tuple[Pt, ...]] = []
    for ci, cell in enumerate(f.cells):
        A = f.affine(ci)
        disp = [A(p)[0] - p[0] for p in cell.poly]
        dlo, dhi = min(disp), max(disp)
        for delta in range(ceil(dlo), floor(dhi) + 1):
            kind, data = _fixed_in_cell(A, list(cell.poly), delta)
            if kind == "point":
                zero_chart.append(data)
            elif kind == "segment":
                segs.append(data)
            elif kind == "cell":
                two.append(cell.poly)
    total2 = sum(area2(p) for p in two)
    if total2 == 2 * (hi - lo):
        return FixedSet([], [], [], True)
    # poles / apex: fixed iff their collapsed line maps to itself
    for level in collapsed_levels(f.model):
        img = _collapsed_image(f, level)
        if img[1] == level:
            zero_chart.append((Q(0), level))
    zero, chains, canon_segs = _assemble_fixed(f.model, zero_chart, segs)
    return FixedSet(zero, chains, two, False, canon_segs)


def _fixed_in_cell(A: Affine, poly: list[Pt], delta: int):
    """Solve A(x) = x + (delta, 0) on a convex cell."""
    m11, m12, m21, m22 = A.a - 1, A.b, A.d, A.e - 1
    r1, r2 = Q(delta) - A.c, -A.f
    det = m11 * m22 - m12 * m21
    if det != 0:
        x = (r1 * m22 - m12 * r2) / det
        y = (m11 * r2 - r1 * m21) / det
        if point_in_convex((x, y), poly) != OUTSIDE:
            return "point", (x, y)
        return "none", None
    if m11 == m12 == m21 == m22 == 0:
        if r1 == 0 and r2 == 0:
            return "cell", None
        return "none", None
    # singular but nonzero: a line of solutions or none
    if (m11, m12) != (0, 0):
        p, q, r = m11, m12, r1
        # consistency of the second row on one solution of the first
        x0, y0 = _line_point(p, q, r)
        if m21 * x0 + m22 * y0 != r2:
            return "none", None
    else:
        p, q, r = m21, m22, r2
        x0, y0 = _line_point(p, q, r)
        if m11 * x0 + m12 * y0 != r1:
            return "none", None
    pts = sorted(set(line_points(poly, [p * v[0] + q * v[1] - r
                                        for v in poly])))
    if not pts:
        return "none", None
    if len(pts) == 1:
        return "point", pts[0]
    return "segment", (pts[0], pts[-1])


def _line_point(p, q, r) -> Pt:
    if q != 0:
        return (Q(0), r / q)
    return (r / p, Q(0))


def _assemble_fixed(model, zero_chart, segs):
    """Normalize to model points, dedupe by chart geometry, merge chains.

    Segments are a multigraph on model points: two distinct arcs may join
    the same pair of collapsed points (e.g. both meridians of a fixed great
    circle), so deduplication must use the chart form, not the endpoints.
    """
    from .suspension import _edge_key
    canon: dict[tuple[Pt, Pt], tuple[Pt, Pt]] = {}
    for a, b in segs:
        key = _edge_key(a, b)
        canon[key] = key
    edges = []  # (node_a, node_b) per unique chart segment
    for (pa, pb) in sorted(canon):
        na = model_point(model, mod1(pa[0]), pa[1])
        nb = model_point(model, mod1(pb[0]), pb[1])
        if na == nb:  # chart segment inside a collapsed line: just the point
            zero_chart.append(pa)
            continue
        edges.append((na, nb, (pa, pb)))
    adj: dict[Pt, list[int]] = {}
    for ei, (na, nb, _) in enumerate(edges):
        adj.setdefault(na, []).append(ei)
        adj.setdefault(nb, []).append(ei)
    unused = set(range(len(edges)))
    chains = []
    starts = sorted([v for v, ids in adj.items() if len(ids) % 2 == 1]) \
        + sorted(adj.keys())
    for start in starts:
        while True:
            cand = [ei for ei in adj.get(start, []) if ei in unused]
            if not cand:
                break
            chain = [start]
            cur = start
            while True:
                cand = sorted(ei for ei in adj.get(cur, []) if ei in unused)
                if not cand:
                    break
                ei = cand[0]
                unused.discard(ei)
                na, nb, _ = edges[ei]
                cur = nb if cur == na else na
                chain.append(cur)
            chains.append(chain)
    zero = []
    on_chain = {v for ch in chains for v in ch}
    for p in zero_chart:
        mp = model_point(model, mod1(p[0]), p[1])
        if mp not in on_chain and mp not in zero:
            zero.append(mp)
    return sorted(zero), chains, [e[2] for e in edges]


# ---------------------------------------------------------------------------
# the circle map on the line s = 1


def boundary_restriction(f: PLMap2) -> CirclePL:
    """The circle map f induces on the chart line s = 1: the boundary of
    the disc, or the link circle of the north pole for a sphere map that
    fixes it."""
    edges = []
    for ci, cell in enumerate(f.cells):
        n = len(cell.poly)
        for i in range(n):
            p, q = cell.poly[i], cell.poly[(i + 1) % n]
            if p[1] == 1 and q[1] == 1:
                pi, qi = cell.img[i], cell.img[(i + 1) % n]
                if p[0] > q[0]:
                    p, q, pi, qi = q, p, qi, pi
                edges.append((p[0], q[0], pi[0], qi[0]))
    edges.sort()
    if not edges or edges[0][0] != 0:
        raise StructureViolated("boundary not edge-covered from t=0")
    breaks = []
    u = mod1(edges[0][2])
    pos = Q(0)
    for (a, b, ia, ib) in edges:
        if a != pos:
            raise StructureViolated("boundary edges do not chain")
        breaks.append((a, u))
        u = u + (ib - ia)
        pos = b
    if pos != 1:
        raise StructureViolated("boundary does not close up")
    return CirclePL(tuple(breaks), f.orientation_sign).normalize()


# ---------------------------------------------------------------------------
# validation


def validate_homeo(f: PLMap2) -> list[str]:
    """Structured report; empty means the map is a valid model homeo."""
    problems: list[str] = []
    try:
        cx, img_charts = to_complex(f)
    except (OverlayDegenerate, StructureViolated, ParseError) as exc:
        return [f"cell structure invalid: {exc}"]
    problems.extend(complex_check(cx))
    sign = None
    for i in range(len(f.cells)):
        try:
            d = f.affine(i).det
        except OverlayDegenerate as exc:
            problems.append(f"cell {i} is degenerate: {exc}")
            continue
        if d == 0:
            problems.append(f"cell {i} has zero determinant")
        elif sign is None:
            sign = 1 if d > 0 else -1
        elif (d > 0) != (sign > 0):
            problems.append("mixed determinant signs")
            break
    problems.extend(_edge_image_consistency(f))
    problems.extend(_collapse_conditions(f))
    try:
        inv = inverse(f)
        icx, _ = to_complex(inv)
        for msg in complex_check(icx):
            problems.append(f"image complex: {msg}")
    except (OverlayDegenerate, StructureViolated, ParseError) as exc:
        problems.append(f"image complex invalid: {exc}")
    if f.model == DISC and not problems:
        try:
            boundary_restriction(f)
        except (StructureViolated, ParseError) as exc:
            problems.append(f"boundary restriction invalid: {exc}")
    if not problems:
        cnt = _generic_preimage_count(f)
        if cnt != 1:
            problems.append(f"generic point has {cnt} preimages")
    return problems


def _edge_image_consistency(f: PLMap2) -> list[str]:
    """Shared cell edges must have images agreeing up to one horizontal
    integer shift: the model map is then well defined across the edge."""
    from .suspension import _edge_key
    problems = []
    seen: dict = {}
    for cell in f.cells:
        n = len(cell.poly)
        for i in range(n):
            p, q = cell.poly[i], cell.poly[(i + 1) % n]
            pi, qi = cell.img[i], cell.img[(i + 1) % n]
            if q < p:
                p, q, pi, qi = q, p, qi, pi
            key = _edge_key(p, q)
            if key not in seen:
                seen[key] = (pi, qi)
            else:
                p0, q0 = seen[key]
                d1, d2 = pi[0] - p0[0], qi[0] - q0[0]
                if pi[1] != p0[1] or qi[1] != q0[1] or d1 != d2 \
                        or d1.denominator != 1:
                    problems.append(f"edge {fmt_pt(key[0])} to "
                                    f"{fmt_pt(key[1])} image mismatch")
    return problems


def _collapse_conditions(f: PLMap2) -> list[str]:
    problems = []
    levels = collapsed_levels(f.model)
    targets = {}
    for cell in f.cells:
        for (x, y), (xi, yi) in zip(cell.poly, cell.img):
            if y in levels:
                targets.setdefault(y, set()).add(yi)
            elif f.model == DISC and y == 1:
                if yi != 1:
                    problems.append("disc boundary not preserved")
                    return problems
    if f.model == DISC:
        if targets.get(Q(0)) != {Q(0)}:
            problems.append("disc center must map to the center")
    else:
        t1 = targets.get(Q(1), set())
        t2 = targets.get(Q(-1), set())
        if len(t1) != 1 or len(t2) != 1 or {next(iter(t1)), next(iter(t2))} \
                != {Q(1), Q(-1)}:
            problems.append("poles must map onto poles")
    return problems


def _generic_preimage_count(f: PLMap2) -> int:
    """Preimage count of a generic rational point under the chart images."""
    img_polys = [ccw(shift_into_unit(cell.img)[1]) for cell in f.cells]
    boxes = [poly_bbox(poly) for poly in img_polys]
    for candidate_cell in img_polys:
        cx = sum(p[0] for p in candidate_cell) / len(candidate_cell)
        cy = sum(p[1] for p in candidate_cell) / len(candidate_cell)
        p = (mod1(cx), cy)
        on_edge = False
        cnt = 0
        for poly, box in zip(img_polys, boxes):
            for q in (p, (p[0] + 1, p[1])):
                if not (box[0] <= q[0] <= box[2] and box[1] <= q[1] <= box[3]):
                    continue
                cls = point_in_convex(q, list(poly))
                if cls == INSIDE:
                    cnt += 1
                elif cls == "boundary":
                    on_edge = True
        if on_edge:
            continue
        return cnt
    return -1


# ---------------------------------------------------------------------------
# triangulated view (serialization and complex checks)


def to_complex(f: PLMap2) -> tuple[SuspensionComplex, list[list[Pt]]]:
    """Fan-triangulate cells into the vertex/lift form plus image charts."""
    verts: list[Pt] = []
    index: dict[Pt, int] = {}

    def vid(chart: Pt) -> int:
        key = (mod1(chart[0]), chart[1])
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    tris = []
    lifts = []
    img_charts = []
    for cell in f.cells:
        n = len(cell.poly)
        for i in range(1, n - 1):
            corners = [cell.poly[0], cell.poly[i], cell.poly[i + 1]]
            imgs = [cell.img[0], cell.img[i], cell.img[i + 1]]
            ids = [vid(c) for c in corners]
            lf = []
            for c, vi in zip(corners, ids):
                lift = c[0] - verts[vi][0]
                if lift.denominator != 1:
                    raise OverlayDegenerate("non-integer lift")
                lf.append(int(lift))
            tris.append(tuple(ids))
            lifts.append(tuple(lf))
            img_charts.append(imgs)
    cx = SuspensionComplex(f.model, verts, tris, lifts)
    return cx, img_charts


def from_complex(cx: SuspensionComplex, img_verts: list[Pt],
                 img_lifts: list[tuple[int, int, int]]) -> PLMap2:
    """Rebuild a map from the serialized triangle form."""
    cells = []
    for ti, tri in enumerate(cx.tris):
        chart = cx.chart(ti)
        img = []
        for z, vi in enumerate(tri):
            t, s = img_verts[vi]
            img.append((t + img_lifts[ti][z], s))
        poly = list(chart)
        if area2(tuple(poly)) < 0:
            poly.reverse()
            img.reverse()
        cells.append(CellMap(tuple(poly), tuple(img)))
    return PLMap2(cx.model, cells)


def serializable_parts(f: PLMap2):
    """(complex, per-vertex image, per-triangle image lifts) for JSON."""
    cx, img_charts = to_complex(f)
    img_verts: list[Pt | None] = [None] * len(cx.verts)
    img_lifts = []
    for ti, tri in enumerate(cx.tris):
        lf = []
        for z, vi in enumerate(tri):
            x, y = img_charts[ti][z]
            canon = (mod1(x), y)
            if img_verts[vi] is None:
                img_verts[vi] = canon
            if img_verts[vi][1] != y or (x - img_verts[vi][0]).denominator != 1:
                raise OverlayDegenerate("vertex images inconsistent")
            lf.append(int(x - img_verts[vi][0]))
        img_lifts.append(tuple(lf))
    return cx, img_verts, img_lifts
