"""Cellwise-affine self-homeomorphisms of the disc and sphere models.

A PLMap2 is a list of convex chart cells tiling the unit rectangle, each
with its affine image; the model map is the induced quotient map.  All
operations (evaluation, composition, inversion, iteration, period and
fixed-set computation, validation) are exact and read a map's cells as
integers (``BoxIndex``); ``compose``, ``follow`` and ``inverse`` build
their result on integers, and its cells as Fractions only when read.

Composition keeps the refined pieces as cells, so the source of f^n is the
common refinement of the pullbacks of f's cells under all lower iterates;
for periodic f that refinement is permuted cell-to-cell by f, which is what
the equivariant machinery needs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor, lcm

from .circle import MAX_PERIOD, CirclePL, period_circle
from .errors import (NotPeriodic, OverlayDegenerate, ParseError,
                     StructureViolated)
from .exact import fmt_pt, mod1
from .geom import (Hom, Pt, area2, clip_convex, clip_halfplane, edge_lines,
                   frac_poly, hom, hom_area2, int_area2, line_points, lowest,
                   point_in_convex, BOUNDARY, INSIDE, OUTSIDE)
from .suspension import (Affine, _edge_key, _int_edge_key,
                         affine_from_pairs, band_cells, chart_point,
                         collapsed_levels, complex_check, hom_charts,
                         integer_charts, is_collapsed, model_point, s_range,
                         DISC, SPHERE)

Q = Fraction


def shift_into_unit(poly, den=1) -> tuple[int, tuple[Pt, ...]]:
    """Translate a chart polygon, its coordinates given over den, by an
    integer m into [0,1] horizontally; error if it straddles a meridian.
    A polygon already there comes back as given, as a tuple."""
    xs = [p[0] for p in poly]
    m = floor(min(xs)) // den
    if max(xs) > (m + 1) * den:
        m += 1
        if min(xs) < m * den:
            raise OverlayDegenerate("cell straddles the meridian")
    if m == 0:
        return 0, tuple(poly)
    return m, tuple((x - m * den, y) for x, y in poly)


def ccw(poly):
    return tuple(poly) if area2(tuple(poly)) > 0 else tuple(reversed(poly))


@dataclass(frozen=True)
class CellMap:
    poly: tuple[Pt, ...]   # CCW convex chart polygon inside [0,1] x s-range
    img: tuple[Pt, ...]    # image chart points, aligned with poly


class BoxIndex:
    """A map's cells as integers: their points ``polys`` over the lcm D
    of all their denominators (``integer_charts``), ``images``, (E, the
    image points over the lcm E of all theirs), and ``homs``, the points
    in lowest terms (``geom.hom``); and, each when first asked for, their
    boxes over D, the boxes' min-x order, and ``lines``, each cell's edge
    lines (``geom.edge_lines``), which the overlay hands ``clip_convex``.
    A query box is put over D (``grid``), so each box test is on
    integers.  An index is derived from a map's Fraction cells
    (``PLMap2.index``), or built on integers by ``compose``, ``follow``
    and ``inverse``; the first two give ``homs`` too.  It holds no
    Fraction."""

    def __init__(self, D: int, polys, images, homs=None):
        self.D, self.polys, self.images = D, polys, images
        if homs is not None:
            self.homs = homs

    def with_images(self, images) -> BoxIndex:
        """The index of cells with these cells' points and the images
        ``images``: it shares the points over D, their boxes, order,
        ``homs`` and ``lines``."""
        out = BoxIndex(self.D, self.polys, images, homs=self.homs)
        out.boxes, out.order, out.minxs, out.lines = \
            self.boxes, self.order, self.minxs, self.lines
        return out

    @cached_property
    def boxes(self) -> list[tuple[int, int, int, int]]:
        return [(min(xs), min(ys), max(xs), max(ys))
                for xs, ys in (zip(*poly) for poly in self.polys)]

    @cached_property
    def order(self) -> list[int]:
        return sorted(range(len(self.polys)), key=lambda i: self.boxes[i][0])

    @cached_property
    def minxs(self) -> list[int]:
        return [self.boxes[i][0] for i in self.order]

    @cached_property
    def homs(self) -> list[list[Hom]]:
        return [[lowest(x, y, self.D) for x, y in poly]
                for poly in self.polys]

    @cached_property
    def lines(self) -> list[list[Hom]]:
        return [edge_lines(poly) for poly in self.homs]

    def grid(self, x0: int, y0: int, x1: int, y1: int, den: int) -> tuple:
        """The box [x0, x1] x [y0, y1] / den shrunk to integers over D,
        which the boxes here meet exactly when they meet the box."""
        return (-(-x0 * self.D // den), -(-y0 * self.D // den),
                x1 * self.D // den, y1 * self.D // den)

    def meets(self, i: int, q: tuple) -> bool:
        """Cell i's box meets the box q, given over D."""
        x0, y0, x1, y1 = self.boxes[i]
        return x0 <= q[2] and q[0] <= x1 and y0 <= q[3] and q[1] <= y1

    def near(self, q: tuple) -> list[int]:
        """The cells whose boxes meet the box q over D, in min-x order."""
        lx, ly, hx, hy = q
        boxes = self.boxes
        return [i for i in self.order[:bisect_right(self.minxs, hx)]
                if lx <= boxes[i][2] and ly <= boxes[i][3]
                and boxes[i][1] <= hy]

    def at(self, p: Hom) -> list[int]:
        """The cells whose boxes hold the point (X, Y, W), in min-x order."""
        x, y, w = p
        return self.near(self.grid(x, y, x, y, w))


class PLMap2:
    """A map of the model: its integer ``BoxIndex``, the form the core
    reads, and its cells, each a ``CellMap`` of Fraction points, a view
    for what writes, draws or makes maps (``io``, ``svg``, ``generate``,
    ``cli``, ``conjugacy.meridian_edges``, and the h from ``sectors`` that
    ``eqcomplex.conjugated_equivariant_complex`` refines).  A map is built
    from one of the two, and the other is derived when first read: ``io``,
    ``generate`` and ``sectors`` give the cells, ``compose``, ``follow``
    and ``inverse`` the index.  ``affines``, when given, is the affine map
    of each cell, in the cells' order; whoever passes it vouches that each
    one sends its cell's points to its images.
    Otherwise ``affine`` solves each one from the index when it is first
    asked for.  ``parents``, set by ``compose``, is the index of the cell
    of its first argument that each cell is a piece of, and ``pows`` the
    iterates that ``power`` has built."""

    def __init__(self, model: str, cells: list[CellMap] | None = None,
                 affines: list[Affine] | None = None,
                 parents: list[int] | None = None,
                 index: BoxIndex | None = None):
        self.model, self.affines, self.parents = model, affines, parents
        if cells is not None:
            self.cells = cells
        if index is not None:
            self.index = index

    @cached_property
    def cells(self) -> list[CellMap]:
        index = self.index
        D, (E, imgs) = index.D, index.images
        return [CellMap(tuple(chart_point(p, D) for p in poly),
                        tuple(chart_point(p, E) for p in img))
                for poly, img in zip(index.polys, imgs)]

    @cached_property
    def index(self) -> BoxIndex:
        return BoxIndex(*integer_charts([c.poly for c in self.cells]),
                        integer_charts([c.img for c in self.cells]))

    def affine(self, i: int) -> Affine:
        if self.affines is None:
            self.affines = [None] * len(self.index.polys)
        if self.affines[i] is None:
            index = self.index
            E, imgs = index.images
            self.affines[i] = affine_from_pairs(index.D, index.polys[i],
                                                E, imgs[i])
        return self.affines[i]

    @property
    def orientation_sign(self) -> int:
        return 1 if self.affine(0).det > 0 else -1

    @cached_property
    def pows(self) -> dict[int, PLMap2]:
        return {1: self}


def identity_map(model: str, cells=None) -> PLMap2:
    if cells is None:
        cells = band_cells(model, 4)
    return PLMap2(model, cells=[CellMap(c, c) for c in map(tuple, cells)])


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
        hq = hom(q)
        for i in f.index.at(hq):
            if best is not None and i >= best:
                continue
            if point_in_convex(hq, f.index.lines[i]) != OUTSIDE:
                best = i
                best_q = q
    if best is None:
        raise StructureViolated(f"point {fmt_pt(p)} not covered by any cell")
    return best, best_q


def _collapsed_image(f: PLMap2, level: Fraction) -> Pt:
    """Where the collapsed line at the height level goes, from f's index."""
    index = f.index
    y, (E, imgs) = level * index.D, index.images
    for poly, img in zip(index.polys, imgs):
        for (_, Y), (_, Yi) in zip(poly, img):
            if Y == y:
                return model_point(f.model, Q(0), Q(Yi, E))
    raise StructureViolated("no cell touches the collapsed line")


# ---------------------------------------------------------------------------
# composition and friends


def compose(f: PLMap2, g: PLMap2) -> PLMap2:
    """g after f.  Cells: pieces of f's cells whose f-image fits one g-cell.

    The overlay runs on integers (``BoxIndex``), and so does the result:
    each kept piece's points, taken back by f's map, and their images
    under g's, go from the clip's homogeneous integers into the result's
    index, whose Fraction cells are built only when read.  The pieces tile
    each cell of f, which the area check below confirms, so the result
    tiles the chart rectangle wherever f's cells do.  Each piece carries
    its affine map, g's on that g-cell after f's shifted into the unit
    chart, so the result never solves one from its vertices, and the
    index of the cell of f it is a piece of (``parents``).  A model
    isometry is one affine map, so following f by it needs no overlay:
    ``follow`` does that and keeps f's cells."""
    if f.model != g.model:
        raise ParseError("cannot compose maps on different models")
    findex, gindex = f.index, g.index
    D = findex.D
    srcs: list[list[Hom]] = []
    imgs: list[list[Hom]] = []
    affines: list[Affine] = []
    parents: list[int] = []
    for ci, poly in enumerate(findex.polys):
        A = f.affine(ci)
        a, b, c, d, e, f_, w = A
        den = w * D
        m, img = shift_into_unit([(a * x + b * y + c * D,
                                   d * x + e * y + f_ * D) for x, y in poly],
                                 den)
        xs, ys = zip(*img)
        q = gindex.grid(min(xs), min(ys), max(xs), max(ys), den)
        flip = a * e - b * d < 0
        subject = [lowest(x, y, den) for x, y in
                   (reversed(img) if flip else img)]
        lines = edge_lines(subject)
        target = hom_area2(subject)
        A_unit = A.shifted(m)
        Ainv = A_unit.inverse()
        got = (0, 1)
        for di in gindex.near(q):
            piece = clip_convex(subject, gindex.homs[di], lines,
                                gindex.lines[di])
            if not piece:
                continue
            got = _add_area(got, piece)
            if flip:
                piece.reverse()
            B = g.affine(di)
            srcs.append([Ainv.map_hom(p) for p in piece])
            imgs.append([B.map_hom(p) for p in piece])
            affines.append(B.compose_after(A_unit))
            parents.append(ci)
        if got[0] * target[1] != target[0] * got[1]:
            raise OverlayDegenerate("composition pieces fail to tile a cell")
    index = BoxIndex(*hom_charts(srcs), hom_charts(imgs), homs=srcs)
    return PLMap2(f.model, affines=affines, parents=parents, index=index)


def _add_area(acc: tuple[int, int], piece: list[Hom]) -> tuple[int, int]:
    """acc + hom_area2(piece), both as an integer over a positive one."""
    n, d = hom_area2(piece)
    L = lcm(acc[1], d)
    return acc[0] * (L // acc[1]) + n * (L // d), L


def follow(h: PLMap2, R: Affine) -> PLMap2:
    """R after h, for an affine R that keeps the chart's s-range, such as
    a model isometry (``suspension.isometry_affine``).

    The cells are h's cells, cut only where their image under R o A_h
    crosses an integer meridian, so the result tiles the chart rectangle
    exactly where h's cells do.  Each piece carries R o A_h shifted into
    the unit chart.  It runs on h's index, as ``compose`` does, and builds
    the result's: the images are R of h's images, on their integers over
    w E, and a cell whose image crosses no meridian is shifted there and
    kept whole.  The cuts come from the x-coordinates of the vertices'
    images, so no inverse is taken.  When no cell is cut, the result's
    index shares h's points (``BoxIndex.with_images``)."""
    index = h.index
    E, imgs = index.images
    a, b, c, d, e, f_, w = R
    den = w * E
    srcs: list[list[Hom]] = []
    images: list[list[Hom]] = []
    affines: list[Affine] = []
    for ci, img in enumerate(imgs):
        B = R.compose_after(h.affine(ci))
        xs = [a * x + b * y + c * E for x, y in img]
        lo, hi = min(xs) // den + 1, -(-max(xs) // den)
        if lo < hi:
            for piece, m in _meridian_pieces(index.homs[ci], B, lo, hi):
                Bm = B.shifted(m)
                srcs.append(piece)
                images.append([Bm.map_hom(p) for p in piece])
                affines.append(Bm)
            continue
        m, img = shift_into_unit([(x, d * X + e * Y + f_ * E)
                                  for x, (X, Y) in zip(xs, img)], den)
        srcs.append(index.homs[ci])
        images.append([lowest(x, y, den) for x, y in img])
        affines.append(B.shifted(m))
    if len(srcs) == len(imgs):
        index = index.with_images(hom_charts(images))
    else:
        index = BoxIndex(*hom_charts(srcs), hom_charts(images), homs=srcs)
    return PLMap2(h.model, affines=affines, index=index)


def _meridian_pieces(poly: list[Hom], B: Affine, lo: int,
                     hi: int) -> list[tuple[list[Hom], int]]:
    """A convex CCW polygon cut where B's x-coordinate is each integer m
    with lo <= m < hi, in order of m, each piece with the shift that puts
    its image under B into the unit chart: the piece left of m lies
    between m - 1 and m."""
    a, b, c, _, _, _, w = B
    pieces = []
    for m in range(lo, hi):
        pieces.append((clip_halfplane(poly, (-a, -b, m * w - c)), m - 1))
        poly = clip_halfplane(poly, (a, b, c - m * w))
    pieces.append((poly, hi - 1))
    return pieces


def inverse(f: PLMap2) -> PLMap2:
    """f^-1: each image cell shifted into the unit chart and made CCW,
    with the cell as its image.  It is built as its index, on the
    integers of f's: the image points over E, shifted by whole multiples
    of E, which keep every denominator, are the points of the inverse's
    index over E, and f's points over D are its images."""
    index = f.index
    E, imgs = index.images
    polys, images = [], []
    for img, poly in zip(imgs, index.polys):
        _, img = shift_into_unit(img, E)
        if int_area2(*zip(*img)) < 0:
            img, poly = img[::-1], poly[::-1]
        polys.append(list(img))
        images.append(poly)
    return PLMap2(f.model, index=BoxIndex(E, polys, (index.D, images)))


def power(f: PLMap2, m: int) -> PLMap2:
    """f^m for m >= 1, built by left composition with f and memoized on f.

    Each iterate is f^(m-1) followed by f, so the source cells of f^m are
    the common refinement of the pullbacks of f's own cells under all lower
    iterates.  For periodic f that refinement is permuted cell-to-cell by
    f, which the equivariant machinery relies on; every caller therefore
    shares these iterates, and ``period`` builds the ones the analysis and
    the certificate need.  Each cached iterate f^i, i >= 2, hands on its
    ``parents`` in f^(i-1) with its affines, and is built on integers
    (``compose``)."""
    cache = f.pows
    best = max(i for i in cache if i <= m)
    out = cache[best]
    for i in range(best + 1, m + 1):
        out = compose(out, f)
        cache[i] = out
    return out


def is_model_rotation(f: PLMap2):
    """The exact rotation angle if f is (t, s) -> (t + c, s); else None.
    Each cell's map is canonical, so its angle is (c mod w) / w in lowest
    terms, and the cells' angles agree exactly when these pairs do."""
    angle = None
    for i in range(len(f.index.polys)):
        a, b, c, d, e, f_, w = f.affine(i)
        if (a, b, d, e, f_) != (w, 0, 0, w, 0) or \
                angle not in (None, (c % w, w)):
            return None
        angle = (c % w, w)
    return None if angle is None else Q(*angle)


def is_identity(f: PLMap2) -> bool:
    return is_model_rotation(f) == 0


def _action_key(A: Affine) -> tuple:
    """Two cells act alike as model maps exactly when their affine maps
    differ by a horizontal integer shift, that is when these keys agree:
    the canonical integers with c mod w, as a shift adds a multiple of w."""
    return (A.a, A.b, A.c % A.w, A.d, A.e, A.f, A.w)


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
    area, proves the precondition false and raises StructureViolated.  It
    runs on integers (``BoxIndex``); a yielded piece becomes Fractions."""
    alike: dict[tuple, list[int]] = {}
    for di in range(len(g.index.polys)):
        alike.setdefault(_action_key(g.affine(di)), []).append(di)
    findex, gindex = f.index, g.index
    for ci, (poly, lines) in enumerate(zip(findex.homs, findex.lines)):
        key = _action_key(f.affine(ci))
        q = gindex.grid(*findex.boxes[ci], findex.D)
        covered = (0, 1)
        for di in alike.get(key, ()):
            if gindex.meets(di, q):
                piece = clip_convex(poly, gindex.homs[di], lines,
                                    gindex.lines[di])
                if piece:
                    covered = _add_area(covered, piece)
        target = hom_area2(poly)
        excess = covered[0] * target[1] - target[0] * covered[1]
        if excess > 0:
            raise StructureViolated("cells of the map compared with overlap")
        if excess == 0:
            continue
        differs = False
        for di in sorted(gindex.near(q)):
            piece = clip_convex(poly, gindex.homs[di], lines,
                                gindex.lines[di])
            if piece and _action_key(g.affine(di)) != key:
                differs = True
                yield frac_poly(piece)
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


def period(f: PLMap2) -> int:
    """The period of f; NotPeriodic, naming which case holds, when f has
    none.

    The candidate n is the period of the circle map on s = 1, the disc
    boundary or the link of the north pole; when f swaps the poles, it is
    twice the period of that circle map of f^2, since odd iterates swap
    them.  A periodic f has no other period, because an iterate that is
    the identity on that circle is the identity.  On the disc, it is
    conjugate to an isometry (Kerekjarto) that fixes the boundary circle.
    At a fixed pole, it maps each ray of a small star into itself with a
    slope that periodicity forces to be 1; so it is the identity near the
    pole, and by Newman's theorem everywhere.  Hence f^n = id confirms n,
    and f^n != id proves that f is not periodic; the message then names a
    point that f^n moves.  Only the search for the circle period is
    bounded, by ``circle.MAX_PERIOD``."""
    swaps = f.model == SPHERE and _collapsed_image(f, Q(1))[1] != 1
    m = period_circle(boundary_restriction(power(f, 2) if swaps else f))
    if m is None:
        raise NotPeriodic(f"not periodic: the circle map on s = 1 has no "
                          f"period up to {MAX_PERIOD}")
    n = 2 * m if swaps else m
    g = power(f, n)
    if not is_identity(g):
        p = first_disagreement(g, identity_map(f.model))
        raise NotPeriodic(f"not periodic: f^n != id for n = {n}, e.g. at "
                          f"{fmt_pt(p)} -> {fmt_pt(evaluate(g, p))}")
    return n


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
    index = f.index
    for ci, (poly, homs) in enumerate(zip(index.polys, index.homs)):
        A = f.affine(ci)
        a, b, c, _, _, _, w = A
        den = w * index.D
        # each point's horizontal displacement, over den
        disp = [a * x + b * y + c * index.D - w * x for x, y in poly]
        for delta in range(-(-min(disp) // den), max(disp) // den + 1):
            kind, data = _fixed_in_cell(A, homs, index.lines[ci], delta)
            if kind == "point":
                zero_chart.append(data)
            elif kind == "segment":
                segs.append(data)
            elif kind == "cell":
                two.append(tuple(frac_poly(homs)))
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


def _fixed_in_cell(A: Affine, poly: list[Hom], lines: list[Hom], delta: int):
    """Solve A(x) = x + (delta, 0), times w, on a cell (points, lines)."""
    m11, m12, m21, m22 = A.a - A.w, A.b, A.d, A.e - A.w
    r1, r2 = delta * A.w - A.c, -A.f
    det = m11 * m22 - m12 * m21
    if det != 0:
        x = Q(r1 * m22 - m12 * r2, det)
        y = Q(m11 * r2 - r1 * m21, det)
        if point_in_convex(hom((x, y)), lines) != OUTSIDE:
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
    pts = sorted(set(frac_poly(line_points(poly, (p, q, -r)))))
    if not pts:
        return "none", None
    if len(pts) == 1:
        return "point", pts[0]
    return "segment", (pts[0], pts[-1])


def _line_point(p: int, q: int, r: int) -> Pt:
    if q != 0:
        return (Q(0), Q(r, q))
    return (Q(r, p), Q(0))


def _assemble_fixed(model, zero_chart, segs):
    """Normalize to model points, dedupe by chart geometry, merge chains.

    Segments are a multigraph on model points: two distinct arcs may join
    the same pair of collapsed points (e.g. both meridians of a fixed great
    circle), so deduplication must use the chart form, not the endpoints.
    """
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
    index = f.index
    D, (E, imgs) = index.D, index.images
    edges = []
    for poly, img in zip(index.polys, imgs):
        n = len(poly)
        for i in range(n):
            p, q = poly[i], poly[(i + 1) % n]
            if p[1] == D and q[1] == D:
                pi, qi = img[i], img[(i + 1) % n]
                if p[0] > q[0]:
                    p, q, pi, qi = q, p, qi, pi
                edges.append((p[0], q[0], pi[0], qi[0]))
    edges.sort()
    if not edges or edges[0][0] != 0:
        raise StructureViolated("boundary not edge-covered from t=0")
    breaks = []
    u = mod1(Q(edges[0][2], E))
    pos = 0
    for (a, b, ia, ib) in edges:
        if a != pos:
            raise StructureViolated("boundary edges do not chain")
        breaks.append((Q(a, D), u))
        u = u + Q(ib - ia, E)
        pos = b
    if pos != D:
        raise StructureViolated("boundary does not close up")
    return CirclePL(tuple(breaks), f.orientation_sign).normalize()


# ---------------------------------------------------------------------------
# validation


def validate_homeo(f: PLMap2) -> list[str]:
    """Structured report; empty means the map is a valid model homeo.

    The checks, in the order their problems are listed:

    1. the cells tile the chart rectangle (``complex_check``);
    2. each cell's affine map is solved from its vertices and is
       invertible, with one sign of determinant on all cells;
    3. the images of a shared edge agree up to one horizontal integer
       shift (``_edge_image_consistency``);
    4. the collapsed lines, and the disc's boundary, go where they must
       (``_collapse_conditions``);
    5. the image cells, shifted into the unit chart (``inverse``), tile
       it too, reported with the prefix "image complex";

    and only when these find nothing, 6. on the disc, the circle map on
    the boundary is valid, and 7. a generic point has one preimage.

    Checks 1, 2, 3 and 5 run on integer coordinates: the points of one
    tiling as integer numerators over the lcm of their denominators,
    read from the ``BoxIndex`` of f (its points and its images) and of
    its inverse, which the overlay reads too.  The others run on
    Fractions."""
    problems = complex_check(f.model, f.index.D, f.index.polys)
    sign = None
    for i in range(len(f.index.polys)):
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
    problems.extend(_edge_image_consistency(f.index))
    problems.extend(_collapse_conditions(f))
    try:
        inv = inverse(f)
    except OverlayDegenerate as exc:
        problems.append(f"image complex invalid: {exc}")
    else:
        problems.extend(f"image complex: {msg}" for msg in complex_check(
            f.model, inv.index.D, inv.index.polys))
    if f.model == DISC and not problems:
        try:
            boundary_restriction(f)
        except (StructureViolated, ParseError) as exc:
            problems.append(f"boundary restriction invalid: {exc}")
    if not problems:
        cnt = _generic_preimage_count(inv)
        if cnt != 1:
            problems.append(f"generic point has {cnt} preimages")
    return problems


def _edge_image_consistency(index: BoxIndex) -> list[str]:
    """Shared cell edges must have images agreeing up to one horizontal
    integer shift: the model map is then well defined across the edge.
    Read from a map's index: its cells' points over D and their images
    over E."""
    D, polys = index.D, index.polys
    E, imgs = index.images
    problems = []
    seen: dict = {}
    for poly, img in zip(polys, imgs):
        n = len(poly)
        for i in range(n):
            p, q = poly[i], poly[(i + 1) % n]
            pi, qi = img[i], img[(i + 1) % n]
            if q < p:
                p, q, pi, qi = q, p, qi, pi
            key = _int_edge_key(p, q, D)
            if key not in seen:
                seen[key] = (pi, qi)
                continue
            p0, q0 = seen[key]
            d1, d2 = pi[0] - p0[0], qi[0] - q0[0]
            if pi[1] != p0[1] or qi[1] != q0[1] or d1 != d2 or d1 % E:
                problems.append(f"edge {fmt_pt(chart_point(key[0], D))} to "
                                f"{fmt_pt(chart_point(key[1], D))} "
                                f"image mismatch")
    return problems


def _collapse_conditions(f: PLMap2) -> list[str]:
    problems = []
    index = f.index
    D, (E, imgs) = index.D, index.images
    levels = {int(level) * D for level in collapsed_levels(f.model)}
    targets = {}
    for poly, img in zip(index.polys, imgs):
        for (_, y), (_, yi) in zip(poly, img):
            if y in levels:
                targets.setdefault(y, set()).add(yi)
            elif f.model == DISC and y == D:
                if yi != E:
                    problems.append("disc boundary not preserved")
                    return problems
    if f.model == DISC:
        if targets.get(0) != {0}:
            problems.append("disc center must map to the center")
    else:
        t1 = targets.get(D, set())
        t2 = targets.get(-D, set())
        if len(t1) != 1 or len(t2) != 1 or t1 | t2 != {E, -E}:
            problems.append("poles must map onto poles")
    return problems


def _generic_preimage_count(inv: PLMap2) -> int:
    """Preimage count of a generic rational point under a map's chart
    images, the cells of its inverse ``inv``: a cell's vertex average."""
    index = inv.index
    for poly in index.polys:
        xs, ys = zip(*poly)
        w = len(poly) * index.D
        p = lowest(sum(xs) % w, sum(ys), w)
        classes = [point_in_convex(q, index.lines[i])
                   for q in (p, (p[0] + p[2], p[1], p[2]))
                   for i in index.at(q)]
        if BOUNDARY not in classes:
            return classes.count(INSIDE)
    return -1
