"""Equivariant cell complexes: a refinement permuted cell-to-cell by f.

The source cells of f^n (f periodic of period n) form the common refinement
of the pullbacks of f's cells under all lower iterates; f maps each cell
affinely onto another.  Optional cuts along iterated latitude levels or
iterated chords keep f-invariant curve families inside the 1-skeleton.

A complex is indexed on integers, its points as numerators over the lcm D
of their denominators (``integer_charts``): a vertex by (X mod D, Y), an
edge by ``_int_edge_key``, and the action of f by integer cell keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import OverlayDegenerate, StructureViolated
from .exact import fmt_pt
from .geom import Pt, area2, centroid, cross, line_points, split_convex
from .maps import (PLMap2, ccw, compose, fixed_set, identity_map, is_identity,
                   power, shift_into_unit)
from .suspension import (Affine, IDENTITY_AFFINE, _int_edge_key,
                         integer_charts, isometry_affine)

Q = Fraction


@dataclass
class EqComplex:
    """The CCW cells polys of an f-equivariant complex on the model
    ``model``, indexed, with the action of f on its cells, vertices and
    edges.  f_affines[i] is the affine map of f on polys[i], handed on by
    the builder; the rest is computed on construction.  cell_verts[i] and
    cell_edges[i] list each corner's vertex and the edge leaving it."""
    model: str
    n: int
    polys: list[tuple[Pt, ...]]
    f_affines: list[Affine]
    D: int = field(init=False)
    cell_perm: list[int] = field(init=False)
    verts: list[Pt] = field(init=False)
    vert_index: dict = field(init=False)
    vert_perm: list[int] = field(init=False)
    edges: list[tuple[Pt, Pt]] = field(init=False)
    edge_index: dict = field(init=False)
    edge_perm: list[int] = field(init=False)
    edge_verts: list[tuple[int, int]] = field(init=False)
    edge_cells: list[list[int]] = field(init=False)
    cell_verts: list[list[int]] = field(init=False)
    cell_edges: list[list[int]] = field(init=False)

    def __post_init__(self):
        _build_action(self, _index_complex(self))

    def on_grid(self, p: Pt) -> tuple[int, ...] | None:
        """p as integers over D, or None when it is off the grid of 1/D."""
        D = self.D
        return None if D % p[0].denominator or D % p[1].denominator else \
            tuple(c.numerator * (D // c.denominator) for c in p)

    def vertex_id(self, p: Pt) -> int:
        g = self.on_grid(p)
        v = None if g is None else self.vert_index.get((g[0] % self.D, g[1]))
        if v is None:
            raise StructureViolated(
                f"point {fmt_pt(p)} is not a complex vertex")
        return v


def equivariant_complex(f: PLMap2, n: int, level_cuts=(),
                        chord_cuts=()) -> EqComplex:
    """Common refinement of all iterates of f's cells, with the action.

    level_cuts: s-levels tau; the complex is cut along f^i({s = tau}) for
    every i, so each such curve is a union of edges.  chord_cuts: chart
    segments (each a chord of the current refinement's cells under every
    iterate); cut the same way.
    """
    chains = _chain_cells(f, n)
    if level_cuts or chord_cuts:
        chains = _cut_polys(chains, list(level_cuts), list(chord_cuts))
    return EqComplex(f.model, n, [c[0] for c in chains],
                     [f.affine(c[1]) for c in chains])


def conjugated_equivariant_complex(f: PLMap2, h: PLMap2, n: int,
                                   level_cuts=(), chord_cuts=(),
                                   phi_power: int | None = None) -> EqComplex:
    """Equivariant complex for fp = h o f o h^-1, built in the f-frame.

    The chain refinement and all cuts run on f's (small) coordinates: the
    complex of f refined against h's source cells, cut along the h-pullbacks
    of the requested curves, and with phi_power along the fixed segments
    of that iterate of f, is pushed through h cell by cell.  Each cell lies
    in the cell of h that its cell of f_ref = compose(id_h, f) is a piece
    of, and fp acts on its push-forward as H' o F o H^-1, with H' the map
    of h where F sends the cell, and shifts into the unit chart between."""
    id_h = identity_map(f.model, [list(c.poly) for c in h.cells])
    f_ref = compose(id_h, f)
    chains = _chain_cells(f_ref, n)
    base_chords = []
    if phi_power is not None:
        base_chords = list(fixed_set(power(f_ref, phi_power)).segments)
    primary = _pullback_levels(h, level_cuts) + base_chords
    secondary = _pullback_segments(h, chord_cuts)
    if primary or secondary:
        chains = _cut_polys(chains, [], primary, segs_secondary=secondary)
    frame = EqComplex(f.model, n, [c[0] for c in chains],
                      [f_ref.affine(c[1]) for c in chains])
    hs = [h.affine(f_ref.parents[c[1]]) for c in chains]
    pushed, affines = [], []
    for j, (poly, F) in enumerate(zip(frame.polys, frame.f_affines)):
        m, img = shift_into_unit([hs[j](p) for p in poly])
        m_f, _ = shift_into_unit([F(p) for p in poly])
        pushed.append(ccw(img))
        affines.append(hs[frame.cell_perm[j]].compose_after(
            isometry_affine(1, Q(-m_f), 1)).compose_after(F).compose_after(
            hs[j].inverse()).compose_after(isometry_affine(1, Q(m), 1)))
    return EqComplex(f.model, n, pushed, affines)


def _pullback_levels(h: PLMap2, levels):
    """h-preimages of horizontal lines, as full chords of h's cells."""
    out = []
    for ci, cell in enumerate(h.cells):
        A = h.affine(ci)
        img = [A(p) for p in cell.poly]
        inv = None
        for tau in levels:
            vals = [p[1] - tau for p in img]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                continue
            c1, c2 = sorted(line_points(img, vals))
            inv = inv or A.inverse()
            out.append((inv(c1), inv(c2)))
    return out


def _pullback_segments(h: PLMap2, segs):
    """h-preimages of chart segments, as chords of h's cells."""
    out = []
    for ci, cell in enumerate(h.cells):
        A = h.affine(ci)
        img = [A(p) for p in cell.poly]
        xs = [p[0] for p in img]
        ys = [p[1] for p in img]
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
        inv = None
        for (a, b) in segs:
            for dx in (0, -1, 1, -2, 2):
                if max(a[0], b[0]) + dx < xlo or min(a[0], b[0]) + dx > xhi \
                        or max(a[1], b[1]) < ylo or min(a[1], b[1]) > yhi:
                    continue
                got = _chord_points(img, (a[0] + dx, a[1]), (b[0] + dx, b[1]))
                if got is not None:
                    inv = inv or A.inverse()
                    out.append((inv(got[0]), inv(got[1])))
                    break
    return out


def _chord_points(img, a, b):
    """Endpoints of the chord of segment (a, b) inside a convex polygon,
    or None; the chord may end inside (partial overlap is fine here since
    the complement curves cut first)."""
    vals = [cross(a, b, p) for p in img]
    ts = sorted(_param_along(a, b, p) for p in line_points(img, vals))
    if len(ts) < 2:
        return None
    lo = max(ts[0], Q(0))
    hi = min(ts[-1], Q(1))
    if hi <= lo:
        return None
    p1 = (a[0] + lo * (b[0] - a[0]), a[1] + lo * (b[1] - a[1]))
    p2 = (a[0] + hi * (b[0] - a[0]), a[1] + hi * (b[1] - a[1]))
    return p1, p2


def _chain_cells(f: PLMap2, n: int):
    """(poly, cell of f, [A_0, ..., A_(n-1)]) for each cell of f^n, which
    must be the identity, where A_i is the affine map of f^i on the cell.
    They are read down the ``parents`` of the iterates that ``power``
    caches, so nothing is located or solved again; A_i may differ from
    the step-by-step composite by a horizontal integer shift."""
    if not is_identity(power(f, n)):
        raise StructureViolated(f"map is not periodic of period {n}")
    cache = f.pows
    out = []
    for c, cell in enumerate(cache[n].cells):
        affs = [IDENTITY_AFFINE] * n
        for i in range(n - 1, 0, -1):
            c = cache[i + 1].parents[c]
            affs[i] = cache[i].affine(c)
        out.append((cell.poly, c, affs))
    return out


def _cut_polys(chains, levels, segs, segs_secondary=()):
    """Split chain cells so every f^i-pullback of the given levels and
    segments lies in the 1-skeleton.  Each of chains and of the result is
    (poly, cell of f, affines of f^0..f^(n-1)); pieces inherit the cell of
    f and the iterate affines of their parent.

    Secondary segments are only applied to cells with no primary cut left,
    so their endpoints already lie on edges produced by the primary pass."""
    levels = [(tau.numerator, tau.denominator) for tau in levels]
    primary, secondary = _boxed(segs), _boxed(segs_secondary)
    out = []
    stack = list(chains)
    while stack:
        poly, cell, affs = stack.pop()
        pieces = _first_cut(poly, affs, levels, primary)
        if pieces is None and secondary:
            pieces = _first_cut(poly, affs, [], secondary)
        if pieces is None:
            out.append((poly, cell, affs))
        else:
            stack.extend((tuple(pc), cell, affs) for pc in pieces)
    out.sort(key=lambda c: min(c[0]))
    return out


def _boxed(segs):
    """Each segment's y-range and the lcm S of its denominators, and its
    x-range and ends at each horizontal shift a cut tries, the ends both
    as Fractions and as integers over S; ranges over S."""
    out = []
    for a, b in segs:
        S, [[(ax, ay), (bx, by)]] = integer_charts([(a, b)])
        xlo, xhi = min(ax, bx), max(ax, bx)
        out.append(((min(ay, by), max(ay, by), S),
                    [(xlo + dx * S, xhi + dx * S, (a[0] + dx, a[1]),
                      (b[0] + dx, b[1]), (ax + dx * S, ay), (bx + dx * S, by))
                     for dx in (0, -1, 1, -2, 2)]))
    return out


def _first_cut(poly, affs, levels, segs):
    """The pieces of the first cut of poly, or None: its first iterate
    image that a level (p, q) at height p/q or a segment (given
    ``_boxed``) crosses is split.  The tests are on integers, poly over
    the lcm L of its denominators and its image under A over W L: a
    segment goes to ``_chord_split`` only when its box meets the image's
    and image vertices lie strictly on both sides of its line."""
    L, (ipoly,) = integer_charts([poly])
    for A in affs:
        a, b, c, d, e, f, w = A
        den = w * L
        xs = [a * x + b * y + c * L for x, y in ipoly]
        ys = [d * x + e * y + f * L for x, y in ipoly]
        ylo, yhi = min(ys), max(ys)
        for p, q in levels:
            if ylo * q < p * den < yhi * q:
                # sign(det A) (y - tau) is positive left of the level's
                # chord run towards increasing t and pulled back to poly;
                # that piece comes first, which fixes the output order
                side = 1 if a * e - b * d > 0 else -1
                return list(split_convex(poly, [side * (Q(y, den) - Q(p, q))
                                                for y in ys]))
        if not segs:
            continue
        xlo, xhi = min(xs), max(xs)
        img = None
        for (sylo, syhi, S), shifted in segs:
            if syhi * den < ylo * S or sylo * den > yhi * S:
                continue
            pieces = None
            for sxlo, sxhi, pa, pb, (ax, ay), (bx, by) in shifted:
                if sxhi * den < xlo * S or sxlo * den > xhi * S:
                    continue
                # cross(pa, pb, p) times S S W L at each image vertex p
                ux, uy, ox, oy = bx - ax, by - ay, ax * den, ay * den
                sides = [ux * (y * S - oy) - uy * (x * S - ox)
                         for x, y in zip(xs, ys)]
                if all(v >= 0 for v in sides) or all(v <= 0 for v in sides):
                    continue
                img = img or [(Q(x, den), Q(y, den)) for x, y in zip(xs, ys)]
                pieces = _chord_split(img, pa, pb)
                if pieces is not None:
                    break
            if pieces is None:
                continue
            inv = A.inverse()
            src = []
            for piece in pieces:
                pulled = [inv(p) for p in piece]
                if area2(tuple(pulled)) < 0:
                    pulled.reverse()
                src.append(pulled)
            return src
    return None


def _chord_split(img, a, b):
    """Split an image polygon by segment (a, b) if it truly crosses it.

    Returns None when the segment misses the polygon; raises only when the
    segment genuinely ends strictly inside it (not a full chord)."""
    vals = [cross(a, b, p) for p in img]
    if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
        return None
    # the chord of the supporting line inside img, as segment parameters
    t1, t2 = sorted(_param_along(a, b, p) for p in line_points(img, vals))
    if t2 <= 0 or t1 >= 1:
        return None  # the line crosses here, the segment does not
    if t1 < 0 or t2 > 1:
        raise OverlayDegenerate("cut segment ends inside a cell")
    return list(split_convex(img, vals))


def _param_along(a, b, p) -> Fraction:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        return (p[0] - a[0]) / dx
    return (p[1] - a[1]) / dy


def _index_complex(k: EqComplex) -> list[list[tuple[int, int]]]:
    """Index the vertices and edges of k's cells, in order of first use,
    by their integer points over D; returns those points."""
    k.D, ipolys = integer_charts(k.polys)
    D = k.D
    k.verts, k.vert_index, k.edges, k.edge_index = [], {}, [], {}
    k.edge_verts, k.edge_cells, k.cell_verts, k.cell_edges = [], [], [], []
    for ci, poly in enumerate(ipolys):
        vs, es, m = [], [], len(poly)
        for (x, y), p in zip(poly, k.polys[ci]):
            vs.append(k.vert_index.setdefault((x % D, y), len(k.verts)))
            if vs[-1] == len(k.verts):
                k.verts.append((Q(x % D, D), p[1]))
        for i in range(m):
            j = (i + 1) % m
            key = _int_edge_key(poly[i], poly[j], D)
            es.append(k.edge_index.setdefault(key, len(k.edges)))
            if es[-1] == len(k.edges):
                a, b = (vs[i], vs[j]) if poly[i] < poly[j] else (vs[j], vs[i])
                # the key's first end is a vertex's key, and so is the
                # second unless its t is 1 or more
                k.edges.append((k.verts[a], k.verts[b] if key[1][0] < D
                                else (Q(key[1][0], D), k.verts[b][1])))
                k.edge_verts.append((a, b))
                k.edge_cells.append([])
            k.edge_cells[es[-1]].append(ci)
        k.cell_verts.append(vs)
        k.cell_edges.append(es)
    return ipolys


def _rotated(pts) -> tuple[int, tuple]:
    """(r, pts rotated to start at the r-th, their smallest point)."""
    r = min(range(len(pts)), key=pts.__getitem__)
    return r, tuple(pts[r:]) + tuple(pts[:r])


def _build_action(k: EqComplex, ipolys) -> None:
    """The action of f from the cells' integer points over D.  A cell's
    key is its points shifted into [0, D] and rotated to the smallest.  Its
    image (A X + B Y + C D, ...) over W D, reversed if A reverses
    orientation, must have a cell's key; a numerator W does not divide is
    off the grid of 1/D, so not a vertex.  Corners and edges go where the
    two keys' rotations say."""
    D = k.D
    cells = {key: (ci, r) for ci, (r, key) in enumerate(
        _rotated(shift_into_unit(poly, D)[1]) for poly in ipolys)}
    k.cell_perm, k.vert_perm = [], [None] * len(k.verts)
    k.edge_perm = [None] * len(k.edges)
    for ci, poly in enumerate(ipolys):
        a, b, c, d, e, f, w = k.f_affines[ci]
        _, img = shift_into_unit([(a * x + b * y + c * D,
                                   d * x + e * y + f * D) for x, y in poly],
                                 w * D)
        flip = a * e - b * d < 0
        img = img[::-1] if flip else img
        r, key = _rotated([(x // w, y // w) for x, y in img])
        if key not in cells or any(x % w or y % w for x, y in img):
            raise OverlayDegenerate("cell image is not a cell: refinement "
                                    "is not equivariant")
        cj, rj = cells[key]
        k.cell_perm.append(cj)
        m = len(poly)
        vs, es = k.cell_verts[ci], k.cell_edges[ci]
        ws, fs = k.cell_verts[cj], k.cell_edges[cj]
        for i in range(m):
            # corner i is the image's corner (m - 1 - i if flip else i),
            # which is cj's corner u
            u = (m - 1 - i if flip else i) - r + rj
            k.vert_perm[vs[i]] = ws[u % m]
            k.edge_perm[es[i]] = fs[(u - 1 if flip else u) % m]
    if sorted(k.vert_perm) != list(range(len(k.verts))) or \
            sorted(k.edge_perm) != list(range(len(k.edges))) or \
            sorted(k.cell_perm) != list(range(len(k.polys))):
        raise OverlayDegenerate("induced action is not a permutation")


def refine_cells(k: EqComplex, cell_ids) -> EqComplex:
    """Centroid-split the given cells together with their whole f-orbits.

    The centroid is affine-equivariant, so the refined complex is still
    permuted cell-to-cell by f."""
    chosen = set()
    for c in cell_ids:
        cur = c
        while cur not in chosen:
            chosen.add(cur)
            cur = k.cell_perm[cur]
    polys, affines = [], []
    for ci, poly in enumerate(k.polys):
        if ci in chosen:
            g = centroid(list(poly))
            m = len(poly)
            poly = [(g, poly[i], poly[(i + 1) % m]) for i in range(m)]
        else:
            poly = [poly]
        polys += poly
        affines += [k.f_affines[ci]] * len(poly)
    return EqComplex(k.model, k.n, polys, affines)


def refine_edges(k: EqComplex, edge_ids) -> EqComplex:
    """Split the given edges (closed under the f-action) at their midpoints.

    Midpoints are affine-equivariant, so the action survives; incident
    cells are re-fanned from the new point."""
    chosen = set()
    for e in edge_ids:
        cur = e
        while cur not in chosen:
            chosen.add(cur)
            cur = k.edge_perm[cur]
    mids = {}  # each midpoint, its t measured from its edge's left end
    for ei in chosen:
        p, q = k.edges[ei]
        mids[ei] = ((q[0] - p[0]) / 2, (p[1] + q[1]) / 2)
    polys, affines = [], []
    for ci, (poly, A) in enumerate(zip(k.polys, k.f_affines)):
        m = len(poly)
        hits = []
        for i, ei in enumerate(k.cell_edges[ci]):
            if ei in mids:
                dt, s = mids[ei]
                left = min(poly[i][0], poly[(i + 1) % m][0])
                hits.append((i, (left + dt, s)))
        if not hits:
            polys.append(poly)
            affines.append(A)
            continue
        corners = []
        for i in range(m):
            corners.append(poly[i])
            for j, mid in hits:
                if j == i:
                    corners.append(mid)
        g = centroid(list(poly))
        mm = len(corners)
        for i in range(mm):
            a, b = corners[i], corners[(i + 1) % mm]
            if area2((g, a, b)) > 0:
                polys.append((g, a, b))
                affines.append(A)
    return EqComplex(k.model, k.n, polys, affines)


def apply_perm(perm: list[int], i: int, times: int) -> int:
    """The image of i under perm applied the given number of times."""
    for _ in range(times):
        i = perm[i]
    return i
