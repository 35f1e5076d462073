"""Equivariant cell complexes: a refinement permuted cell-to-cell by f.

The source cells of f^n (f periodic of period n) form the common refinement
of the pullbacks of f's cells under all lower iterates; f maps each cell
affinely onto another.  Optional cuts along iterated latitude levels or
iterated chords keep f-invariant curve families inside the 1-skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import OverlayDegenerate, StructureViolated
from .exact import mod1
from .geom import Pt, area2, centroid, cross, line_points, split_convex
from .maps import (PLMap2, compose, fixed_set, identity_map, is_identity,
                   locate_cell, poly_key, power, shift_into_unit)
from .suspension import Affine, IDENTITY_AFFINE, _edge_key

Q = Fraction


@dataclass
class EqComplex:
    """The cells polys of an f-equivariant complex, indexed, with the
    action of f on its cells, vertices and edges, all computed on
    construction."""
    f: PLMap2
    n: int
    polys: list[tuple[Pt, ...]]
    f_affines: list[Affine] = field(init=False)
    cell_perm: list[int] = field(init=False)
    verts: list[Pt] = field(init=False)
    vert_index: dict = field(init=False)
    vert_perm: list[int] = field(init=False)
    edges: list[tuple[Pt, Pt]] = field(init=False)
    edge_index: dict = field(init=False)
    edge_perm: list[int] = field(init=False)
    edge_verts: list[tuple[int, int]] = field(init=False)
    edge_cells: list[list[int]] = field(init=False)
    _cell_key: dict = field(init=False)  # poly_key of a cell -> its index

    def __post_init__(self):
        _index_complex(self)
        _build_action(self)

    @property
    def model(self) -> str:
        return self.f.model

    def vertex_id(self, chart: Pt) -> int:
        return self.vert_index[(mod1(chart[0]), chart[1])]


def equivariant_complex(f: PLMap2, n: int, level_cuts=(),
                        chord_cuts=()) -> EqComplex:
    """Common refinement of all iterates of f's cells, with the action.

    level_cuts: s-levels tau; the complex is cut along f^i({s = tau}) for
    every i, so each such curve is a union of edges.  chord_cuts: chart
    segments (each a chord of the current refinement's cells under every
    iterate); cut the same way.
    """
    g = power(f, n)
    if not is_identity(g):
        raise StructureViolated(f"map is not periodic of period {n}")
    polys = [c.poly for c in g.cells]
    if level_cuts or chord_cuts:
        polys = _cut_polys(f, n, polys, list(level_cuts), list(chord_cuts))
    return EqComplex(f, n, polys)


def conjugated_equivariant_complex(fp: PLMap2, f: PLMap2, h: PLMap2, n: int,
                                   level_cuts=(), chord_cuts=(),
                                   phi_power: int | None = None) -> EqComplex:
    """Equivariant complex for fp = h o f o h^-1, built in the f-frame.

    The chain refinement and all cuts run on f's (small) coordinates: the
    complex of f refined against h's source cells, cut along the h-pullbacks
    of the requested curves, is pushed through h cell by cell.  base_chords
    are chords already expressed in the f-frame (full chords of the chain
    cells of the matching iterate)."""
    id_h = identity_map(f.model, [list(c.poly) for c in h.cells])
    f_ref = compose(id_h, f)
    g = power(f_ref, n)
    if not is_identity(g):
        raise StructureViolated(f"map is not periodic of period {n}")
    polys = [c.poly for c in g.cells]
    base_chords = []
    if phi_power is not None:
        base_chords = list(fixed_set(power(f_ref, phi_power)).segments)
    primary = _pullback_levels(h, level_cuts) + base_chords
    secondary = _pullback_segments(h, chord_cuts)
    if primary or secondary:
        polys = _cut_polys(f_ref, n, polys, [], primary,
                           segs_secondary=secondary)
    pushed = []
    for poly in polys:
        c = centroid(list(poly))
        ci, q = locate_cell(h, (mod1(c[0]), c[1]))
        delta = q[0] - c[0]
        A = h.affine(ci)
        img = [A((x + delta, y)) for x, y in poly]
        _, img_u = shift_into_unit(img)
        out = list(img_u)
        if area2(tuple(out)) < 0:
            out.reverse()
        pushed.append(tuple(out))
    return EqComplex(fp, n, pushed)


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


def _iterate_affines(f: PLMap2, poly, n: int):
    """Affines of f^i on a chain cell, i in [0, n), located step by step in
    f's own (small) cell list.  Valid because chain cells map into a single
    f-cell under every lower iterate."""
    affs = [IDENTITY_AFFINE]
    x = centroid(list(poly))
    A = IDENTITY_AFFINE
    for _ in range(1, n):
        q = (mod1(x[0]), x[1])
        ci, qq = locate_cell(f, q)
        delta = qq[0] - x[0]
        step = f.affine(ci)
        if delta != 0:
            step = step.compose_after(Affine(Q(1), Q(0), delta,
                                             Q(0), Q(1), Q(0)))
        A = step.compose_after(A)
        affs.append(A)
        x = step(x)
    return affs


def _cut_polys(f: PLMap2, n: int, polys, levels, segs, segs_secondary=()):
    """Split cells so every f^i-pullback of the given levels and segments
    lies in the 1-skeleton.  Pieces inherit their parent's iterate affines.

    Secondary segments are only applied to cells with no primary cut left,
    so their endpoints already lie on edges produced by the primary pass."""
    out = []
    stack = [(tuple(p), None) for p in polys]
    while stack:
        poly, affs = stack.pop()
        if affs is None:
            affs = _iterate_affines(f, poly, n)
        pieces = _first_cut(poly, affs, levels, segs)
        if pieces is None and segs_secondary:
            pieces = _first_cut(poly, affs, [], segs_secondary)
        if pieces is None:
            out.append(poly)
        else:
            stack.extend((tuple(pc), affs) for pc in pieces)
    out.sort(key=lambda p: min(p))
    return out


def _first_cut(poly, affs, levels, segs):
    seg_boxes = [(min(a[0], b[0]), min(a[1], b[1]),
                  max(a[0], b[0]), max(a[1], b[1])) for a, b in segs]
    for A in affs:
        img = [A(p) for p in poly]
        ys = [p[1] for p in img]
        ylo, yhi = min(ys), max(ys)
        for tau in levels:
            if ylo < tau < yhi:
                # sign(det A) (y - tau) is positive left of the level's
                # chord run towards increasing t and pulled back to poly;
                # that piece comes first, which fixes the output order
                side = 1 if A.det > 0 else -1
                return list(split_convex(poly, [side * (y - tau)
                                                for y in ys]))
        if not segs:
            continue
        xs = [p[0] for p in img]
        xlo, xhi = min(xs), max(xs)
        for (a, b), sb in zip(segs, seg_boxes):
            pieces = None
            for dx in (0, -1, 1, -2, 2):
                if sb[2] + dx < xlo or sb[0] + dx > xhi \
                        or sb[3] < ylo or sb[1] > yhi:
                    continue
                pieces = _chord_split(img, (a[0] + dx, a[1]),
                                      (b[0] + dx, b[1]))
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


def _affine_at(m: PLMap2, poly) -> Affine:
    c = centroid(list(poly))
    idx, _ = locate_cell(m, (mod1(c[0]), c[1]))
    return m.affine(idx)


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


def _index_complex(k: EqComplex):
    k.verts, k.vert_index = [], {}
    k.edges, k.edge_index = [], {}
    k.edge_verts, k.edge_cells = [], []
    k._cell_key = {}
    for ci, poly in enumerate(k.polys):
        k._cell_key[poly_key(poly)] = ci
        m = len(poly)
        for i in range(m):
            p = poly[i]
            vk = (mod1(p[0]), p[1])
            if vk not in k.vert_index:
                k.vert_index[vk] = len(k.verts)
                k.verts.append(vk)
            q = poly[(i + 1) % m]
            ek = _edge_key(p, q)
            if ek not in k.edge_index:
                k.edge_index[ek] = len(k.edges)
                k.edges.append(ek)
                k.edge_verts.append((k.vert_index[vk],
                                     -1))  # patched below
                k.edge_cells.append([])
            k.edge_cells[k.edge_index[ek]].append(ci)
    # second pass for edge endpoints (canonical chart order)
    for ei, (p, q) in enumerate(k.edges):
        k.edge_verts[ei] = (k.vert_index[(mod1(p[0]), p[1])],
                            k.vert_index[(mod1(q[0]), q[1])])
    k.f_affines = [_affine_at(k.f, poly) for poly in k.polys]


def _build_action(k: EqComplex):
    k.cell_perm = []
    for ci, poly in enumerate(k.polys):
        img = [k.f_affines[ci](p) for p in poly]
        key = poly_key(img)
        if key not in k._cell_key:
            raise OverlayDegenerate("cell image is not a cell: refinement "
                                    "is not equivariant")
        k.cell_perm.append(k._cell_key[key])
    k.vert_perm = [None] * len(k.verts)
    k.edge_perm = [None] * len(k.edges)
    for ci, poly in enumerate(k.polys):
        A = k.f_affines[ci]
        m = len(poly)
        for i in range(m):
            p, q = poly[i], poly[(i + 1) % m]
            vi = k.vert_index[(mod1(p[0]), p[1])]
            ip = A(p)
            k.vert_perm[vi] = k.vert_index[(mod1(ip[0]), ip[1])]
            ei = k.edge_index[_edge_key(p, q)]
            iq = A(q)
            k.edge_perm[ei] = k.edge_index[_edge_key(ip, iq)]
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
    polys = []
    for ci, poly in enumerate(k.polys):
        if ci not in chosen:
            polys.append(poly)
            continue
        g = centroid(list(poly))
        m = len(poly)
        for i in range(m):
            polys.append((g, poly[i], poly[(i + 1) % m]))
    return EqComplex(k.f, k.n, polys)


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
    split_keys = {}
    for ei in chosen:
        p, q = k.edges[ei]
        split_keys[k.edges[ei]] = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
    polys = []
    for poly in k.polys:
        m = len(poly)
        hits = []
        for i in range(m):
            key = _edge_key(poly[i], poly[(i + 1) % m])
            if key in split_keys:
                mid = split_keys[key]
                shift = min(poly[i][0], poly[(i + 1) % m][0]) - key[0][0]
                hits.append((i, (mid[0] + shift, mid[1])))
        if not hits:
            polys.append(poly)
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
    return EqComplex(k.f, k.n, polys)


def apply_perm(perm: list[int], i: int, times: int) -> int:
    """The image of i under perm applied the given number of times."""
    for _ in range(times):
        i = perm[i]
    return i
