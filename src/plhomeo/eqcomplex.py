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
from .maps import (PLMap2, ccw, compose, fixed_set, identity_map, is_identity,
                   poly_key, power, shift_into_unit)
from .suspension import Affine, IDENTITY_AFFINE, _edge_key, isometry_affine

Q = Fraction


@dataclass
class EqComplex:
    """The cells polys of an f-equivariant complex on the model ``model``,
    indexed, with the action of f on its cells, vertices and edges.
    f_affines[i] is the affine map of f on polys[i], handed on by the
    builder; the rest is computed on construction."""
    model: str
    n: int
    polys: list[tuple[Pt, ...]]
    f_affines: list[Affine]
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
    cache = f.pow_cache()
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
    """Each segment's y-range, and its x-range and ends at each horizontal
    shift a cut tries, in the order tried."""
    out = []
    for a, b in segs:
        xlo, xhi = min(a[0], b[0]), max(a[0], b[0])
        out.append(((min(a[1], b[1]), max(a[1], b[1])),
                    [(xlo + dx, xhi + dx, (a[0] + dx, a[1]), (b[0] + dx, b[1]))
                     for dx in (0, -1, 1, -2, 2)]))
    return out


def _first_cut(poly, affs, levels, segs):
    """The pieces of the first cut of poly, or None: its first iterate
    image that a level or a segment (given ``_boxed``) crosses is split."""
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
        for (sylo, syhi), shifted in segs:
            if syhi < ylo or sylo > yhi:
                continue
            pieces = None
            for sxlo, sxhi, a, b in shifted:
                if sxhi < xlo or sxlo > xhi:
                    continue
                pieces = _chord_split(img, a, b)
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
    split_keys = {}
    for ei in chosen:
        p, q = k.edges[ei]
        split_keys[k.edges[ei]] = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
    polys, affines = [], []
    for poly, A in zip(k.polys, k.f_affines):
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
