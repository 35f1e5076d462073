"""The integer index, action and cuts of ``eqcomplex`` against a Fraction
reference.

``EqComplex`` keys its vertices and edges on integer points over the lcm D
of its coordinates' denominators, reads the action of f off integer cell
keys, and ``_first_cut`` box-tests on integers and hands ``_chord_split``
only images with vertices strictly on both sides of a segment's line,
which it finds on integers too.  The reference here keys
Fraction points (``mod1``, ``_edge_key`` and a Fraction cell key) and
box-tests on Fraction comparisons.  On the complexes of generated maps of
every class, before and after ``refine_cells`` and ``refine_edges``, both
must give the same vertices, edges, edge ends, edge cells and the three
permutations; and ``_cut_polys`` must give the same pieces in the same
order, also for levels and segments over distinct primes above 2^61.  A
map that does not act on the cells raises the reference's error, never a
``KeyError``.
"""

from fractions import Fraction

import pytest

from plhomeo import eqcomplex
from plhomeo.eqcomplex import (EqComplex, _chain_cells, _chord_split,
                               _cut_polys, conjugated_equivariant_complex,
                               equivariant_complex, refine_cells,
                               refine_edges)
from plhomeo.errors import OverlayDegenerate, StructureViolated
from plhomeo.exact import mod1
from plhomeo.generate import make_instance
from plhomeo.geom import area2, centroid, cross, split_convex
from plhomeo.maps import ccw, fixed_set, inverse, shift_into_unit
from plhomeo.sectors import LEVEL_CUTS
from plhomeo.sphere import _bprime_path, free_structure
from plhomeo.suspension import (DISC, SPHERE, _edge_key, band_cells,
                                isometry_affine)
from test_geom import affine_of

Q = Fraction

# primes above 2^61, one denominator per coordinate
PRIMES = [2305843009213693967, 2305843009214693987, 2305843009216694009,
          2305843009219694033, 2305843009223694089, 2305843009228694107,
          2305843009234694143, 2305843009241694179]

# (model, kind, k, n, seed): every class, each from a fixed seed
CLASSES = [(DISC, "identity", 0, 1, 1), (DISC, "rotation", 1, 3, 2),
           (DISC, "reflection", 0, 2, 3), (SPHERE, "identity", 0, 1, 4),
           (SPHERE, "rotation", 1, 3, 5), (SPHERE, "reflection", 0, 2, 6),
           (SPHERE, "rotoreflection", 1, 2, 7),
           (SPHERE, "rotoreflection", 1, 4, 1)]


# ---------------------------------------------------------------------------
# the reference: the index, the action and the cuts on Fraction points


def reference_poly_key(poly):
    _, p = shift_into_unit(ccw(poly))
    k = min(range(len(p)), key=lambda i: p[i])
    return tuple(p[k:] + p[:k])


def reference_complex(polys, f_affines):
    """verts, edges, edge_verts, edge_cells and the permutations of cells,
    vertices and edges, keyed on Fraction points."""
    verts, vert_index, edges, edge_index = [], {}, [], {}
    edge_verts, edge_cells, cell_key = [], [], {}
    for ci, poly in enumerate(polys):
        cell_key[reference_poly_key(poly)] = ci
        m = len(poly)
        for i in range(m):
            p = poly[i]
            vk = (mod1(p[0]), p[1])
            if vk not in vert_index:
                vert_index[vk] = len(verts)
                verts.append(vk)
            ek = _edge_key(p, poly[(i + 1) % m])
            if ek not in edge_index:
                edge_index[ek] = len(edges)
                edges.append(ek)
                edge_cells.append([])
            edge_cells[edge_index[ek]].append(ci)
    for p, q in edges:
        edge_verts.append((vert_index[(mod1(p[0]), p[1])],
                           vert_index[(mod1(q[0]), q[1])]))
    cell_perm = []
    for ci, poly in enumerate(polys):
        key = reference_poly_key([f_affines[ci](p) for p in poly])
        if key not in cell_key:
            raise OverlayDegenerate("cell image is not a cell: refinement "
                                    "is not equivariant")
        cell_perm.append(cell_key[key])
    vert_perm = [None] * len(verts)
    edge_perm = [None] * len(edges)
    for ci, poly in enumerate(polys):
        A = f_affines[ci]
        m = len(poly)
        for i in range(m):
            p, q = poly[i], poly[(i + 1) % m]
            ip, iq = A(p), A(q)
            vert_perm[vert_index[(mod1(p[0]), p[1])]] = \
                vert_index[(mod1(ip[0]), ip[1])]
            edge_perm[edge_index[_edge_key(p, q)]] = \
                edge_index[_edge_key(ip, iq)]
    return (verts, edges, edge_verts, edge_cells, cell_perm, vert_perm,
            edge_perm)


def reference_cut_polys(chains, levels, segs, segs_secondary=()):
    primary = reference_boxed(segs)
    secondary = reference_boxed(segs_secondary)
    out = []
    stack = list(chains)
    while stack:
        poly, cell, affs = stack.pop()
        pieces = reference_first_cut(poly, affs, levels, primary)
        if pieces is None and secondary:
            pieces = reference_first_cut(poly, affs, [], secondary)
        if pieces is None:
            out.append((poly, cell, affs))
        else:
            stack.extend((tuple(pc), cell, affs) for pc in pieces)
    out.sort(key=lambda c: min(c[0]))
    return out


def reference_boxed(segs):
    out = []
    for a, b in segs:
        xlo, xhi = min(a[0], b[0]), max(a[0], b[0])
        out.append(((min(a[1], b[1]), max(a[1], b[1])),
                    [(xlo + dx, xhi + dx, (a[0] + dx, a[1]), (b[0] + dx, b[1]))
                     for dx in (0, -1, 1, -2, 2)]))
    return out


def reference_first_cut(poly, affs, levels, segs):
    for A in affs:
        img = [A(p) for p in poly]
        ys = [p[1] for p in img]
        ylo, yhi = min(ys), max(ys)
        for tau in levels:
            if ylo < tau < yhi:
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


def reference_refine_edges(k, edge_ids):
    """The cells and affine maps of ``refine_edges``, the split edges
    found by their Fraction keys."""
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
    return polys, affines


# ---------------------------------------------------------------------------
# helpers


def _outcome(fn, *args):
    """fn(*args), or the type and message of the OverlayDegenerate or
    StructureViolated it raises."""
    try:
        return fn(*args)
    except (OverlayDegenerate, StructureViolated) as exc:
        return type(exc), str(exc)


def _same_as_reference(k):
    assert (k.verts, k.edges, k.edge_verts, k.edge_cells, k.cell_perm,
            k.vert_perm, k.edge_perm) == reference_complex(k.polys,
                                                           k.f_affines)
    for ci, poly in enumerate(k.polys):
        assert [k.verts[v] for v in k.cell_verts[ci]] == \
            [(mod1(x), y) for x, y in poly]
        assert [k.edges[e] for e in k.cell_edges[ci]] == \
            [_edge_key(poly[i], poly[(i + 1) % len(poly)])
             for i in range(len(poly))]


def _check_refined(k):
    """k, and k refined at its first and last cell or edge, against the
    reference."""
    _same_as_reference(k)
    _same_as_reference(refine_cells(k, [0, len(k.polys) - 1]))
    edges = [0, len(k.edges) - 1]
    refined = refine_edges(k, edges)
    assert (refined.polys, refined.f_affines) == \
        reference_refine_edges(k, edges)
    _same_as_reference(refined)


def _instance(model, kind, kk, n, seed):
    f, h, _ = make_instance(model, kind, kk, n, seed, 3)
    return f, h


# ---------------------------------------------------------------------------
# the index and the action


@pytest.mark.parametrize("model,kind,kk,n,seed", CLASSES)
def test_complex_matches_reference(model, kind, kk, n, seed):
    f, h = _instance(model, kind, kk, n, seed)
    chords = fixed_set(f).segments if kind == "reflection" else ()
    _check_refined(equivariant_complex(f, n, level_cuts=LEVEL_CUTS[model],
                                       chord_cuts=chords))
    # the complex of the model map r = h^-1 f h, built in the frame of f
    _check_refined(conjugated_equivariant_complex(
        f, inverse(h), n, level_cuts=LEVEL_CUTS[model]))


def test_free_complex_matches_reference():
    """The conjugated complex the free case builds, cut along t0 and the
    chord through P0 (and, in subcase A, the fixed segments of f^2)."""
    f, _ = _instance(SPHERE, "rotoreflection", 1, 4, 1)
    fs = free_structure(f, 4)
    p0 = fs.orbit[0]
    k = conjugated_equivariant_complex(
        f, fs.conj.h, 4, level_cuts=[fs.t0],
        chord_cuts=[((p0[0], fs.t0), (p0[0], Q(1)))],
        phi_power=2 if fs.subcase == "coincident" else None)
    _check_refined(k)


# ---------------------------------------------------------------------------
# the cuts


def _big(num, i):
    """num / p_i, a point coordinate over one of the big primes."""
    return Q(num * PRIMES[i] // 1000, PRIMES[i])


@pytest.mark.parametrize("model,kind,kk,n,seed", CLASSES[1:3] + CLASSES[4:7])
def test_cuts_match_reference(model, kind, kk, n, seed, monkeypatch):
    crossed = []

    def side_tested(img, a, b):
        vals = [cross(a, b, p) for p in img]
        crossed.append(min(vals) < 0 < max(vals))
        return _chord_split(img, a, b)

    monkeypatch.setattr(eqcomplex, "_chord_split", side_tested)
    f, _ = _instance(model, kind, kk, n, seed)
    chains = _chain_cells(f, n)
    lo = -1 if model == SPHERE else 0
    levels = list(LEVEL_CUTS[model]) + [_big(lo * 1000 + 1300, 0),
                                        _big(lo * 1000 + 1777, 1)]
    # full-height segments, so each is a full chord of every cell it meets;
    # the last one lies right of the chart, so only its shift by -1 meets
    # a cell
    segs = [((_big(100, 2), Q(lo)), (_big(350, 3), Q(1))),
            ((_big(900, 4), Q(lo)), (_big(600, 5), Q(1))),
            ((1 + _big(450, 6), Q(lo)), (1 + _big(550, 7), Q(1)))]
    # a short one that ends inside some cell
    short = [((_big(200, 6), _big(lo * 500 + 600, 7)),
              (_big(300, 7), _big(lo * 500 + 900, 6)))]
    for args in ((levels, []), ([], segs), (levels, segs),
                 (levels[:2], segs[:1], segs[1:]), ([], short),
                 (levels, [], short)):
        got = _outcome(_cut_polys, chains, *args)
        assert got == _outcome(reference_cut_polys, chains, *args)
    assert len(_cut_polys(chains, levels, segs)) > len(chains)
    assert crossed and all(crossed)


# ---------------------------------------------------------------------------
# maps that do not act on the cells


def _bands(affine):
    """The 8 cells of the disc's 4 bands, all mapped by one affine map."""
    cells = band_cells(DISC, 4)
    return cells, [affine] * len(cells)


@pytest.mark.parametrize("affine,message", [
    # a vertex (0, 0) goes off the grid of 1/4, to (1/8, 0)
    (isometry_affine(1, Q(1, 8), 1),
     "cell image is not a cell: refinement is not equivariant"),
    # a vertex (0, 1) goes to (0, 1/2), on the grid but not a vertex
    (affine_of(Q(1), Q(0), Q(0), Q(0), Q(1, 2), Q(0)),
     "cell image is not a cell: refinement is not equivariant"),
    # the first cell, [0, 1/4] wide, goes to [-1/8, 1/8]
    (isometry_affine(1, Q(-1, 8), 1), "cell straddles the meridian"),
])
def test_non_cell_images_raise_the_reference_error(affine, message):
    polys, affines = _bands(affine)
    with pytest.raises(OverlayDegenerate) as got:
        EqComplex(DISC, 2, polys, affines)
    assert str(got.value) == message
    assert _outcome(reference_complex, polys, affines) == \
        (OverlayDegenerate, message)


def test_points_off_the_grid_are_not_vertices():
    polys, affines = _bands(isometry_affine(1, Q(1, 2), 1))
    k = EqComplex(DISC, 2, polys, affines)
    assert k.D == 4
    assert k.vertex_id((Q(1, 4), Q(1))) == k.vertex_id((Q(5, 4), Q(1))) \
        == k.verts.index((Q(1, 4), Q(1)))
    assert k.on_grid((Q(1, 8), Q(0))) is None
    assert k.on_grid((Q(1, 4), Q(1, 3))) is None
    assert k.on_grid((Q(0), Q(1, 2))) == (0, 2)
    for p in ((Q(1, 8), Q(0)), (Q(1, 4), Q(1, 3)), (Q(0), Q(1, 2))):
        with pytest.raises(StructureViolated, match="not a complex vertex"):
            k.vertex_id(p)


def test_image_cap_needs_the_cut_along_t0():
    """``_bprime_path`` takes a cell into the image cap by its lowest
    vertex, which is sound only in a complex cut along s = t0: a cell
    with vertices strictly on both sides of t0 raises."""
    polys, affines = _bands(isometry_affine(1, Q(1, 2), 1))
    k = EqComplex(DISC, 2, polys, affines)
    with pytest.raises(StructureViolated, match="crosses the level t0"):
        _bprime_path(k, Q(1, 2), (Q(0), Q(1)), 2, [])
