"""``PLMap2.affine``, ``maps.inverse`` and ``maps.follow`` on each map's
integer form, against Fraction references.

The three read the integer points that the map's ``BoxIndex`` holds: its
cells over D and their images over E.  The references here are the
Fraction forms they replace: the affine map solved from each cell's own
points, the inverse shifted and oriented on Fraction points, and R o h
with every vertex mapped by ``Affine.__call__``, cut at the meridians
with the Fraction half-plane formula (``test_geom``) and shifted on
Fractions.
On generated maps of every class and on the h of every frozen
certificate, both must give the same cells, the same affine maps (or the
same error), and an index with the D, points, boxes, order and ``homs``
that a fresh one builds.  ``inverse`` hands its result such an index,
and ``follow`` shares h's when it cuts no cell, but never h's images.
"""

from fractions import Fraction
from math import ceil, floor
from pathlib import Path

import pytest

from plhomeo import io as pio
from plhomeo.conjugacy import ModelIsometry
from plhomeo.errors import OverlayDegenerate
from plhomeo.generate import make_instance
from plhomeo.geom import area2
from plhomeo.maps import (BoxIndex, CellMap, PLMap2, follow, inverse,
                          shift_into_unit)
from plhomeo.suspension import _independent_triple, integer_charts
from test_geom import _clip_halfplane_oracle, affine_of, fractions_of
from test_integer_complex import CLASSES

Q = Fraction
INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
CERTS = sorted(p.name[:-len(".cert.json")]
               for p in INPUTS.glob("*.cert.json"))


# ---------------------------------------------------------------------------
# the references: each cell solved and mapped on its own Fraction points


def reference_affine_from_pairs(src, dst):
    """The affine map solved from one cell's Fraction points, each list
    over the lcm of its own denominators."""
    S, (xy,) = integer_charts([src])
    T, (uv,) = integer_charts([dst])
    i, j, k = _independent_triple(xy)
    (x1, y1), (x2, y2), (x3, y3) = xy[i], xy[j], xy[k]
    (u1, v1), (u2, v2), (u3, v3) = uv[i], uv[j], uv[k]
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    na = (u2 - u1) * (y3 - y1) - (u3 - u1) * (y2 - y1)
    nb = (x2 - x1) * (u3 - u1) - (x3 - x1) * (u2 - u1)
    nc = u1 * det - na * x1 - nb * y1
    nd = (v2 - v1) * (y3 - y1) - (v3 - v1) * (y2 - y1)
    ne = (x2 - x1) * (v3 - v1) - (x3 - x1) * (v2 - v1)
    nf = v1 * det - nd * x1 - ne * y1
    for (x, y), (u, v) in zip(xy, uv):
        if na * x + nb * y + nc != u * det or nd * x + ne * y + nf != v * det:
            raise OverlayDegenerate("point pairs are not affinely compatible")
    den = T * det
    return affine_of(Q(S * na, den), Q(S * nb, den), Q(nc, den),
                     Q(S * nd, den), Q(S * ne, den), Q(nf, den))


def reference_inverse(f):
    out = []
    for cell in f.cells:
        _, img_u = shift_into_unit(cell.img)
        poly = list(img_u)
        img = list(cell.poly)
        if area2(tuple(poly)) < 0:
            poly.reverse()
            img.reverse()
        out.append(CellMap(tuple(poly), tuple(img)))
    return PLMap2(f.model, out)


def reference_follow(h, R):
    out, affines = [], []
    for ci, cell in enumerate(h.cells):
        B = R.compose_after(h.affine(ci))
        fb = fractions_of(B)
        for poly, img in reference_meridian_pieces(list(cell.poly), B):
            m, img = shift_into_unit(img)
            out.append(CellMap(tuple(poly), img))
            affines.append(affine_of(fb.a, fb.b, fb.c - m, fb.d, fb.e, fb.f))
    return PLMap2(h.model, out, affines)


def reference_meridian_pieces(poly, B):
    img = [B(p) for p in poly]
    xs = [q[0] for q in img]
    pieces = []
    for m in range(floor(min(xs)) + 1, ceil(max(xs))):
        vs = [x - m for x in xs]
        cut = _clip_halfplane_oracle(poly, [-v for v in vs])
        pieces.append((cut, [B(p) for p in cut]))
        poly = _clip_halfplane_oracle(poly, vs)
        img = [B(p) for p in poly]
        xs = [q[0] for q in img]
    pieces.append((poly, img))
    return pieces


# ---------------------------------------------------------------------------
# helpers


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverlayDegenerate as exc:
        return OverlayDegenerate, str(exc)


def _index_fields(index):
    return index.D, index.polys, index.boxes, index.order, index.homs


def _fresh_index(cells):
    """The fields of the index a map of these cells builds itself."""
    return _index_fields(BoxIndex(cells, *integer_charts(
        [c.poly for c in cells])))


def _same_affines(g):
    """g's affine maps, solved or handed on, are the reference's; a map
    without affines solves each one from the index when first asked."""
    unsolved = PLMap2(g.model, g.cells)
    for i, c in enumerate(g.cells):
        want = _outcome(reference_affine_from_pairs, c.poly, c.img)
        assert _outcome(unsolved.affine, i) == want
        if g.affines is not None:
            assert g.affines[i] == want


def _instances():
    out = []
    for model, kind, k, n, _ in CLASSES:
        R = ModelIsometry(model, kind, k, n).affine()
        for seed in (1, 2, 3):
            f, h, r = make_instance(model, kind, k, n, seed, 3)
            out.append((f"{model}-{kind}-{k}-{n}-s{seed}", [f, h, r], R))
    for name in CERTS:
        cert = pio.certificate_from_dict(
            pio.load_json(INPUTS / f"{name}.cert.json"))
        out.append((name, [cert.h, _images_shifted(cert.h)],
                    cert.model.affine()))
    return out


def _images_shifted(h):
    """h with the images of its cells moved by -1, 0 and 1 in turn: the
    same model map, whose images an inverse shifts back."""
    return PLMap2(h.model, [
        CellMap(c.poly, tuple((x + i % 3 - 1, y) for x, y in c.img))
        for i, c in enumerate(h.cells)])


@pytest.fixture(scope="module")
def instances():
    return _instances()


# ---------------------------------------------------------------------------
# the tests


def test_affines_match_reference(instances):
    for _, maps_, _ in instances:
        for g in maps_:
            _same_affines(g)


def test_degenerate_cells_raise_the_reference_error():
    """A cell whose points are collinear, and one whose images no affine
    map gives, raise the reference's error, cell by cell."""
    h = pio.certificate_from_dict(pio.load_json(
        INPUTS / "sphere-rotation-1-3.cert.json")).h
    cells = list(h.cells)
    p = cells[5].poly
    cells[5] = CellMap((p[0], p[1], ((p[0][0] + p[1][0]) / 2,
                                     (p[0][1] + p[1][1]) / 2)), cells[5].img)
    # a triangle's images always fit an affine map; a quad's need not
    q = cells[7]
    cells[7] = CellMap(q.poly + (q.poly[0],),
                       q.img + ((q.img[0][0] + 1, q.img[0][1]),))
    bad = PLMap2(h.model, cells)
    got = [_outcome(bad.affine, i) for i in range(len(cells))]
    assert got == [_outcome(reference_affine_from_pairs, c.poly, c.img)
                   for c in cells]
    assert got[5] == (OverlayDegenerate, "all polygon vertices collinear")
    assert got[7] == (OverlayDegenerate,
                      "point pairs are not affinely compatible")


def test_inverse_matches_reference(instances):
    shifted = clockwise = 0
    for _, maps_, _ in instances:
        for g in maps_:
            inv, ref = inverse(g), reference_inverse(g)
            for c, i in zip(g.cells, inv.cells):
                if area2(c.img) > 0 and 0 <= min(x for x, _ in c.img) \
                        and max(x for x, _ in c.img) <= 1:
                    assert i.poly is c.img
            assert inv.cells == ref.cells
            assert _index_fields(inv.index) == _fresh_index(ref.cells)
            assert inv.index.images == integer_charts(
                [c.img for c in ref.cells])
            _same_affines(inv)
            shifted += any(c.img != i.poly
                           for c, i in zip(g.cells, inv.cells)
                           if area2(c.img) > 0)
            clockwise += any(area2(c.img) < 0 for c in g.cells)
    assert shifted and clockwise


def test_follow_matches_reference(instances):
    cut = kept = 0
    for _, maps_, R in instances:
        for h in maps_:
            g, ref = follow(h, R), reference_follow(h, R)
            assert g.cells == ref.cells
            assert g.affines == ref.affines
            assert _index_fields(g.index) == _fresh_index(ref.cells)
            assert g.index.images is not h.index.images
            assert g.index.images == integer_charts(
                [c.img for c in ref.cells])
            if len(g.cells) == len(h.cells):
                kept += 1
                assert g.index.polys is h.index.polys
                assert g.index.homs is h.index.homs
            else:
                cut += 1
                assert g.index.polys is not h.index.polys
    assert cut and kept
