"""``PLMap2.affine``, ``maps.inverse``, ``maps.follow`` and
``maps.compose`` on each map's integer form, against Fraction references.

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

``compose`` and ``follow`` build their result from its index alone: its
Fraction cells, built when first read, must be those of a reference
that maps every kept piece with ``Affine.at_hom``, and its index the one
those cells give.  Iterates and both sides of the certificate check,
which are only composed again or compared, build no Fraction point.
"""

from fractions import Fraction
from math import ceil, floor
from pathlib import Path

import pytest

from plhomeo import cli, suspension
from plhomeo import maps as maps_module
from plhomeo import io as pio
from plhomeo.conjugacy import Certificate, ModelIsometry, check_certificate
from plhomeo.errors import OverlayDegenerate
from plhomeo.generate import make_instance
from plhomeo.geom import area2, lowest
from plhomeo.maps import (BoxIndex, CellMap, PLMap2, compose, follow,
                          identity_map, inverse, power, shift_into_unit)
from plhomeo.suspension import (Affine, _independent_triple, band_cells,
                                integer_charts)
from test_clip_convex import clip_homs
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


def reference_compose(f, g):
    """g after f as Fraction cells, with the parents of its pieces: each
    cell of f mapped and shifted into the unit chart, clipped against every
    cell of g in the min-x order of their boxes, and each kept piece's
    points mapped back by f's map and on by g's with ``Affine.at_hom``."""
    findex, gindex = f.index, g.index
    D = findex.D
    out, parents = [], []
    for ci, poly in enumerate(findex.polys):
        A = f.affine(ci)
        a, b, c, d, e, f_, w = A
        m, img = shift_into_unit([(a * x + b * y + c * D,
                                   d * x + e * y + f_ * D) for x, y in poly],
                                 w * D)
        flip = A.det < 0
        subject = [lowest(x, y, w * D) for x, y in
                   (reversed(img) if flip else img)]
        Ainv = A.shifted(m).inverse()
        for di in gindex.order:
            piece = clip_homs(subject, gindex.homs[di])
            if not piece:
                continue
            B = g.affine(di)
            src = [Ainv.at_hom(p) for p in piece]
            dst = [B.at_hom(p) for p in piece]
            if flip:
                src.reverse()
                dst.reverse()
            out.append(CellMap(tuple(src), tuple(dst)))
            parents.append(ci)
    return out, parents


# ---------------------------------------------------------------------------
# helpers


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverlayDegenerate as exc:
        return OverlayDegenerate, str(exc)


def _index_fields(index):
    return (index.D, index.polys, index.images, index.boxes, index.order,
            index.homs, index.lines)


def _fresh_index(cells):
    """The fields of the index a map of these cells builds itself: its
    points and images each over the lcm of their denominators."""
    return _index_fields(BoxIndex(
        *integer_charts([c.poly for c in cells]),
        integer_charts([c.img for c in cells])))


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


@pytest.fixture(scope="module")
def certified():
    """(name, f, certificate) for one generated instance of each quick
    selftest class."""
    out = []
    for space, kind, k, n in cli._class_matrix(True):
        f, _, _ = make_instance(space, kind, k, n, 1, 3)
        cert = cli._conjugate_map(space, f, cli._analyze(space, f))
        out.append((f"{space}-{kind}-{k}-{n}", f, cert))
    return out


def _built_on_integers(g, cells, parents=None):
    """g, built by compose or follow, has no cells until they are read;
    its index is the one the reference cells give, and then its cells are
    those cells."""
    assert "cells" not in vars(g)
    assert _index_fields(g.index) == _fresh_index(cells)
    assert g.cells == cells
    if parents is not None:
        assert g.parents == parents


def test_compose_builds_iterates_on_integers(certified):
    for _, f, _ in certified:
        f = PLMap2(f.model, f.cells)
        f2, f3 = power(f, 2), power(f, 3)
        _built_on_integers(f2, *reference_compose(f, f))
        _built_on_integers(f3, *reference_compose(f2, f))


def test_certificate_check_sides_are_built_on_integers(certified):
    for _, f, cert in certified:
        lhs = compose(f, cert.h)
        _built_on_integers(lhs, *reference_compose(f, cert.h))
        rhs = follow(cert.h, cert.model.affine())
        _built_on_integers(rhs, reference_follow(
            cert.h, cert.model.affine()).cells)


@pytest.mark.parametrize("model", [ModelIsometry("disc", "rotation", 1, 3),
                                   ModelIsometry("sphere", "rotation", 2, 5)],
                         ids=str)
def test_follow_cut_at_the_meridian_is_built_on_integers(model):
    h = identity_map(model.model, band_cells(model.model, 4))
    g = follow(h, model.affine())
    ref = reference_follow(h, model.affine())
    assert len(ref.cells) == 10
    _built_on_integers(g, ref.cells)
    assert g.affines == ref.affines


def test_composed_and_compared_maps_build_no_fraction(certified,
                                                      monkeypatch):
    """Once f's and h's own indexes are built, the iterates up to f^3 and
    the certificate check call none of ``Affine.at_hom``,
    ``integer_charts`` and ``chart_point``, which builds the cells of a
    map built on integers: no map that is only composed again or compared
    builds Fraction points or converts them back."""
    calls = []

    def refused(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"{name} on a composed or compared map")
        return call
    for name, f, cert in certified:
        f, h = PLMap2(f.model, f.cells), PLMap2(cert.h.model, cert.h.cells)
        f.index, h.index
        with monkeypatch.context() as m:
            m.setattr(Affine, "at_hom", refused("at_hom"))
            m.setattr(suspension, "integer_charts", refused("integer_charts"))
            m.setattr(maps_module, "integer_charts",
                      refused("integer_charts"))
            m.setattr(maps_module, "chart_point", refused("chart_point"))
            power(f, 3)
            assert check_certificate(f, Certificate(cert.model, h)) is None
        assert calls == [], name
