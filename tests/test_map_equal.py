"""The exact check h o f = model o h against a brute-force oracle.

``first_disagreement`` clips a cell of the left map against the whole
right map only when the cells of the right map that act alike fail to
cover it.  The oracle here clips every pair of cells whose boxes meet and
solves every affine map from its cell's vertices, so it shares neither
shortcut.  The pairs are the checks of the frozen benchmark certificates
(read only), intact and with one image vertex of h moved; the right-hand
side model o h is built both as ``check_certificate`` builds it, by
``follow``, and as an overlay of h with the model's band complex.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import geom
from plhomeo import io as pio
from plhomeo import maps
from plhomeo.exact import mod1
from plhomeo.geom import INSIDE, BOUNDARY, clip_convex, frac_poly, hom
from plhomeo.maps import (CellMap, PLMap2, ccw, compose, evaluate,
                          first_disagreement, follow, identity_map, power,
                          shift_into_unit)
from plhomeo.suspension import (DISC, affine_from_pairs, band_cells,
                                model_point, s_range)
from test_clip_convex import clip_homs, reference_point_in_convex
from test_geom import fractions_of, on_integers
from test_validate_homeo import bbox

Q = Fraction
INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
NAMES = [
    "disc-reflection-0-2",
    "disc-rotation-1-3",
    "sphere-reflection-0-2",
    "sphere-rotation-1-3",
    "sphere-rotoreflection-1-2",
    "sphere-rotoreflection-1-2-m10",
    "sphere-rotoreflection-1-4",
]


# the frozen checks that reach check_certificate: the intact ones and the
# one with k changed; the certificate with a pole image moved is rejected
# by validate_homeo first
CHECKED = NAMES + ["disc-rotation-1-3.k-changed"]
TAMPERED = ["disc-rotation-1-3.k-changed", "sphere-rotation-1-3.vertex-moved"]


def _load(name):
    _, f = pio.instance_from_dict(
        pio.load_json(INPUTS / f"{name.split('.')[0]}.json"))
    cert = pio.certificate_from_dict(
        pio.load_json(INPUTS / f"{name}.cert.json"))
    return f, cert


def _followed(h, model):
    return follow(h, model.affine())


def _overlaid(h, model):
    return compose(h, model.as_map())


RIGHT_SIDES = [_followed, _overlaid]


def _sides(f, h, model, right):
    return compose(f, h), right(h, model)


@pytest.fixture(scope="module")
def frozen():
    out = {}
    for name in NAMES:
        f, cert = _load(name)
        out[name] = (f, cert, {right: _sides(f, cert.h, cert.model, right)
                               for right in RIGHT_SIDES})
    return out


def _solved(cell):
    a = fractions_of(affine_from_pairs(*on_integers(cell.poly, cell.img)))
    return (a.a, a.b, mod1(a.c), a.d, a.e, a.f)


def _oracle_pieces(f, g):
    """Every differing overlap piece, over all box-meeting cell pairs."""
    fk = [_solved(c) for c in f.cells]
    gk = [_solved(c) for c in g.cells]
    gb = [bbox(c.poly) for c in g.cells]
    for ci, cell in enumerate(f.cells):
        x0, y0, x1, y1 = bbox(cell.poly)
        for di, other in enumerate(g.cells):
            u0, v0, u1, v1 = gb[di]
            if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                continue
            piece = frac_poly(clip_homs([hom(p) for p in cell.poly],
                                        [hom(p) for p in other.poly]))
            if piece and fk[ci] != gk[di]:
                yield piece


def _oracle_witness(f, g):
    """The witness rule of first_disagreement on the oracle's first piece."""
    for piece in _oracle_pieces(f, g):
        for p in piece:
            q = model_point(f.model, mod1(p[0]), p[1])
            if evaluate(f, q) != evaluate(g, q):
                return q
        cx = sum(p[0] for p in piece) / len(piece)
        cy = sum(p[1] for p in piece) / len(piece)
        return model_point(f.model, mod1(cx), cy)
    return None


def _move_image_vertex(h, rng):
    """h with one image vertex off the collapsed lines moved, as
    ``cli._corrupt`` moves the first one."""
    lo, hi = s_range(h.model)
    spots = [(ci, j) for ci, c in enumerate(h.cells)
             for j, (_, y) in enumerate(c.img) if lo < y < hi]
    ci, j = rng.choice(spots)
    cells = list(h.cells)
    img = list(cells[ci].img)
    x, y = img[j]
    img[j] = (x, y + (1 - y) / 7)
    cells[ci] = CellMap(cells[ci].poly, tuple(img))
    return PLMap2(h.model, cells)


def _assert_matches_oracle(lhs, rhs):
    expected = _oracle_witness(lhs, rhs)
    assert first_disagreement(lhs, rhs) == expected
    return expected


@pytest.mark.parametrize("name", NAMES)
def test_frozen_checks_match_the_oracle(frozen, name):
    _, _, sides = frozen[name]
    for lhs, rhs in sides.values():
        assert _assert_matches_oracle(lhs, rhs) is None


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_moved_image_vertex_matches_the_oracle(frozen, name, seed):
    f, cert, _ = frozen[name]
    h = _move_image_vertex(cert.h, random.Random(seed))
    for right in RIGHT_SIDES:
        assert _assert_matches_oracle(*_sides(f, h, cert.model, right)) \
            is not None


def test_changed_rotation_angle_matches_the_oracle():
    # the model rotation 1/3 changed to 2/3: both sides act by the same
    # linear part on every piece and differ only in the shift
    f, cert = _load("disc-rotation-1-3.k-changed")
    for right in RIGHT_SIDES:
        assert _assert_matches_oracle(*_sides(f, cert.h, cert.model, right)) \
            is not None


def test_compose_hands_on_the_affine_of_every_piece(frozen):
    f, _, _ = frozen["disc-rotation-1-3"]
    maps_out = [power(f, 3)]
    for _, _, sides in frozen.values():
        for lhs, rhs in sides.values():
            maps_out += [lhs, rhs]
    for g in maps_out:
        assert g.affines is not None
        for i, cell in enumerate(g.cells):
            assert g.affines[i] == affine_from_pairs(
                *on_integers(cell.poly, cell.img))


def _meeting(g, x0, y0, x1, y1):
    """The cells of g whose Fraction boxes meet [x0, x1] x [y0, y1], in
    the min-x order of those boxes."""
    boxes = [bbox(c.poly) for c in g.cells]
    return [i for i in sorted(range(len(boxes)), key=lambda i: boxes[i][0])
            if boxes[i][0] <= x1 and x0 <= boxes[i][2]
            and boxes[i][1] <= y1 and y0 <= boxes[i][3]]


def test_box_index_finds_the_cells_fraction_boxes_meet(frozen):
    """``BoxIndex`` queries return the cells whose Fraction boxes meet a
    box, or hold a point, in the min-x order of those boxes: the
    candidates, in their order, of the overlay on Fractions."""
    _, _, sides = frozen["disc-rotation-1-3"]
    for f, g in sides[_followed], sides[_followed][::-1]:
        for ci, cell in enumerate(f.cells):
            x0, y0, x1, y1 = bbox(cell.poly)
            q = g.index.grid(*f.index.boxes[ci], f.index.D)
            assert g.index.near(q) == _meeting(g, x0, y0, x1, y1)
            assert [i for i in range(len(g.cells)) if g.index.meets(i, q)] \
                == sorted(g.index.near(q))
            for x, y in (cell.poly[0], ((x0 + x1) / 2, (y0 + y1) / 2)):
                assert g.index.at(hom((x, y))) == _meeting(g, x, y, x, y)
    # boxes over small denominators, on and off the grid of the bands
    g = identity_map(DISC, band_cells(DISC, 4))
    rng = random.Random(0)
    for _ in range(300):
        den = rng.choice([1, 2, 3, 5, 8])
        xs = sorted(rng.randint(-den, 2 * den) for _ in range(2))
        ys = sorted(rng.randint(-den, 2 * den) for _ in range(2))
        assert g.index.near(g.index.grid(xs[0], ys[0], xs[1], ys[1], den)) \
            == _meeting(g, Q(xs[0], den), Q(ys[0], den), Q(xs[1], den),
                        Q(ys[1], den))


def test_equal_check_clips_each_cell_about_once(frozen, monkeypatch):
    """On disc rotation 1/3 a scan of all box-meeting pairs clips 6024."""
    _, _, sides = frozen["disc-rotation-1-3"]
    lhs, rhs = sides[_followed]
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return clip_convex(*args)
    monkeypatch.setattr(maps, "clip_convex", counted)
    assert first_disagreement(lhs, rhs) is None
    assert 0 < calls[0] <= len(lhs.cells) + len(rhs.cells)


def test_right_side_keeps_the_cells_of_h_without_overlay(monkeypatch):
    """model o h of the frozen checks is h's cells, each followed by the
    model's affine map: no frozen image crosses a meridian, and nothing is
    composed or clipped."""
    def refused(*args):
        raise AssertionError("overlay work in the right-hand side")
    for module in (maps, geom):
        monkeypatch.setattr(module, "clip_convex", refused)
    monkeypatch.setattr(maps, "compose", refused)
    for name in CHECKED:
        _, cert = _load(name)
        rhs = follow(cert.h, cert.model.affine())
        assert [c.poly for c in rhs.cells] == [c.poly for c in cert.h.cells]


def _brute_preimage_count(f):
    """The generic preimage count, testing the point against every image
    cell and its +1 translate."""
    polys = [ccw(shift_into_unit(c.img)[1]) for c in f.cells]
    for cand in polys:
        p = (mod1(sum(q[0] for q in cand) / len(cand)),
             sum(q[1] for q in cand) / len(cand))
        classes = [reference_point_in_convex(q, list(poly))
                   for poly in polys for q in (p, (p[0] + 1, p[1]))]
        if BOUNDARY not in classes:
            return classes.count(INSIDE)
    return -1


@pytest.mark.parametrize("name", NAMES + TAMPERED)
def test_generic_preimage_count_matches_a_scan_of_every_cell(name):
    _, cert = _load(name)
    assert maps._generic_preimage_count(maps.inverse(cert.h)) == \
        _brute_preimage_count(cert.h)
