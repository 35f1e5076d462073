"""The exact check h o f = model o h against a brute-force oracle.

``map_equal`` and ``first_disagreement`` clip a cell of the left map
against the whole right map only when the cells of the right map that act
alike fail to cover it.  The oracle here clips every pair of cells whose
boxes meet and solves every affine map from its cell's vertices, so it
shares neither shortcut.  The pairs are the checks of the frozen benchmark
certificates (read only), intact and with one image vertex of h moved.
"""

import random
from pathlib import Path

import pytest

from plhomeo import io as pio
from plhomeo import maps
from plhomeo.exact import mod1
from plhomeo.geom import bbox_overlap, clip_convex, poly_bbox
from plhomeo.maps import (CellMap, PLMap2, compose, evaluate,
                          first_disagreement, map_equal, power)
from plhomeo.suspension import affine_from_pairs, model_point, s_range

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


def _load(name):
    _, f, _, _ = pio.instance_from_dict(pio.load_json(INPUTS / f"{name}.json"))
    cert = pio.certificate_from_dict(
        pio.load_json(INPUTS / f"{name}.cert.json"))
    return f, cert


def _sides(f, h, model):
    return compose(f, h), compose(h, model.as_map())


@pytest.fixture(scope="module")
def frozen():
    out = {}
    for name in NAMES:
        f, cert = _load(name)
        out[name] = (f, cert, _sides(f, cert.h, cert.model))
    return out


def _solved(cell):
    a = affine_from_pairs(list(cell.poly), list(cell.img))
    return (a.a, a.b, mod1(a.c), a.d, a.e, a.f)


def _oracle_pieces(f, g):
    """Every differing overlap piece, over all box-meeting cell pairs."""
    fk = [_solved(c) for c in f.cells]
    gk = [_solved(c) for c in g.cells]
    gb = [poly_bbox(c.poly) for c in g.cells]
    for ci, cell in enumerate(f.cells):
        box = poly_bbox(cell.poly)
        for di, other in enumerate(g.cells):
            if not bbox_overlap(box, gb[di]):
                continue
            piece = clip_convex(cell.poly, other.poly)
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
    assert map_equal(lhs, rhs) == (expected is None)
    assert first_disagreement(lhs, rhs) == expected
    return expected


@pytest.mark.parametrize("name", NAMES)
def test_frozen_checks_match_the_oracle(frozen, name):
    _, _, (lhs, rhs) = frozen[name]
    assert _assert_matches_oracle(lhs, rhs) is None


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_moved_image_vertex_matches_the_oracle(frozen, name, seed):
    f, cert, _ = frozen[name]
    h = _move_image_vertex(cert.h, random.Random(seed))
    assert _assert_matches_oracle(*_sides(f, h, cert.model)) is not None


def test_compose_hands_on_the_affine_of_every_piece(frozen):
    f, _, _ = frozen["disc-rotation-1-3"]
    maps_out = [power(f, 3)]
    for _, _, (lhs, rhs) in frozen.values():
        maps_out += [lhs, rhs]
    for g in maps_out:
        assert g.affines is not None
        for i, cell in enumerate(g.cells):
            assert g.affines[i] == affine_from_pairs(list(cell.poly),
                                                     list(cell.img))


def test_equal_check_clips_each_cell_about_once(frozen, monkeypatch):
    """On disc rotation 1/3 a scan of all box-meeting pairs clips 6024."""
    _, _, (lhs, rhs) = frozen["disc-rotation-1-3"]
    calls = [0]

    def counted(subject, clip):
        calls[0] += 1
        return clip_convex(subject, clip)
    monkeypatch.setattr(maps, "clip_convex", counted)
    assert map_equal(lhs, rhs)
    assert calls[0] <= len(lhs.cells) + len(rhs.cells)
