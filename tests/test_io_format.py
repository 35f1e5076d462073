"""The triangle form that ``io`` writes and reads for disc and sphere maps.

``map2_to_dict`` fan-triangulates each cell from its first vertex and
numbers the vertices in the order the triangles first meet them;
``map2_from_dict`` reads one cell per triangle, in file order.  Writing
what was read gives the same bytes, and the map read agrees with the map
written.  A malformed payload raises ``ParseError`` with a message that
names what is wrong.
"""

import copy
import re
from fractions import Fraction as Q

import pytest

from plhomeo import io as pio
from plhomeo.errors import OverlayDegenerate, ParseError
from plhomeo.exact import parse_rat
from plhomeo.generate import make_instance
from plhomeo.geom import area2
from plhomeo.maps import CellMap, PLMap2, first_disagreement, identity_map
from plhomeo.suspension import DISC, SPHERE, band_cells

# (model, kind, k, n): every class the generator makes
CLASSES = [(DISC, "identity", 0, 1), (DISC, "rotation", 1, 3),
           (DISC, "rotation", 2, 5), (DISC, "reflection", 0, 2),
           (SPHERE, "identity", 0, 1), (SPHERE, "rotation", 1, 3),
           (SPHERE, "reflection", 0, 2), (SPHERE, "rotoreflection", 1, 2),
           (SPHERE, "rotoreflection", 1, 4)]
MAPS = [(c, seed) for c in CLASSES for seed in (1, 2)]


@pytest.fixture(scope="module", params=MAPS,
                ids=lambda p: "-".join(map(str, p[0])) + f"-s{p[1]}")
def generated(request):
    (model, kind, k, n), seed = request.param
    f, _, _ = make_instance(model, kind, k, n, seed, 3)
    d = pio.map2_to_dict(f)
    return f, d, pio.map2_from_dict(d)


def test_write_after_read_gives_the_same_bytes(generated):
    _, d, read = generated
    assert pio.dumps(pio.map2_to_dict(read)) == pio.dumps(d)


def test_cells_read_are_the_triangles_in_file_order(generated):
    """Cell i is triangle i at its lifted chart points, counter-clockwise,
    with its lifted images aligned; and triangle i is the next fan
    triangle of the map written."""
    f, d, read = generated
    verts = [tuple(map(parse_rat, v)) for v in d["vertices"]]
    imgs = [tuple(map(parse_rat, v)) for v in d["images"]]
    assert len(read.cells) == len(d["triangles"])
    for cell, tri, lf, img_lf in zip(read.cells, d["triangles"], d["lifts"],
                                     d["image_lifts"]):
        poly = [(verts[v][0] + l, verts[v][1]) for v, l in zip(tri, lf)]
        img = [(imgs[v][0] + l, imgs[v][1]) for v, l in zip(tri, img_lf)]
        if area2(tuple(poly)) < 0:
            poly.reverse()
            img.reverse()
        assert cell == CellMap(tuple(poly), tuple(img))
    fans = [CellMap((c.poly[0], c.poly[i], c.poly[i + 1]),
                    (c.img[0], c.img[i], c.img[i + 1]))
            for c in f.cells for i in range(1, len(c.poly) - 1)]
    assert read.cells == fans


def test_map_read_agrees_with_map_written(generated):
    f, _, read = generated
    assert read.model == f.model
    assert first_disagreement(f, read) is None


def _base():
    return pio.map2_to_dict(identity_map(DISC))


def _set(key, value):
    def mutate(d):
        d[key] = value
    return mutate


def _edit(key, i, value):
    def mutate(d):
        d[key][i] = value
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_set("model", "torus"), "unknown model 'torus'"),
    (lambda d: d["lifts"].pop(),
     "lifts and image_lifts need one entry per triangle"),
    (lambda d: d["image_lifts"].append([0, 0, 0]),
     "lifts and image_lifts need one entry per triangle"),
    (_edit("triangles", 0, [0, 1, 99]), "triangle vertex index out of range"),
    (_edit("triangles", 0, [0, -1, 2]), "triangle vertex index out of range"),
    (_edit("triangles", 0, [0, 1]), "triangles entries must be three "
                                    "integers"),
    (_edit("lifts", 0, [0, 1.0, 0]), "lifts entries must be three integers"),
    (_edit("image_lifts", 0, [0, 0, "1"]),
     "image_lifts entries must be three integers"),
    (lambda d: d.pop("vertices"), "bad map payload: 'vertices'"),
    (_edit("vertices", 0, ["1/0", "0/1"]),
     "denominator must be positive in '1/0'"),
    (_edit("vertices", 0, [0, 1]), 'rational must be a "p/q" string'),
    (_edit("vertices", 0, ["0/1"]),
     "bad map payload: not enough values to unpack"),
], ids=["model", "lifts", "image_lifts", "index-high", "index-low",
        "pair", "float-lift", "str-lift", "no-vertices", "zero-denominator",
        "int-coordinate", "one-coordinate"])
def test_malformed_payload_is_a_parse_error(mutate, message):
    d = copy.deepcopy(_base())
    mutate(d)
    with pytest.raises(ParseError, match=re.escape(message)):
        pio.map2_from_dict(d)


def test_image_count_message():
    d = _base()
    d["images"].pop()
    n = len(d["vertices"])
    with pytest.raises(ParseError) as exc:
        pio.map2_from_dict(d)
    assert str(exc.value) == f"{n - 1} images for {n} vertices"


@pytest.mark.parametrize("shift", [(Q(1, 2), Q(0)), (Q(0), Q(1, 3))],
                         ids=["angle", "height"])
def test_inconsistent_vertex_images_are_not_written(shift):
    """Cells 0 and 1 of the bands share their first vertex; moving its
    image in cell 1 by a non-integer angle, or in height, leaves no one
    image for the model point."""
    cells = [CellMap(tuple(c), tuple(c)) for c in band_cells(SPHERE, 4)]
    c = cells[1]
    (x, y), dx, dy = c.img[0], *shift
    cells[1] = CellMap(c.poly, ((x + dx, y + dy),) + c.img[1:])
    with pytest.raises(OverlayDegenerate, match="vertex images inconsistent"):
        pio.map2_to_dict(PLMap2(SPHERE, cells))
