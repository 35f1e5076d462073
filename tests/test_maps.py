import random
from fractions import Fraction

import pytest

from plhomeo.circle import is_circle_identity, rotation_number
from plhomeo.conjugacy import ModelIsometry
from plhomeo.errors import ParseError, StructureViolated
from plhomeo.maps import (CellMap, PLMap2, boundary_restriction, compose,
                          evaluate, first_disagreement, fixed_set, follow,
                          identity_map, inverse, is_identity, map_equal,
                          orientation, period, power, serializable_parts,
                          from_complex, validate_homeo)
from plhomeo.suspension import DISC, SPHERE, band_cells, isometry_affine

Q = Fraction


def pt(x, y):
    return (Q(x), Q(y))


def rational_points(model, rng, count):
    lo = 0 if model == DISC else -1
    pts = []
    for _ in range(count):
        t = Q(rng.randint(0, 255), 256)
        s = Q(rng.randint(lo * 64 + 1, 63), 64)
        pts.append((t, s))
    return pts


def test_identity_basics():
    f = identity_map(DISC)
    assert validate_homeo(f) == []
    assert is_identity(f)
    assert period(f) == 1
    assert orientation(f) == "preserving"
    assert evaluate(f, pt(Q(1, 3), Q(1, 2))) == pt(Q(1, 3), Q(1, 2))


def test_rotation_map_validates_and_evaluates():
    f = ModelIsometry(DISC, "rotation", 1, 4).as_map()
    assert validate_homeo(f) == []
    assert evaluate(f, pt(0, Q(1, 2))) == pt(Q(1, 4), Q(1, 2))
    assert evaluate(f, pt(Q(7, 8), Q(1, 2))) == pt(Q(1, 8), Q(1, 2))
    assert evaluate(f, pt(0, 0)) == pt(0, 0)  # center fixed
    assert orientation(f) == "preserving"


def test_rotation_period_and_power():
    f = ModelIsometry(DISC, "rotation", 1, 6).as_map()
    assert period(f) == 6
    assert is_identity(power(f, 6))
    assert not is_identity(power(f, 3))
    by_2_6 = follow(identity_map(DISC, band_cells(DISC, 6)),
                    isometry_affine(1, Q(2, 6), 1))
    assert first_disagreement(power(f, 2), by_2_6) is None


def test_reflection_map():
    f = ModelIsometry(DISC, "reflection").as_map()
    assert validate_homeo(f) == []
    assert orientation(f) == "reversing"
    assert period(f) == 2
    assert evaluate(f, pt(Q(1, 8), Q(1, 2))) == pt(Q(7, 8), Q(1, 2))


def test_rotoreflection_period():
    f = ModelIsometry(SPHERE, "rotoreflection", 1, 4).as_map()
    assert validate_homeo(f) == []
    assert orientation(f) == "reversing"
    # square is the rotation by 1/2, so the period is 4
    sq = power(f, 2)
    half = ModelIsometry(SPHERE, "rotation", 1, 2).as_map()   # on 4 bands
    assert first_disagreement(sq, half) is None
    assert period(f) == 4


def test_rotoreflection_period_n8():
    f = ModelIsometry(SPHERE, "rotoreflection", 3, 8).as_map()
    assert period(f) == 8
    assert fixed_set(f).is_empty()


def test_compose_pointwise_oracle():
    rng = random.Random(5)
    a = ModelIsometry(DISC, "rotation", 1, 3).as_map()
    b = follow(identity_map(DISC, band_cells(DISC, 6)),
               ModelIsometry(DISC, "reflection").affine())
    c = compose(a, b)
    assert validate_homeo(c) == []
    for p in rational_points(DISC, rng, 200):
        assert evaluate(c, p) == evaluate(b, evaluate(a, p))


def test_compose_inverse_identity():
    f = compose(ModelIsometry(DISC, "rotation", 2, 5).as_map(),
                follow(identity_map(DISC, band_cells(DISC, 5)),
                       ModelIsometry(DISC, "reflection").affine()))
    g = compose(f, inverse(f))
    assert is_identity(g)
    assert is_identity(compose(inverse(f), f))


def test_sphere_rotation_fixed_set_is_poles():
    f = ModelIsometry(SPHERE, "rotation", 1, 3).as_map()
    fs = fixed_set(f)
    assert fs.zero == [pt(0, -1), pt(0, 1)]
    assert not fs.one and not fs.two and not fs.everything


def test_disc_rotation_fixed_set_is_center():
    f = ModelIsometry(DISC, "rotation", 1, 4).as_map()
    fs = fixed_set(f)
    assert fs.zero == [pt(0, 0)]
    assert not fs.one


def test_identity_fixed_set_everything():
    assert fixed_set(identity_map(DISC)).everything


def test_reflection_fixed_set_is_diameter():
    f = ModelIsometry(DISC, "reflection").as_map()
    fs = fixed_set(f)
    assert fs.zero == [] and len(fs.one) == 1 and not fs.everything
    chain = fs.one[0]
    assert pt(0, 1) in chain and pt(Q(1, 2), 1) in chain and pt(0, 0) in chain


def test_sphere_reflection_fixed_circle():
    f = ModelIsometry(SPHERE, "reflection").as_map()
    fs = fixed_set(f)
    assert len(fs.one) == 1
    chain = fs.one[0]
    assert chain[0] == chain[-1]  # closed curve
    assert pt(0, 1) in chain and pt(0, -1) in chain


def test_equator_reflection_fixed_circle_avoids_poles():
    cells = band_cells(SPHERE, 4)
    f = PLMap2(SPHERE, [CellMap(tuple(c), tuple((x, -y) for x, y in c))
                        for c in cells])
    assert validate_homeo(f) == []
    fs = fixed_set(f)
    assert len(fs.one) == 1 and fs.one[0][0] == fs.one[0][-1]
    assert all(p[1] == 0 for p in fs.one[0])


def test_boundary_restriction_rotation():
    f = ModelIsometry(DISC, "rotation", 1, 3).as_map()
    b = boundary_restriction(f)
    rc = rotation_number(b)
    assert (rc.k, rc.n) == (1, 3)


def test_boundary_restriction_reflection():
    f = ModelIsometry(DISC, "reflection").as_map()
    b = boundary_restriction(f)
    assert b.orientation == -1
    assert b(Q(0)) == 0 and b(Q(1, 4)) == Q(3, 4)


def test_map_equality_mod_representation():
    quarter = ModelIsometry(DISC, "rotation", 1, 4)
    f = quarter.as_map()   # on 4 bands
    g = follow(identity_map(DISC, band_cells(DISC, 8)), quarter.affine())
    assert first_disagreement(f, g) is None
    three_quarters = ModelIsometry(DISC, "rotation", 3, 4).as_map()
    w = first_disagreement(f, three_quarters)
    assert w is not None
    assert evaluate(f, w) != evaluate(three_quarters, w)


def test_map_equal_ignores_integer_shifts_of_images():
    f = ModelIsometry(DISC, "rotation", 3, 4).as_map()
    g = PLMap2(DISC, [CellMap(c.poly, tuple((x + 1, y) for x, y in c.img))
                      for c in f.cells])
    assert first_disagreement(f, g) is None
    assert first_disagreement(g, f) is None


def test_maps_on_different_models_are_not_compared():
    quarter = ModelIsometry(DISC, "rotation", 1, 4)
    f = quarter.as_map()
    g = ModelIsometry(SPHERE, "rotation", 1, 4).as_map()
    with pytest.raises(ParseError):
        first_disagreement(f, g)
    assert not map_equal(f, g)
    assert map_equal(f, follow(identity_map(DISC, band_cells(DISC, 8)),
                               quarter.affine()))


def test_map_equal_refuses_a_map_that_does_not_tile():
    # a cell of f left uncovered without a differing neighbour, or covered
    # twice, shows that the second map does not tile the chart
    f = ModelIsometry(DISC, "rotation", 1, 4).as_map()
    for g in (PLMap2(DISC, f.cells[1:]), PLMap2(DISC, f.cells + f.cells[:1])):
        with pytest.raises(StructureViolated):
            first_disagreement(f, g)


MODELS = [ModelIsometry(DISC, "identity"),
          ModelIsometry(DISC, "rotation", 1, 3),
          ModelIsometry(DISC, "rotation", 2, 5),
          ModelIsometry(DISC, "reflection"),
          ModelIsometry(SPHERE, "identity"),
          ModelIsometry(SPHERE, "rotation", 1, 4),
          ModelIsometry(SPHERE, "reflection"),
          ModelIsometry(SPHERE, "rotoreflection", 1, 2),
          ModelIsometry(SPHERE, "rotoreflection", 3, 8),
          # k and n of an identity or a reflection are not read
          ModelIsometry(DISC, "identity", 1, 0),
          ModelIsometry(SPHERE, "reflection", 1, 3)]


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_model_affine_agrees_with_its_band_map(model):
    g = model.as_map()
    A = model.affine()
    for i, cell in enumerate(g.cells):
        B = g.affine(i)
        assert (B.a, B.b, B.d, B.e, B.f) == (A.a, A.b, A.d, A.e, A.f)
        assert (B.c - A.c).denominator == 1
    followed = follow(identity_map(model.model), A)
    for p in rational_points(model.model, random.Random(0), 20):
        assert evaluate(g, p) == evaluate(followed, p)


@pytest.mark.parametrize("model", [ModelIsometry(DISC, "rotation", 1, 3),
                                   ModelIsometry(SPHERE, "rotation", 2, 5)],
                         ids=str)
def test_follow_cuts_cells_at_the_meridian(model):
    # the band [1/2, 3/4] rotated by 1/3 or 2/5 straddles t = 1, so its
    # two triangles are cut in two each
    h = identity_map(model.model, band_cells(model.model, 4))
    g = follow(h, model.affine())
    assert len(h.cells) == 8 and len(g.cells) == 10
    assert validate_homeo(g) == []
    assert first_disagreement(g, model.as_map()) is None
    assert first_disagreement(model.as_map(), g) is None


def test_serialization_roundtrip():
    f = compose(ModelIsometry(DISC, "rotation", 1, 4).as_map(),
                ModelIsometry(DISC, "reflection").as_map())
    cx, img_verts, img_lifts = serializable_parts(f)
    g = from_complex(cx, img_verts, img_lifts)
    assert first_disagreement(f, g) is None
    assert validate_homeo(g) == []


def test_validate_rejects_flipped_triangle():
    cells = band_cells(DISC, 4)
    bad = []
    for i, c in enumerate(cells):
        if i == 0:
            # mirror one cell's image only: mixed determinant signs
            bad.append(CellMap(tuple(c), tuple((-x, y) for x, y in c)))
        else:
            bad.append(CellMap(tuple(c), tuple(c)))
    f = PLMap2(DISC, bad)
    problems = validate_homeo(f)
    assert problems != []


def test_validate_rejects_degree_two_cover():
    cells = band_cells(SPHERE, 4)
    out = []
    for c in cells:
        img = [(2 * x, y) for x, y in c]
        from plhomeo.maps import shift_into_unit
        _, img_u = shift_into_unit(img)
        out.append(CellMap(tuple(c), img_u))
    f = PLMap2(SPHERE, out)
    problems = validate_homeo(f)
    assert any("preimages" in p or "image complex" in p for p in problems)


def test_nonperiodic_map_detected():
    # radial squeeze on the disc: s -> s/2 towards the center on inner band
    cells = [
        (pt(0, 0), pt(1, 0), pt(1, Q(1, 2)), pt(0, Q(1, 2))),
        (pt(0, Q(1, 2)), pt(1, Q(1, 2)), pt(1, 1), pt(0, 1)),
    ]
    # build as two vertical splits to keep cells convex and meridian-cut
    cells = []
    for j in range(3):
        a, b = Q(j, 3), Q(j + 1, 3)
        cells.append(((a, Q(0)), (b, Q(0)), (b, Q(1, 2)), (a, Q(1, 2))))
        cells.append(((a, Q(1, 2)), (b, Q(1, 2)), (b, Q(1)), (a, Q(1))))

    def squeeze(p):
        x, y = p
        if y <= Q(1, 2):
            return (x, y / 2)
        return (x, Q(3, 2) * y - Q(1, 2))

    f = PLMap2(DISC, [CellMap(tuple(c), tuple(squeeze(p) for p in c))
                      for c in cells])
    assert validate_homeo(f) == []
    assert period(f) is None
