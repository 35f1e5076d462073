import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from plhomeo.circle import is_circle_identity
from plhomeo.conjugacy import ModelIsometry, check_certificate
from plhomeo.disc import (analyze_disc, build_conjugacy_reflection,
                          build_conjugacy_rotation)
from plhomeo.errors import NotPeriodic, StructureViolated
from plhomeo.generate import make_instance
from plhomeo.maps import (CellMap, PLMap2, boundary_restriction, compose,
                          evaluate, first_disagreement, identity_map, inverse,
                          is_identity, power, validate_homeo)
from plhomeo.sectors import edge_path
from plhomeo.suspension import DISC

Q = Fraction


def pt(x, y):
    return (Q(x), Q(y))


def test_analyze_model_rotation():
    ana = analyze_disc(ModelIsometry(DISC, "rotation", 2, 5).as_map())
    assert (ana.kind, ana.k, ana.n) == ("rotation", 2, 5)
    assert ana.fixed.zero[0] == pt(0, 0)


def test_analyze_identity():
    assert analyze_disc(identity_map(DISC)).kind == "identity"


def test_analyze_model_reflection():
    ana = analyze_disc(ModelIsometry(DISC, "reflection").as_map())
    assert ana.kind == "reflection" and ana.n == 2
    assert ana.fixed.one[0][0][1] == 1 and ana.fixed.one[0][-1][1] == 1


def test_analyze_scrambled_rotation():
    f, h, r = make_instance(DISC, "rotation", 1, 4, seed=2, moves=10)
    ana = analyze_disc(f)
    assert (ana.kind, ana.k, ana.n) == ("rotation", 1, 4)


def test_analyze_scrambled_reflection_arc():
    f, h, r = make_instance(DISC, "reflection", 0, 2, seed=4, moves=10)
    ana = analyze_disc(f)
    assert ana.kind == "reflection"
    arc = ana.fixed.one[0]
    assert arc[0][1] == 1 and arc[-1][1] == 1
    # the scramble fixes the center, so the arc passes through it
    assert pt(0, 0) in arc
    # arc endpoints are the images of the model arc feet under the scramble
    feet = {evaluate(h, pt(0, 1)), evaluate(h, pt(Q(1, 2), 1))}
    assert {arc[0], arc[-1]} == feet


def test_analyze_not_periodic():
    cells = []
    for j in range(3):
        a, b = Q(j, 3), Q(j + 1, 3)
        cells.append(((a, Q(0)), (b, Q(0)), (b, Q(1, 2)), (a, Q(1, 2))))
        cells.append(((a, Q(1, 2)), (b, Q(1, 2)), (b, Q(1)), (a, Q(1))))

    def squeeze(p):
        x, y = p
        return (x, y / 2) if y <= Q(1, 2) else (x, Q(3, 2) * y - Q(1, 2))

    f = PLMap2(DISC, [CellMap(tuple(c), tuple(squeeze(p) for p in c))
                      for c in cells])
    with pytest.raises(NotPeriodic):
        analyze_disc(f)


def grid_cells(cols, rows, lo=Q(0), hi=Q(1)):
    cells = []
    for j in range(cols):
        a, b = Q(j, cols), Q(j + 1, cols)
        for i in range(rows):
            c = lo + (hi - lo) * Q(i, rows)
            d = lo + (hi - lo) * Q(i + 1, rows)
            cells.append(((a, c), (b, c), (b, d)))
            cells.append(((a, c), (b, d), (a, d)))
    return cells


def test_rigidity_check_cases():
    # a periodic map that is the identity on the boundary is the identity;
    # data that claims otherwise is not a homeomorphism and is refused
    assert analyze_disc(identity_map(DISC)).kind == "identity"
    third = ModelIsometry(DISC, "rotation", 1, 3).as_map()
    assert analyze_disc(third).kind == "rotation"
    # corrupted data: boundary identity, two interior blocks swapped by a
    # translation -- cellwise affine, exactly of period 2, discontinuous
    cells = grid_cells(4, 2)
    out = []
    for c in cells:
        xs = [p[0] for p in c]
        ys = [p[1] for p in c]
        if max(ys) <= Q(1, 2) and min(xs) >= 0 and max(xs) <= Q(1, 4):
            out.append(CellMap(tuple(c), tuple((x + Q(1, 2), y) for x, y in c)))
        elif max(ys) <= Q(1, 2) and min(xs) >= Q(1, 2) and max(xs) <= Q(3, 4):
            out.append(CellMap(tuple(c), tuple((x - Q(1, 2), y) for x, y in c)))
        else:
            out.append(CellMap(tuple(c), tuple(c)))
    bad = PLMap2(DISC, out)
    assert is_circle_identity(boundary_restriction(bad))
    assert not is_identity(bad)
    assert is_identity(power(bad, 2))
    assert validate_homeo(bad) != []
    with pytest.raises(StructureViolated):
        analyze_disc(bad)


def test_edge_path_refuses_a_branch():
    # the path 0-1-2 with a spur 1-3: from 1 there are two ways on
    k = SimpleNamespace(edge_verts=[(0, 1), (1, 2), (1, 3)])
    assert edge_path(k, [0, 1], 0, {2}) == [0, 1, 2]
    with pytest.raises(StructureViolated):
        edge_path(k, [0, 1, 2], 0, {2})
    with pytest.raises(StructureViolated):
        edge_path(k, [0, 1, 2], 3, {2})


def test_conjugacy_model_rotation():
    f = ModelIsometry(DISC, "rotation", 1, 4).as_map()
    cert = build_conjugacy_rotation(f, analyze_disc(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.kind, cert.model.k, cert.model.n) == ("rotation", 1, 4)


def test_conjugacy_scrambled_rotation_k1():
    f, h, r = make_instance(DISC, "rotation", 1, 3, seed=2, moves=8)
    cert = build_conjugacy_rotation(f, analyze_disc(f))
    assert check_certificate(f, cert) is None
    lhs = compose(f, cert.h)
    rhs = compose(cert.h, cert.model.as_map())
    assert first_disagreement(lhs, rhs) is None
    # h maps the fixed point to the center
    assert evaluate(cert.h, pt(0, 0)) == pt(0, 0)


def test_conjugacy_scrambled_rotation_k2_n5():
    f, h, r = make_instance(DISC, "rotation", 2, 5, seed=3, moves=9)
    cert = build_conjugacy_rotation(f, analyze_disc(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (2, 5)
    assert validate_homeo(cert.h) == []


def test_conjugacy_model_reflection():
    f = ModelIsometry(DISC, "reflection").as_map()
    cert = build_conjugacy_reflection(f, analyze_disc(f))
    assert check_certificate(f, cert) is None
    assert cert.model.kind == "reflection"


def test_conjugacy_scrambled_reflection():
    f, h, r = make_instance(DISC, "reflection", 0, 2, seed=4, moves=10)
    cert = build_conjugacy_reflection(f, analyze_disc(f))
    assert check_certificate(f, cert) is None
    assert validate_homeo(cert.h) == []
    # the fixed arc maps onto the model diameter
    from plhomeo.maps import fixed_set
    for p in fixed_set(f).one[0]:
        q = evaluate(cert.h, p)
        assert q[0] in (Q(0), Q(1, 2)) or q[1] == 0


def test_reflection_pointwise_conjugation():
    rng = random.Random(11)
    f, h, r = make_instance(DISC, "reflection", 0, 2, seed=11, moves=8)
    cert = build_conjugacy_reflection(f, analyze_disc(f))
    hinv = inverse(cert.h)
    for _ in range(100):
        t = Q(rng.randint(0, 255), 256)
        s = Q(rng.randint(1, 63), 64)
        p = (t, s)
        lhs = evaluate(cert.h, evaluate(f, evaluate(hinv, p)))
        rhs = evaluate(cert.model.as_map(), p)
        assert lhs == rhs


def test_analysis_conjugation_invariant():
    f, h, r = make_instance(DISC, "rotation", 3, 4, seed=5, moves=8)
    extra, _, _ = make_instance(DISC, "rotation", 3, 4, seed=6, moves=0)
    from plhomeo.generate import scramble, scrambled_conjugate
    h2 = scramble(DISC, 99, 5)
    f2 = scrambled_conjugate(f, h2)
    a1, a2 = analyze_disc(f), analyze_disc(f2)
    assert (a1.kind, a1.k, a1.n) == (a2.kind, a2.k, a2.n)
