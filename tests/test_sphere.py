from fractions import Fraction

import pytest

from plhomeo import io as pio
from plhomeo.circle import rotation_number
from plhomeo.conjugacy import ModelIsometry, check_certificate
from plhomeo.errors import NotPeriodic, StructureViolated
from plhomeo.generate import make_instance
from plhomeo.geom import OUTSIDE, on_segment, orient, point_in_convex
from plhomeo.maps import (CellMap, PLMap2, boundary_restriction, compose,
                          evaluate, fixed_set, follow, identity_map,
                          is_model_rotation, period, power, validate_homeo)
from plhomeo.sphere import (_solve_class_angle, analyze_sphere,
                            build_conjugacy_fixedpoint, build_conjugacy_free,
                            t0_cut)
from plhomeo.suspension import SPHERE, band_cells, isometry_affine

Q = Fraction


def pt(x, y):
    return (Q(x), Q(y))


def test_analyze_model_rotation():
    ana = analyze_sphere(ModelIsometry(SPHERE, "rotation", 1, 3).as_map())
    assert (ana.kind, ana.k, ana.n) == ("rotation", 1, 3)


def test_analyze_model_reflection():
    ana = analyze_sphere(ModelIsometry(SPHERE, "reflection").as_map())
    assert ana.kind == "reflection" and ana.n == 2
    assert ana.fixed.one[0][0] == ana.fixed.one[0][-1]


def test_analyze_equator_reflection():
    cells = band_cells(SPHERE, 4)
    f = PLMap2(SPHERE, [CellMap(tuple(c), tuple((x, -y) for x, y in c))
                        for c in cells])
    ana = analyze_sphere(f)
    assert ana.kind == "reflection"
    assert all(p[1] == 0 for p in ana.fixed.one[0])


def test_analyze_model_rotoreflection():
    f = ModelIsometry(SPHERE, "rotoreflection", 1, 4).as_map()
    ana = analyze_sphere(f)
    assert (ana.kind, ana.k, ana.n) == ("rotoreflection", 1, 4)


def test_equator_reflection_gets_twice_the_link_period_of_its_square():
    # it swaps the poles and squares to the identity; the rotoreflection
    # 1/4, whose square is the rotation 1/2, is test_rotoreflection_period
    equator = follow(identity_map(SPHERE, band_cells(SPHERE, 4)),
                     isometry_affine(1, Q(0), -1))
    assert evaluate(equator, pt(0, 1)) == pt(0, -1)
    assert period(equator) == 2
    assert analyze_sphere(equator).n == 2


def test_link_periodic_but_squeezing_map_is_not_periodic():
    # rotation 1/3 followed by a squeeze of the latitudes towards the
    # equator: the north link map has period 3, but f^3 is not the identity
    cells = []
    levels = [Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1)]
    for j in range(3):
        a, b = Q(j, 3), Q(j + 1, 3)
        for lo, hi in zip(levels, levels[1:]):
            cells.append(((a, lo), (b, lo), (b, hi), (a, hi)))

    def squeeze(p):
        x, y = p
        if abs(y) <= Q(1, 2):
            return (x, y / 2)
        return (x, (Q(3, 2) * abs(y) - Q(1, 2)) * (1 if y > 0 else -1))

    sq = PLMap2(SPHERE, [CellMap(c, tuple(squeeze(p) for p in c))
                         for c in cells])
    f = compose(ModelIsometry(SPHERE, "rotation", 1, 3).as_map(), sq)
    assert validate_homeo(f) == []
    link = rotation_number(boundary_restriction(f))
    assert (link.k, link.n) == (1, 3)
    with pytest.raises(NotPeriodic, match="f\\^n != id for n = 3"):
        period(f)
    with pytest.raises(NotPeriodic):
        analyze_sphere(f)


def test_analyze_off_pole_fixed_points_rejected():
    cells = band_cells(SPHERE, 4)
    from plhomeo.maps import shift_into_unit
    out = []
    for c in cells:
        img = [(-x, -y) for x, y in c]
        _, img_u = shift_into_unit(img)
        out.append(CellMap(tuple(c), img_u))
    f = PLMap2(SPHERE, out)  # (t,s) -> (-t,-s): preserving, swaps poles
    assert validate_homeo(f) == []
    with pytest.raises(StructureViolated):
        analyze_sphere(f)


def test_conjugacy_model_sphere_rotation():
    f = ModelIsometry(SPHERE, "rotation", 1, 3).as_map()
    cert = build_conjugacy_fixedpoint(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.kind, cert.model.k, cert.model.n) == ("rotation", 1, 3)


def test_conjugacy_scrambled_sphere_rotation():
    f, h, r = make_instance(SPHERE, "rotation", 1, 3, seed=5, moves=8)
    cert = build_conjugacy_fixedpoint(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert validate_homeo(cert.h) == []
    # both fixed points go to the poles
    assert evaluate(cert.h, pt(0, 1)) == pt(0, 1)
    assert evaluate(cert.h, pt(0, -1)) == pt(0, -1)


def test_conjugacy_scrambled_sphere_rotation_k2():
    f, h, r = make_instance(SPHERE, "rotation", 2, 5, seed=9, moves=8)
    cert = build_conjugacy_fixedpoint(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (2, 5)


def test_conjugacy_model_sphere_reflection():
    f = ModelIsometry(SPHERE, "reflection").as_map()
    cert = build_conjugacy_fixedpoint(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert cert.model.kind == "reflection"


def test_conjugacy_scrambled_sphere_reflection():
    f, h, r = make_instance(SPHERE, "reflection", 0, 2, seed=13, moves=8)
    cert = build_conjugacy_fixedpoint(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    # the fixed circle maps onto the model fixed circle (t in {0, 1/2})
    fs = fixed_set(f)
    for p in fs.one[0]:
        q = evaluate(cert.h, p)
        assert q[0] in (Q(0), Q(1, 2)) or abs(q[1]) == 1


def test_t0_model_rotoreflection():
    f = ModelIsometry(SPHERE, "rotoreflection", 1, 4).as_map()
    assert t0_cut(f) == 0


def test_t0_shifted_by_conjugation():
    # scramble, then normalize the square: t0 need not be 0 anymore
    f, h, r = make_instance(SPHERE, "rotoreflection", 1, 4, seed=3, moves=8)
    from plhomeo.sphere import free_structure
    fp, conj, t0, orbit, subcase = free_structure(f, 4)
    assert subcase == "distinct"
    assert is_model_rotation(power(fp, 2)) is not None
    assert -1 < t0 < 1
    # the caps touch but do not cross: envelope value equals t0 exactly
    from plhomeo.sphere import _height_envelope
    assert _height_envelope(fp, t0) == t0


def seg_intersection(a, b, c, d):
    """Intersect closed segments [a,b] and [c,d] exactly.

    Returns ("none", None), ("point", p) or ("overlap", (p, q)) with p != q.
    """
    o1, o2 = orient(a, b, c), orient(a, b, d)
    if o1 == 0 and o2 == 0:  # collinear supporting lines
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return ("none", None)
        if lo == hi:
            return ("point", lo)
        return ("overlap", (lo, hi))
    if o1 == 0 and on_segment(c, a, b):
        return ("point", c)
    if o2 == 0 and on_segment(d, a, b):
        return ("point", d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o3 == 0 and on_segment(a, c, d):
        return ("point", a)
    if o4 == 0 and on_segment(b, c, d):
        return ("point", b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        denom = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
        t = ((c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0])) / denom
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        return ("point", p)
    return ("none", None)


def convex_touch(p_poly, q_poly):
    """Do two convex polygons intersect at all (even in a single point)?
    The touch scan of the t0 oracle, which shares no code with t0_cut."""
    for v in p_poly:
        if point_in_convex(v, q_poly) != OUTSIDE:
            return True
    for v in q_poly:
        if point_in_convex(v, p_poly) != OUTSIDE:
            return True
    np_, nq = len(p_poly), len(q_poly)
    for i in range(np_):
        for j in range(nq):
            kind, _ = seg_intersection(p_poly[i], p_poly[(i + 1) % np_],
                                       q_poly[j], q_poly[(j + 1) % nq])
            if kind != "none":
                return True
    return False


def brute_force_t0_oracle(f):
    """Independent scan: all candidate latitudes from cell geometry, then
    exact region disjointness tests on each side of each candidate."""
    from plhomeo.geom import area2
    from plhomeo.maps import shift_into_unit

    def cap_pieces(t):
        out = []
        for cell in f.cells:
            piece = [p for p in cell.poly if p[1] >= t]
            m = len(cell.poly)
            extra = []
            for i in range(m):
                a, b = cell.poly[i], cell.poly[(i + 1) % m]
                if (a[1] - t) * (b[1] - t) < 0:
                    lam = (t - a[1]) / (b[1] - a[1])
                    extra.append((i, (a[0] + lam * (b[0] - a[0]), t)))
            if len(piece) == len(cell.poly):
                out.append(list(cell.poly))
                continue
            if not piece and not extra:
                continue
            clipped = []
            for i in range(m):
                a = cell.poly[i]
                if a[1] >= t:
                    clipped.append(a)
                for j, q in extra:
                    if j == i:
                        clipped.append(q)
            if len(clipped) >= 3 and area2(tuple(clipped)) != 0:
                out.append(clipped)
        return out

    def image_polys(t):
        out = []
        for ci, cell in enumerate(f.cells):
            A = f.affine(ci)
            piece = cap_pieces_cell(cell, t)
            for poly in piece:
                img = [A(p) for p in poly]
                _, img_u = shift_into_unit(img)
                out.append(list(img_u))
        return out

    def cap_pieces_cell(cell, t):
        m = len(cell.poly)
        keep = [p for p in cell.poly if p[1] >= t]
        if len(keep) == m:
            return [list(cell.poly)]
        clipped = []
        for i in range(m):
            a, b = cell.poly[i], cell.poly[(i + 1) % m]
            if a[1] >= t:
                clipped.append(a)
            if (a[1] - t) * (b[1] - t) < 0:
                lam = (t - a[1]) / (b[1] - a[1])
                clipped.append((a[0] + lam * (b[0] - a[0]), t))
        if len(clipped) >= 3 and area2(tuple(clipped)) != 0:
            return [clipped]
        return []

    def touches(t):
        caps = cap_pieces(t)
        imgs = image_polys(t)
        for c in caps:
            for im in imgs:
                for dx in (-1, 0, 1):
                    shifted = [(x + dx, y) for x, y in im]
                    if convex_touch(c, shifted):
                        return True
        return False

    candidates = set()
    for ci, cell in enumerate(f.cells):
        A = f.affine(ci)
        for p in cell.poly:
            candidates.add(p[1])
            candidates.add(A(p)[1])
        m = len(cell.poly)
        for i in range(m):
            a, b = cell.poly[i], cell.poly[(i + 1) % m]
            if a[1] == b[1]:
                continue
            sa, sb = A(a)[1], A(b)[1]
            denom = (b[1] - a[1]) - (sb - sa)
            if denom != 0:
                t = (a[1] * (sb - sa) - sa * (b[1] - a[1])) / -denom
                if min(a[1], b[1]) <= t <= max(a[1], b[1]):
                    candidates.add(t)
    cands = sorted(c for c in candidates if -1 < c < 1)
    best = None
    for c in cands:
        if touches(c):
            # disjoint strictly above c, touching at c -> c is the infimum
            nxt = [x for x in cands if x > c]
            probe = (c + (nxt[0] if nxt else 1)) / 2
            if not touches(probe):
                best = c
                break
    return best


def test_t0_matches_scan_oracle():
    f, h, r = make_instance(SPHERE, "rotoreflection", 1, 4, seed=3, moves=6)
    from plhomeo.sphere import free_structure
    fp, conj, t0, orbit, subcase = free_structure(f, 4)
    assert brute_force_t0_oracle(fp) == t0


def test_conjugacy_model_rotoreflection():
    f = ModelIsometry(SPHERE, "rotoreflection", 1, 4).as_map()
    cert = build_conjugacy_free(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (1, 4)


def test_conjugacy_model_antipodal():
    f = ModelIsometry(SPHERE, "rotoreflection", 1, 2).as_map()
    cert = build_conjugacy_free(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (1, 2)


def test_conjugacy_scrambled_rotoreflection():
    f, h, r = make_instance(SPHERE, "rotoreflection", 1, 4, seed=3, moves=8)
    cert = build_conjugacy_free(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (1, 4)
    assert validate_homeo(cert.h) == []


def test_conjugacy_subcase_a():
    # gcd(2k, n) = 2 with k even: the orbit of P0 closes at i = n/2 odd
    f = ModelIsometry(SPHERE, "rotoreflection", 2, 6).as_map()
    cert = build_conjugacy_free(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (2, 6)


def test_subcase_a_class_angle_is_even():
    """In subcase A, fp^(n/2) fixes P0 and n/2 is odd, so the model's power
    (t + k/2, -s) must have a fixed point: k is even.  Of the two angles
    that pass the arc structure of 4/6, 1/6 and 4/6, only 4/6 is left."""
    assert _solve_class_angle(2, 6, 3, Q(1, 3)) == 4


def test_conjugacy_model_rotoreflection_4_6():
    f = ModelIsometry(SPHERE, "rotoreflection", 4, 6).as_map()
    cert = build_conjugacy_free(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (4, 6)
    assert validate_homeo(cert.h) == []


def test_conjugacy_scrambled_subcase_a():
    f, h, r = make_instance(SPHERE, "rotoreflection", 2, 6, seed=7, moves=8)
    from plhomeo.sphere import free_structure
    fp, conj, t0, orbit, subcase = free_structure(f, 6)
    assert subcase == "coincident"
    cert = build_conjugacy_free(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert (cert.model.k, cert.model.n) == (2, 6)


def test_analyze_recovers_rotoreflection_class():
    for (k, n, seed) in [(1, 4, 3), (3, 8, 3), (2, 6, 7), (1, 2, 5)]:
        f, h, r = make_instance(SPHERE, "rotoreflection", k, n, seed=seed,
                                moves=6)
        ana = analyze_sphere(f)
        assert (ana.kind, ana.k, ana.n) == ("rotoreflection", k, n)


def test_normalize_plane():
    # a plane map is a sphere map fixing the north pole; the construction
    # keeps that pole fixed and records it as a pin
    f, h, r = make_instance(SPHERE, "rotation", 1, 4, seed=6, moves=8)
    cert = build_conjugacy_fixedpoint(f, analyze_sphere(f))
    assert check_certificate(f, cert) is None
    assert pio.certificate_to_dict(cert)["pins"]["north"]
    assert evaluate(cert.h, pt(0, 1)) == pt(0, 1)


def test_normalize_plane_rejects_pole_swap():
    f = ModelIsometry(SPHERE, "rotoreflection", 1, 4).as_map()
    with pytest.raises(StructureViolated):
        build_conjugacy_fixedpoint(f, analyze_sphere(f))
