import random
from fractions import Fraction
from math import gcd

import pytest

from plhomeo.circle import (CirclePL, IntervalPL, LinePL, average_conjugacy,
                            circle_conjugacy_holds, circle_identity,
                            circle_reflection, circle_rotation,
                            classify_interval, classify_line,
                            compose_circle, compose_interval,
                            conjugate_circle_to_model, fixed_points_reversing,
                            interval_reflection, inverse_circle,
                            is_circle_identity, is_line_identity,
                            iterate_circle, period_circle, rotation_number)
from plhomeo.errors import NotPeriodic, OrientationReversing, StructureViolated

Q = Fraction


def random_circle_homeo(rng, nbreaks=4):
    """Random orientation-preserving PL circle homeomorphism."""
    ts = sorted(rng.sample([Q(i, 64) for i in range(64)], nbreaks))
    us = sorted(rng.sample([Q(i, 64) for i in range(1, 64)], nbreaks - 1))
    breaks = tuple((t, ts[0] + u) for t, u in zip(ts, [Q(0)] + us))
    return CirclePL(breaks, 1)


def scrambled(rng, base: CirclePL) -> CirclePL:
    h = random_circle_homeo(rng)
    return compose_circle(compose_circle(inverse_circle(h), base), h)


def test_rotation_composition():
    r = circle_rotation(Q(1, 3))
    assert compose_circle(r, r).equals(circle_rotation(Q(2, 3)))


def test_inverse_cancels():
    rng = random.Random(1)
    for _ in range(20):
        f = random_circle_homeo(rng)
        assert is_circle_identity(compose_circle(f, inverse_circle(f)))
        assert is_circle_identity(compose_circle(inverse_circle(f), f))


def test_iterate_rotation():
    assert is_circle_identity(iterate_circle(circle_rotation(Q(2, 5)), 5))


def test_period_examples():
    assert period_circle(circle_rotation(Q(3, 7))) == 7
    assert period_circle(circle_identity()) == 1
    # non-periodic: fixes 0, slope 1/2 on [0, 1/2]
    f = CirclePL(((Q(0), Q(0)), (Q(1, 2), Q(1, 4))), 1)
    assert period_circle(f) is None


def test_rotation_number_model():
    rc = rotation_number(circle_rotation(Q(2, 5)))
    assert (rc.k, rc.n) == (2, 5)


def test_rotation_number_conjugation_invariant():
    rng = random.Random(3)
    for _ in range(10):
        f = scrambled(rng, circle_rotation(Q(1, 3)))
        rc = rotation_number(f)
        assert (rc.k, rc.n) == (1, 3)


def test_rotation_number_reversing_rejected():
    with pytest.raises(OrientationReversing):
        rotation_number(circle_reflection())


def test_rotation_number_additivity():
    """rho(f^j) is the reduced form of j*k/n, for every j in [1, n)."""
    rng = random.Random(5)
    cases = 0
    while cases < 25:
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        if gcd(k, n) != 1:
            continue
        cases += 1
        f = scrambled(rng, circle_rotation(Q(k, n)))
        for j in range(1, n):
            g = iterate_circle(f, j)
            nj = n // gcd(j, n)
            assert period_circle(g) == nj
            if nj == 1:
                continue
            rc = rotation_number(g)
            assert rc.angle == Q(j * k % n, n)


def orbit_order_oracle(f: CirclePL, n: int):
    """Independent oracle: k is the number of steps the orbit of 0 moves
    along its own cyclic order, which must be the same at every point."""
    if n == 1:
        return 0, 1
    orbit = [Q(0)]
    for _ in range(n - 1):
        orbit.append(f(orbit[-1]))
    order = sorted(range(n), key=lambda i: orbit[i])
    pos = {i: j for j, i in enumerate(order)}
    k = (pos[1] - pos[0]) % n
    assert all(pos[(i + 1) % n] == (pos[i] + k) % n for i in range(n))
    return k, n


def test_rotation_number_matches_orbit_order_oracle():
    rng = random.Random(17)
    for n in range(1, 10):
        for k in range(n):
            if gcd(k, n) != 1:
                continue
            f = scrambled(rng, circle_rotation(Q(k, n)))
            rc = rotation_number(f)
            assert (rc.k, rc.n) == orbit_order_oracle(f, n) == (k, n)


def test_rotation_number_refuses_a_non_period():
    f = scrambled(random.Random(19), circle_rotation(Q(1, 3)))
    for n in (2, 4, 5, 7):
        with pytest.raises(StructureViolated):
            rotation_number(f, n)


def test_fixed_points_reversing_models():
    assert fixed_points_reversing(circle_reflection()) == (Q(0), Q(1, 2))
    t_to_half_minus_t = CirclePL(((Q(0), Q(1, 2)),), -1)
    assert fixed_points_reversing(t_to_half_minus_t) == (Q(1, 4), Q(3, 4))


def fixed_point_scan_oracle(f: CirclePL):
    """Independent oracle: scan each lift segment for F(t) = t + m."""
    t0, u0 = f.breaks[0]
    segs = list(f.breaks) + [(t0 + 1, u0 + f.orientation)]
    roots = set()
    for (ta, ua), (tb, ub) in zip(segs, segs[1:]):
        vals = sorted((ua - ta, ub - tb))
        m = -(-vals[0].numerator // vals[0].denominator)  # ceil
        while m <= vals[1]:
            s = (ub - ua) / (tb - ta)
            if s == 1:
                m += 1
                continue
            t = (m + ta * s - ua) / (s - 1)
            if ta <= t <= tb:
                roots.add(t % 1)
            m += 1
    return sorted(roots)


def test_fixed_points_scrambled_reversing():
    rng = random.Random(11)
    for base in (CirclePL(((Q(0), Q(1, 2)),), -1), circle_reflection(),
                 CirclePL(((Q(0), Q(1, 3)),), -1)):
        for _ in range(10):
            f = scrambled(rng, base)
            assert f.orientation == -1
            p, q = fixed_points_reversing(f)
            assert list(fixed_point_scan_oracle(f)) == [p, q]
            assert is_circle_identity(iterate_circle(f, 2))


def test_averaged_conjugacy_of_a_model_is_the_identity():
    for n in range(1, 9):
        for k in range(n):
            if gcd(k, n) == 1:
                assert is_circle_identity(
                    average_conjugacy(circle_rotation(Q(k, n)), n))
    assert is_circle_identity(average_conjugacy(circle_reflection(), 2))
    line = classify_line(LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1)))
    assert is_line_identity(line.h)


def test_averaged_conjugacy_breaks_on_the_orbit_of_the_breaks():
    rng = random.Random(29)
    for k, n in ((1, 3), (2, 5), (3, 8)):
        f = scrambled(rng, circle_rotation(Q(k, n)))
        orbit = set()
        for t, _ in f.breaks:
            for _ in range(n):
                orbit.add(t)
                t = f(t)
        h = conjugate_circle_to_model(f).h
        assert {t for t, _ in h.breaks} <= orbit
        assert len(h.breaks) <= n * len(f.breaks)


def test_conjugacy_model_rotation_is_identityish():
    f = circle_rotation(Q(1, 4))
    cert = conjugate_circle_to_model(f)
    assert circle_conjugacy_holds(f, cert.h, cert.model_map())
    assert cert.kind == "rotation"
    assert (cert.klass.k, cert.klass.n) == (1, 4)
    assert is_circle_identity(cert.h)


def test_conjugacy_scrambled_rotation():
    rng = random.Random(3)
    for _ in range(8):
        f = scrambled(rng, circle_rotation(Q(2, 5)))
        cert = conjugate_circle_to_model(f)
        lhs = compose_circle(f, cert.h)
        rhs = compose_circle(cert.h, circle_rotation(Q(2, 5)))
        assert lhs.equals(rhs)


def test_conjugacy_reversing_quarter_fixed_points():
    f = CirclePL(((Q(0), Q(1, 2)),), -1)  # fixed points {1/4, 3/4}
    cert = conjugate_circle_to_model(f)
    assert cert.kind == "reflection"
    lhs = compose_circle(f, cert.h)
    rhs = compose_circle(cert.h, circle_reflection())
    assert lhs.equals(rhs)
    # h = rot(-1/4) is one valid answer; ours must send 1/4 -> 0
    assert cert.h(Q(1, 4)) == 0
    assert cert.h(Q(3, 4)) == Q(1, 2)


def test_conjugacy_scrambled_reversing():
    rng = random.Random(13)
    for _ in range(8):
        f = scrambled(rng, CirclePL(((Q(0), Q(1, 3)),), -1))
        cert = conjugate_circle_to_model(f)
        lhs = compose_circle(f, cert.h)
        rhs = compose_circle(cert.h, circle_reflection())
        assert lhs.equals(rhs)


def test_conjugacy_not_periodic():
    f = CirclePL(((Q(0), Q(0)), (Q(1, 2), Q(1, 4))), 1)
    with pytest.raises(NotPeriodic):
        conjugate_circle_to_model(f)


# -- interval ----------------------------------------------------------------


def test_classify_interval_identity():
    f = IntervalPL(((Q(0), Q(0)), (Q(1), Q(1))))
    assert classify_interval(f).kind == "identity"


def test_classify_interval_reflection_self():
    cls = classify_interval(interval_reflection())
    assert cls.kind == "involution"
    assert cls.h.equals(IntervalPL(((Q(0), Q(0)), (Q(1), Q(1)))))


def test_classify_interval_pl_involution():
    f = IntervalPL(((Q(0), Q(1)), (Q(1, 4), Q(1, 2)), (Q(1, 2), Q(1, 4)),
                    (Q(1), Q(0))))
    assert compose_interval(f, f).equals(IntervalPL(((Q(0), Q(0)), (Q(1), Q(1)))))
    cls = classify_interval(f)
    assert cls.kind == "involution"
    h, r = cls.h, interval_reflection()
    lhs, rhs = compose_interval(f, h), compose_interval(h, r)
    assert lhs.equals(rhs)
    # direct substitution at the refined breakpoints
    for x, _ in lhs.breaks:
        assert h(f(x)) == 1 - h(x)


def test_classify_interval_violation():
    f = IntervalPL(((Q(0), Q(0)), (Q(1, 2), Q(1, 4)), (Q(1), Q(1))))
    with pytest.raises(NotPeriodic):
        classify_interval(f)


def test_classify_interval_non_involution():
    f = IntervalPL(((Q(0), Q(1)), (Q(1, 4), Q(1, 2)), (Q(3, 4), Q(1, 4)),
                    (Q(1), Q(0))))
    if not compose_interval(f, f).equals(IntervalPL(((Q(0), Q(0)), (Q(1), Q(1))))):
        with pytest.raises(NotPeriodic):
            classify_interval(f)


def segment_scan_fixed_point(pts):
    """Independent oracle: the zero of y - x on the first segment of the
    polyline through pts where it changes sign."""
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        da, db = ya - xa, yb - xb
        if da == 0:
            return xa
        if da > 0 > db:
            return xa + da * (xb - xa) / (da - db)
    raise AssertionError("no fixed point on the polyline")


INTERVAL_INVOLUTIONS = [
    interval_reflection(),
    IntervalPL(((Q(0), Q(1)), (Q(1, 4), Q(1, 2)), (Q(1, 2), Q(1, 4)),
                (Q(1), Q(0)))),
    IntervalPL(((Q(0), Q(1)), (Q(1, 3), Q(1, 2)), (Q(1, 2), Q(1, 3)),
                (Q(1), Q(0))))]


@pytest.mark.parametrize("f", INTERVAL_INVOLUTIONS)
def test_interval_fixed_point_matches_the_scan_oracle(f):
    cls = classify_interval(f)
    assert cls.fixed_point == segment_scan_fixed_point(f.breaks)


# -- line --------------------------------------------------------------------


def test_classify_line_identity():
    f = LinePL(((Q(0), Q(0)),), Q(1), Q(1))
    assert classify_line(f).kind == "identity"


def test_classify_line_standard_involution():
    # x -> 1 - x
    f = LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1))
    cls = classify_line(f)
    assert cls.kind == "involution" and cls.fixed_point == Q(1, 2)
    h = cls.h
    for x in [Q(-3), Q(0), Q(1, 3), Q(1, 2), Q(2), Q(17, 5)]:
        assert h(f(x)) == 1 - h(x)


def test_classify_line_pl_involution():
    # a decreasing PL involution with a corner: y = -2x for x<=0, y=-x/2 for x>=0
    f = LinePL(((Q(-1), Q(2)), (Q(0), Q(0)), (Q(2), Q(-1))), Q(2), Q(1, 2))
    cls = classify_line(f)
    assert cls.kind == "involution" and cls.fixed_point == 0
    h = cls.h
    for x in [Q(-5), Q(-1), Q(-1, 3), Q(0), Q(1, 7), Q(2), Q(9)]:
        assert h(f(x)) == 1 - h(x)


def test_classify_line_not_periodic():
    f = LinePL(((Q(0), Q(1)),), Q(1), Q(1))  # x + 1: increasing, not id
    with pytest.raises(NotPeriodic):
        classify_line(f)
    g = LinePL(((Q(0), Q(0)), (Q(1), Q(-2))), Q(1), Q(2))  # decreasing, not involutive
    with pytest.raises(NotPeriodic):
        classify_line(g)


LINE_INVOLUTIONS = [
    LinePL(((Q(0), Q(1)), (Q(1), Q(0))), Q(1), Q(1)),
    LinePL(((Q(-1), Q(2)), (Q(0), Q(0)), (Q(2), Q(-1))), Q(2), Q(1, 2))]


@pytest.mark.parametrize("f", LINE_INVOLUTIONS)
def test_line_fixed_point_matches_the_scan_oracle(f):
    (x0, _), (x1, _) = f.breaks[0], f.breaks[-1]
    pts = [(x0 - 1, f(x0 - 1))] + list(f.breaks) + [(x1 + 1, f(x1 + 1))]
    cls = classify_line(f)
    assert cls.fixed_point == segment_scan_fixed_point(pts)
