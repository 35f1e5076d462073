"""Periodic PL homeomorphisms in one dimension.

Interval and line maps are classified directly (identity, or conjugate to
the standard involution); circle maps get exact rotation numbers, fixed
points, and explicit PL conjugacies to the model rotation or reflection.
Map equality is decided on a normalized breakpoint form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .errors import (NotPeriodic, OrientationReversing, PeriodicityViolated,
                     ParseError, StructureViolated)
from .exact import mod1

Q = Fraction

# the longest circle period searched for; it bounds only the 1-D search
MAX_PERIOD = 64


# ---------------------------------------------------------------------------
# circle maps


@dataclass(frozen=True)
class CirclePL:
    """Orientation-preserving or -reversing PL circle homeomorphism.

    `breaks` lists (t, u) with t strictly increasing in [0, 1); the lift F
    interpolates linearly and satisfies F(t + 1) = F(t) + orientation.
    """
    breaks: tuple[tuple[Fraction, Fraction], ...]
    orientation: int

    def __post_init__(self):
        bs = self.breaks
        if not bs:
            raise ParseError("circle map needs at least one breakpoint")
        ts = [t for t, _ in bs]
        if any(not (0 <= t < 1) for t in ts) or sorted(set(ts)) != ts:
            raise ParseError("breakpoint angles must be sorted in [0,1)")
        sign = self.orientation
        if sign not in (1, -1):
            raise ParseError("orientation must be +1 or -1")
        us = [u for _, u in bs] + [bs[0][1] + sign]
        for a, b in zip(us, us[1:]):
            if sign == 1 and not b > a:
                raise ParseError("lift is not strictly increasing")
            if sign == -1 and not b < a:
                raise ParseError("lift is not strictly decreasing")

    # -- evaluation -------------------------------------------------------

    def lift(self, x: Fraction) -> Fraction:
        """Evaluate the lift F at any real rational x."""
        t = mod1(x)
        k = x - t
        bs = self.breaks
        n = len(bs)
        sign = self.orientation
        if t < bs[0][0]:  # wrap segment ending at the first breakpoint
            ta, ua = bs[-1][0] - 1, bs[-1][1] - sign
            tb, ub = bs[0]
        else:
            lo, hi = 0, n  # last breakpoint with t_i <= t
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if bs[mid][0] <= t:
                    lo = mid
                else:
                    hi = mid
            ta, ua = bs[lo]
            if lo + 1 < n:
                tb, ub = bs[lo + 1]
            else:
                tb, ub = bs[0][0] + 1, bs[0][1] + sign
        if t == ta:
            val = ua
        else:
            val = ua + (t - ta) * (ub - ua) / (tb - ta)
        return val + k * sign

    def __call__(self, x: Fraction) -> Fraction:
        return mod1(self.lift(x))

    # -- canonical form ---------------------------------------------------

    def normalize(self) -> "CirclePL":
        pts = list(self.breaks)
        sign = self.orientation
        changed = True
        while changed and len(pts) > 1:
            changed = False
            for i in range(len(pts)):
                ta, ua = pts[i - 1]
                tb, ub = pts[i]
                j = (i + 1) % len(pts)
                tc, uc = pts[j]
                if i - 1 < 0:
                    ta, ua = ta - 1, ua - sign
                if j == 0:
                    tc, uc = tc + 1, uc + sign
                if (tb - ta) * (uc - ua) == (ub - ua) * (tc - ta):
                    del pts[i]
                    changed = True
                    break
        if len(pts) == 1:
            t0, u0 = pts[0]
            f0 = u0 - sign * t0  # value of the linear lift at 0
            return CirclePL(((Q(0), mod1(f0)),), sign)
        shift = pts[0][1] - mod1(pts[0][1])
        pts = [(t, u - shift) for t, u in pts]
        return CirclePL(tuple(pts), sign)

    def equals(self, other: "CirclePL") -> bool:
        return self.normalize().breaks == other.normalize().breaks \
            and self.orientation == other.orientation


def circle_identity() -> CirclePL:
    return CirclePL(((Q(0), Q(0)),), 1)


def circle_rotation(c: Fraction) -> CirclePL:
    return CirclePL(((Q(0), mod1(c)),), 1)


def circle_reflection(c: Fraction = Q(0)) -> CirclePL:
    """t -> c - t (c = 0 is the model reflection)."""
    return CirclePL(((Q(0), mod1(c)),), -1)


def is_circle_identity(f: CirclePL) -> bool:
    return f.orientation == 1 and f.normalize().breaks == ((Q(0), Q(0)),)


def compose_circle(f: CirclePL, g: CirclePL) -> CirclePL:
    """g after f, exactly (breakpoint refinement)."""
    ts: set[Fraction] = {t for t, _ in f.breaks}
    # pull back g's breakpoints through f
    for s, _ in g.breaks:
        ts.add(mod1(_solve_lift(f, s)))
    pts = []
    for t in sorted(ts):
        u = g.lift(f.lift(t))
        pts.append((t, u))
    return CirclePL(tuple(pts), f.orientation * g.orientation).normalize()


def _solve_lift(f: CirclePL, target_mod1: Fraction) -> Fraction:
    """A t with F(t) congruent to target mod 1 (exact PL inversion)."""
    t0, u0 = f.breaks[0]
    sign = f.orientation
    # choose the representative of target hit within one period from t0
    if sign == 1:
        k = ceil(u0 - target_mod1)
        lo_val = u0
    else:
        k = floor(u0 - target_mod1)
        lo_val = u0
    target = target_mod1 + k
    # walk segments of the lift over [t0, t0 + 1)
    bs = list(f.breaks) + [(t0 + 1, u0 + sign)]
    for (ta, ua), (tb, ub) in zip(bs, bs[1:]):
        inside = (ua <= target <= ub) if sign == 1 else (ub <= target <= ua)
        if inside:
            if ua == target:
                return ta
            t = ta + (target - ua) * (tb - ta) / (ub - ua)
            return t
    raise StructureViolated("lift inversion failed")  # pragma: no cover


def inverse_circle(f: CirclePL) -> CirclePL:
    sign = f.orientation
    pts = []
    for t, u in f.breaks:
        x = mod1(u)
        m = u - x  # integer
        if sign == 1:
            pts.append((x, t - m))
        else:
            pts.append((x, t + m))
    pts.sort()
    dedup = [pts[0]]
    for p in pts[1:]:
        if p[0] != dedup[-1][0]:
            dedup.append(p)
    return CirclePL(tuple(dedup), sign).normalize()


def iterate_circle(f: CirclePL, m: int) -> CirclePL:
    if m < 0:
        return iterate_circle(inverse_circle(f), -m)
    out = circle_identity()
    for _ in range(m):
        out = compose_circle(out, f)
    return out


def period_circle(f: CirclePL):
    """Smallest n <= MAX_PERIOD with f^n = id, else None."""
    g = f
    for n in range(1, MAX_PERIOD + 1):
        if is_circle_identity(g):
            return n
        g = compose_circle(g, f)
    return None


@dataclass(frozen=True)
class RotationClass:
    k: int
    n: int

    def __post_init__(self):
        if self.n > 1 and gcd(self.k, self.n) != 1:
            raise StructureViolated("rotation class k/n must be reduced")

    @property
    def angle(self) -> Fraction:
        return Q(self.k, self.n)


def rotation_number(f: CirclePL, n: int | None = None) -> RotationClass:
    """Cyclic displacement k/n of the orbit of 0 under a periodic map of
    period n; n is searched for with ``period_circle`` when not given."""
    if f.orientation == -1:
        raise OrientationReversing(
            "rotation number undefined for reversing maps; "
            "use fixed_points_reversing")
    if n is None:
        n = period_circle(f)
    if n is None:
        raise NotPeriodic(f"no period up to {MAX_PERIOD}")
    if n == 1:
        return RotationClass(0, 1)
    orbit = [Q(0)]
    for _ in range(n - 1):
        orbit.append(f(orbit[-1]))
    order = sorted(range(n), key=lambda i: orbit[i])
    pos = {i: j for j, i in enumerate(order)}
    k = (pos[1] - pos[0]) % n
    for i in range(n):
        if pos[(i + 1) % n] != (pos[i] + k) % n:
            raise StructureViolated("orbit is not cyclically coherent")
    return RotationClass(k, n)


def fixed_points_reversing(f: CirclePL) -> tuple[Fraction, Fraction]:
    """The two fixed angles of an orientation-reversing periodic map."""
    if f.orientation != -1:
        raise OrientationReversing("map must reverse orientation")
    if not is_circle_identity(iterate_circle(f, 2)):
        raise NotPeriodic("reversing map with f^2 != id is not periodic")
    t0, u0 = f.breaks[0]
    bs = list(f.breaks) + [(t0 + 1, u0 - 1)]
    found: list[Fraction] = []
    for (ta, ua), (tb, ub) in zip(bs, bs[1:]):
        # solve u(t) = t + k on the segment; u - t strictly decreasing
        hi, lo = ua - ta, ub - tb
        k = floor(hi)
        while k >= ceil(lo):
            # u(t) - t = k  with u linear on [ta, tb]
            if lo <= k <= hi:
                s = (ub - ua) / (tb - ta)
                t = (k + ta * s - ua) / (s - 1)
                if ta <= t <= tb:
                    x = mod1(t)
                    if x not in found:
                        found.append(x)
            k -= 1
    if len(found) != 2:
        raise StructureViolated(
            f"reversing map must have exactly two fixed points, got {len(found)}")
    found.sort()
    return found[0], found[1]


@dataclass(frozen=True)
class CircleCertificate:
    """Conjugacy h with h o f = model o h, checked exactly."""
    kind: str                      # "rotation" | "reflection" | "identity"
    klass: RotationClass | None
    h: CirclePL
    exact: bool

    def model_map(self) -> CirclePL:
        if self.kind == "rotation":
            return circle_rotation(self.klass.angle)
        if self.kind == "reflection":
            return circle_reflection()
        return circle_identity()


def conjugate_circle_to_model(f: CirclePL) -> CircleCertificate:
    if f.orientation == 1:
        rc = rotation_number(f)
        if rc.n == 1:
            return CircleCertificate("identity", rc, circle_identity(), True)
        cert = CircleCertificate("rotation", rc, _conjugacy_preserving(f, rc),
                                 True)
    else:
        p, q = fixed_points_reversing(f)
        cert = CircleCertificate("reflection", None,
                                 _conjugacy_reversing(f, p, q), True)
    if not circle_conjugacy_holds(f, cert.h, cert.model_map()):
        raise StructureViolated("constructed conjugacy failed exact check")
    return cert


def circle_conjugacy_holds(f: CirclePL, h: CirclePL, r: CirclePL) -> bool:
    """h o f = r o h, exactly."""
    return compose_circle(f, h).equals(compose_circle(h, r))


def _conjugacy_preserving(f: CirclePL, rc: RotationClass) -> CirclePL:
    """h with h(f(x)) = h(x) + k/n, equivariant over the orbit of 0."""
    n, k = rc.n, rc.k
    orbit = [Q(0)]
    for _ in range(n - 1):
        orbit.append(f(orbit[-1]))
    s = sorted(orbit)
    finv = inverse_circle(f)
    pts: list[tuple[Fraction, Fraction]] = []
    for m in range(n):
        j = (m * pow(k, -1, n)) % n  # f^j maps arc_0 onto arc_m
        gj = iterate_circle(finv, j)
        a = s[m]
        length = mod1(s[(m + 1) % n] - a) or Q(1)
        base_len = mod1(s[1] - s[0])
        xs = {a}
        for t, _ in gj.breaks:
            if 0 < mod1(t - a) < length:
                xs.add(a + mod1(t - a))
        for x in sorted(xs):
            z = gj(mod1(x))
            zlift = s[0] + mod1(z - s[0])
            u = Q(m, n) + (zlift - s[0]) / base_len / n
            pts.append((mod1(x), u))
    pts.sort()
    return CirclePL(tuple(pts), 1).normalize()


def _conjugacy_reversing(f: CirclePL, p: Fraction, q: Fraction) -> CirclePL:
    """h sending fixed points to {0, 1/2}; h = -(h o f) on the second arc.

    The lift rises from h(p) = 0 through h(q) = 1/2 over arc1 = [p, q] and
    continues to 1 over arc2; breakpoints left of p take the branch - 1.
    """
    l1 = mod1(q - p)
    l2 = 1 - l1

    def h1(z: Fraction) -> Fraction:  # parameter along arc1 = [p, q]
        return mod1(z - p) / l1 / 2

    pts: list[tuple[Fraction, Fraction]] = [(mod1(p), Q(0)), (mod1(q), Q(1, 2))]
    for t, _ in f.breaks:
        if 0 < mod1(t - q) < l2:
            x = mod1(q + mod1(t - q))
            pts.append((x, 1 - h1(f(x))))
    out = []
    for x, u in pts:
        if x < mod1(p):
            out.append((x, u - 1))
        else:
            out.append((x, u))
    out.sort()
    return CirclePL(tuple(out), 1).normalize()


# ---------------------------------------------------------------------------
# interval maps


@dataclass(frozen=True)
class IntervalPL:
    """Monotone PL self-homeomorphism of [0, 1] given by its breakpoints."""
    breaks: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bs = self.breaks
        if len(bs) < 2 or bs[0][0] != 0 or bs[-1][0] != 1:
            raise ParseError("breakpoints must span x = 0..1")
        xs = [x for x, _ in bs]
        if sorted(set(xs)) != xs:
            raise ParseError("x-values must be strictly increasing")
        ys = [y for _, y in bs]
        inc = all(b > a for a, b in zip(ys, ys[1:]))
        dec = all(b < a for a, b in zip(ys, ys[1:]))
        if not (inc or dec):
            raise ParseError("y-values must be strictly monotone")
        if inc and not (ys[0] == 0 and ys[-1] == 1):
            raise ParseError("increasing map must fix the endpoints")
        if dec and not (ys[0] == 1 and ys[-1] == 0):
            raise ParseError("decreasing map must swap the endpoints")

    @property
    def increasing(self) -> bool:
        return self.breaks[0][1] == 0

    def __call__(self, x: Fraction) -> Fraction:
        bs = self.breaks
        for (xa, ya), (xb, yb) in zip(bs, bs[1:]):
            if xa <= x <= xb:
                if x == xa:
                    return ya
                return ya + (x - xa) * (yb - ya) / (xb - xa)
        raise ParseError(f"{x} outside [0,1]")

    def normalize(self) -> "IntervalPL":
        pts = list(self.breaks)
        changed = True
        while changed and len(pts) > 2:
            changed = False
            for i in range(1, len(pts) - 1):
                (xa, ya), (xb, yb), (xc, yc) = pts[i - 1], pts[i], pts[i + 1]
                if (xb - xa) * (yc - ya) == (yb - ya) * (xc - xa):
                    del pts[i]
                    changed = True
                    break
        return IntervalPL(tuple(pts))

    def equals(self, other: "IntervalPL") -> bool:
        return self.normalize().breaks == other.normalize().breaks


def interval_identity() -> IntervalPL:
    return IntervalPL(((Q(0), Q(0)), (Q(1), Q(1))))


def interval_reflection() -> IntervalPL:
    return IntervalPL(((Q(0), Q(1)), (Q(1), Q(0))))


def compose_interval(f: IntervalPL, g: IntervalPL) -> IntervalPL:
    """g after f."""
    finv = inverse_interval(f)
    xs = {x for x, _ in f.breaks}
    xs.update(finv(s) for s, _ in g.breaks)
    pts = tuple(sorted((x, g(f(x))) for x in xs))
    return IntervalPL(pts).normalize()


def inverse_interval(f: IntervalPL) -> IntervalPL:
    pts = sorted((y, x) for x, y in f.breaks)
    return IntervalPL(tuple(pts))


@dataclass(frozen=True)
class IntervalClassification:
    kind: str                  # "identity" | "involution"
    h: IntervalPL | None       # conjugacy to x -> 1 - x when kind == involution
    fixed_point: Fraction | None


def classify_interval(f: IntervalPL, declared_periodic: bool = True
                      ) -> IntervalClassification:
    """Identity forced, or an exact conjugacy to the reflection x -> 1 - x."""
    if f.increasing:
        if f.equals(interval_identity()):
            return IntervalClassification("identity", None, None)
        if declared_periodic:
            raise PeriodicityViolated(
                "endpoint-preserving periodic interval map must be the identity")
        raise NotPeriodic("increasing interval map differs from the identity")
    if not compose_interval(f, f).equals(interval_identity()):
        raise NotPeriodic("decreasing interval map with f^2 != id")
    xstar = _interval_fixed_point(f)
    h = _interval_conjugacy(f, xstar)
    if not interval_conjugacy_holds(f, h):
        raise StructureViolated("interval conjugacy failed exact check")
    return IntervalClassification("involution", h, xstar)


def interval_conjugacy_holds(f: IntervalPL, h: IntervalPL) -> bool:
    """h o f = r o h for the reflection r(x) = 1 - x, exactly."""
    return compose_interval(f, h).equals(
        compose_interval(h, interval_reflection()))


def _interval_fixed_point(f: IntervalPL) -> Fraction:
    bs = f.breaks
    for (xa, ya), (xb, yb) in zip(bs, bs[1:]):
        if (ya - xa) >= 0 >= (yb - xb):
            if ya == xa:
                return xa
            if yb == xb:
                return xb
            s = (yb - ya) / (xb - xa)
            return (xa * s - ya) / (s - 1)
    raise StructureViolated("decreasing map without a fixed point")


def _interval_conjugacy(f: IntervalPL, xstar: Fraction) -> IntervalPL:
    def h0(x: Fraction) -> Fraction:
        return x / xstar / 2

    xs = {Q(0), xstar, Q(1)}
    for x, _ in f.breaks:
        if xstar < x < 1:
            xs.add(x)
    pts = []
    for x in sorted(xs):
        if x <= xstar:
            pts.append((x, h0(x)))
        else:
            pts.append((x, 1 - h0(f(x))))
    return IntervalPL(tuple(pts)).normalize()


# ---------------------------------------------------------------------------
# line maps (affine ends), reduced to the interval case


@dataclass(frozen=True)
class LinePL:
    """PL self-homeomorphism of the line: breakpoints plus two affine ends."""
    breaks: tuple[tuple[Fraction, Fraction], ...]
    left_slope: Fraction
    right_slope: Fraction

    def __post_init__(self):
        if len(self.breaks) < 1:
            raise ParseError("line map needs at least one breakpoint")
        xs = [x for x, _ in self.breaks]
        if sorted(set(xs)) != xs:
            raise ParseError("x-values must be strictly increasing")
        if self.left_slope <= 0 or self.right_slope <= 0:
            raise ParseError("end slopes must be positive rationals")
        ys = [y for _, y in self.breaks]
        if len(ys) > 1:
            inc = all(b > a for a, b in zip(ys, ys[1:]))
            dec = all(b < a for a, b in zip(ys, ys[1:]))
            if not (inc or dec):
                raise ParseError("y-values must be strictly monotone")

    @property
    def increasing(self) -> bool:
        if len(self.breaks) == 1:
            return True
        return self.breaks[1][1] > self.breaks[0][1]

    def __call__(self, x: Fraction) -> Fraction:
        bs = self.breaks
        sign = 1 if self.increasing else -1
        if x <= bs[0][0]:
            return bs[0][1] + sign * self.left_slope * (x - bs[0][0])
        if x >= bs[-1][0]:
            return bs[-1][1] + sign * self.right_slope * (x - bs[-1][0])
        for (xa, ya), (xb, yb) in zip(bs, bs[1:]):
            if xa <= x <= xb:
                return ya + (x - xa) * (yb - ya) / (xb - xa)
        raise ParseError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class LineClassification:
    kind: str                  # "identity" | "involution"
    h: LinePL | None           # conjugacy to x -> 1 - x
    fixed_point: Fraction | None


def is_line_identity(f: LinePL) -> bool:
    return (f.left_slope == 1 and f.right_slope == 1
            and all(x == y for x, y in f.breaks))


def inverse_line(f: LinePL) -> LinePL:
    pts = tuple(sorted((y, x) for x, y in f.breaks))
    if f.increasing:
        return LinePL(pts, 1 / f.left_slope, 1 / f.right_slope)
    return LinePL(pts, 1 / f.right_slope, 1 / f.left_slope)


def line_conjugacy_holds(f: LinePL, h: LinePL) -> bool:
    """h o f = r o h for the reflection r(x) = 1 - x, exactly.

    Both sides are PL with breaks among those of f and h and the
    f-preimages of h's, so they are equal if they agree there and at two
    points beyond each end."""
    finv = inverse_line(f)
    xs = {x for x, _ in f.breaks} | {x for x, _ in h.breaks} \
        | {finv(x) for x, _ in h.breaks}
    lo, hi = min(xs), max(xs)
    xs |= {lo - 2, lo - 1, hi + 1, hi + 2}
    return all(h(f(x)) == 1 - h(x) for x in xs)


def classify_line(f: LinePL, declared_periodic: bool = True) -> LineClassification:
    """Increasing periodic line maps are the identity; decreasing ones are
    conjugate to x -> 1 - x via an invariant-interval chart."""
    if f.increasing:
        if is_line_identity(f):
            return LineClassification("identity", None, None)
        if declared_periodic:
            raise PeriodicityViolated(
                "increasing periodic line map must be the identity")
        raise NotPeriodic("increasing line map differs from the identity")
    # decreasing: must be an exact involution, i.e. f equal to its inverse
    finv = inverse_line(f)
    probe_xs = sorted({x for x, _ in f.breaks} | {x for x, _ in finv.breaks})
    probe_xs = [probe_xs[0] - 2, probe_xs[0] - 1] + probe_xs \
        + [probe_xs[-1] + 1, probe_xs[-1] + 2]
    if any(f(x) != finv(x) for x in probe_xs):
        raise NotPeriodic("decreasing line map with f^2 != id")
    xstar = _line_fixed_point(f)
    a = min(xstar - 1, f.breaks[0][0] - 1)
    b = f(a)
    width = b - a
    # chart [a, b] -> [0, 1]
    xs = {a, xstar, b}
    xs.update(x for x, _ in f.breaks if a < x < b)
    ipts = tuple(sorted(((x - a) / width, (f(x) - a) / width) for x in xs))
    fi = IntervalPL(ipts)
    cls = classify_interval(fi)
    hi = cls.h
    # h on (-inf, a]: affine through (a, 0) with the slope of h_int o chart
    s0 = _left_slope_of(hi, width)
    hxs = sorted({a, b, xstar}
                 | {x for x, _ in f.breaks}
                 | {f(x) for x, _ in f.breaks})
    pts = []
    for x in hxs:
        pts.append((x, _line_h_value(f, hi, a, b, width, s0, x)))
    sr = _slope_beyond(f, hi, a, b, width, s0, hxs[-1])
    h = LinePL(tuple(pts), s0, sr)
    if not line_conjugacy_holds(f, h):
        raise StructureViolated("line conjugacy failed exact check")
    return LineClassification("involution", h, xstar)


def _left_slope_of(hi: IntervalPL, width: Fraction) -> Fraction:
    (x0, y0), (x1, y1) = hi.breaks[0], hi.breaks[1]
    return (y1 - y0) / (x1 - x0) / width


def _line_h_value(f, hi, a, b, width, s0, x):
    if x <= a:
        return s0 * (x - a)
    if x <= b:
        return hi((x - a) / width)
    return 1 - _line_h_value(f, hi, a, b, width, s0, f(x))


def _slope_beyond(f, hi, a, b, width, s0, xr):
    x1, x2 = xr + 1, xr + 2
    v1 = _line_h_value(f, hi, a, b, width, s0, x1)
    v2 = _line_h_value(f, hi, a, b, width, s0, x2)
    return v2 - v1


def _line_fixed_point(f: LinePL) -> Fraction:
    bs = f.breaks
    pts = [(bs[0][0] - 1, f(bs[0][0] - 1))] + list(bs) \
        + [(bs[-1][0] + 1, f(bs[-1][0] + 1))]
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        if (ya - xa) >= 0 >= (yb - xb):
            if ya == xa:
                return xa
            if yb == xb:
                return xb
            s = (yb - ya) / (xb - xa)
            return (xa * s - ya) / (s - 1)
    raise StructureViolated("decreasing line map without a fixed point")
