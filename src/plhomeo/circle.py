"""Periodic PL homeomorphisms in one dimension.

Every periodic map here is conjugated to its model isometry r by averaging
its orbit: h = (1/n) sum_{j<n} r^-j o f^j.  Then h o f = r o h, since
composing with f shifts the sum by one term, and h is increasing, since an
average of increasing maps is increasing.  On the circle this reads, on
lifts, h(t) = (1/n) sum_j sigma^j (F^j(t) - j K/n), with sigma the
orientation of f and K = F^n(0) (K = 0 when f reverses orientation, whose
period is 2); h breaks only on the f-orbit of f's breaks.  On the interval
and the line, f is the identity or an involution, and h(x) = (x + 1 -
f(x)) / 2 conjugates f to x -> 1 - x.  An interval map is read as the line
map that continues it with slope 1, as x -> x or x -> 1 - x outside
[0, 1]: that map is the identity or an involution exactly when the
interval map is, and its h maps [0, 1] onto itself.  The construction is
1-D only: in the plane an average of homeomorphisms need not be injective,
which is why the disc and the sphere need Kerekjarto's construction.
Circle map equality is decided on a normalized breakpoint form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .errors import (NotPeriodic, OrientationReversing, ParseError,
                     StructureViolated)
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


def circle_reflection() -> CirclePL:
    """The model reflection t -> -t."""
    return CirclePL(((Q(0), Q(0)),), -1)


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
    """f^m for m >= 0."""
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


def _lift_orbit(f: CirclePL, t: Fraction, m: int) -> list[Fraction]:
    """[t, F(t), ..., F^m(t)] on the lift."""
    out = [t]
    for _ in range(m):
        out.append(f.lift(out[-1]))
    return out


def _proved_period(f: CirclePL) -> int:
    """The period of f: searched for when f preserves orientation, 2 when
    it reverses orientation and f^2 = id."""
    if f.orientation == 1:
        n = period_circle(f)
        if n is None:
            raise NotPeriodic(f"no period up to {MAX_PERIOD}")
        return n
    if not is_circle_identity(iterate_circle(f, 2)):
        raise NotPeriodic("reversing map with f^2 != id is not periodic")
    return 2


def rotation_number(f: CirclePL, n: int | None = None) -> RotationClass:
    """The class k/n of a map of period n: k = F^n(0) mod n, since F^n is
    the translation by the integer F^n(0); n is searched for with
    ``period_circle`` when not given."""
    if f.orientation == -1:
        raise OrientationReversing(
            "rotation number undefined for reversing maps; "
            "use fixed_points_reversing")
    if n is None:
        n = _proved_period(f)
    big_k = _lift_orbit(f, Q(0), n)[-1]
    if big_k.denominator != 1:
        raise StructureViolated(
            f"F^{n}(0) = {big_k} is not an integer: {n} is not a period")
    return RotationClass(big_k.numerator % n, n)


def average_conjugacy(f: CirclePL, n: int) -> CirclePL:
    """h = (1/n) sum_j sigma^j (F^j - j K/n) on lifts, for f of period n:
    h o f = r o h for the model rotation K/n, or the reflection t -> -t
    when f reverses orientation (K = 0).  h breaks on the f-orbit of f's
    breaks, where every F^j does."""
    sign = f.orientation
    big_k = _lift_orbit(f, Q(0), n)[-1] if sign == 1 else 0
    ts = sorted({mod1(x) for t, _ in f.breaks
                 for x in _lift_orbit(f, t, n - 1)})
    pts = []
    for t in ts:
        orbit = _lift_orbit(f, t, n - 1)
        pts.append((t, sum(sign ** j * (x - j * Q(big_k, n))
                           for j, x in enumerate(orbit)) / n))
    return CirclePL(tuple(pts), 1).normalize()


def fixed_points_reversing(f: CirclePL) -> tuple[Fraction, Fraction]:
    """The two fixed angles of an orientation-reversing periodic map: if
    f(p) = p, then F(p) = p + m and h(p) = -m/2 for the averaged h, so the
    fixed points are h^-1(0) and h^-1(1/2)."""
    if f.orientation != -1:
        raise OrientationReversing("map must reverse orientation")
    hinv = inverse_circle(average_conjugacy(f, _proved_period(f)))
    p, q = sorted((hinv(Q(0)), hinv(Q(1, 2))))
    return p, q


@dataclass(frozen=True)
class CircleCertificate:
    """A conjugacy claim: h o f = model o h."""
    kind: str                      # "rotation" | "reflection" | "identity"
    klass: RotationClass | None
    h: CirclePL

    def model_map(self) -> CirclePL:
        if self.kind == "rotation":
            return circle_rotation(self.klass.angle)
        if self.kind == "reflection":
            return circle_reflection()
        return circle_identity()


def conjugate_circle_to_model(f: CirclePL) -> CircleCertificate:
    n = _proved_period(f)
    h = average_conjugacy(f, n)
    if f.orientation == -1:
        cert = CircleCertificate("reflection", None, h)
    else:
        cert = CircleCertificate("identity" if n == 1 else "rotation",
                                 rotation_number(f, n), h)
    if not circle_conjugacy_holds(f, cert.h, cert.model_map()):
        raise StructureViolated("constructed conjugacy failed exact check")
    return cert


def circle_conjugacy_holds(f: CirclePL, h: CirclePL, r: CirclePL) -> bool:
    """h o f = r o h, exactly."""
    return compose_circle(f, h).equals(compose_circle(h, r))


# ---------------------------------------------------------------------------
# line maps (affine ends)


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


def interval_map(breaks) -> LinePL:
    """The monotone PL self-homeomorphism of [0, 1] through ``breaks``,
    continued with slope 1 beyond both ends."""
    bs = tuple(breaks)
    if len(bs) < 2 or bs[0][0] != 0 or bs[-1][0] != 1:
        raise ParseError("breakpoints must span x = 0..1")
    f = LinePL(bs, Q(1), Q(1))  # x strictly increasing, y strictly monotone
    ends = (bs[0][1], bs[-1][1])
    if f.increasing and ends != (0, 1):
        raise ParseError("increasing map must fix the endpoints")
    if not f.increasing and ends != (1, 0):
        raise ParseError("decreasing map must swap the endpoints")
    return f


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


@dataclass(frozen=True)
class Classification:
    """An interval or line map, the interval read as the line map that
    continues it with slope 1: the identity, or an involution with its
    conjugacy h to x -> 1 - x and its fixed point."""
    kind: str                  # "identity" | "involution"
    h: LinePL | None
    fixed_point: Fraction | None


def classify_line(f: LinePL) -> Classification:
    """Increasing periodic line maps are the identity; decreasing ones are
    conjugate to x -> 1 - x by the averaged h(x) = (x + 1 - f(x)) / 2, whose
    end slopes are (1 + slope) / 2."""
    if f.increasing:
        if is_line_identity(f):
            return Classification("identity", None, None)
        raise NotPeriodic("increasing map differs from the identity")
    # h o f - r o h = (x - f(f(x))) / 2, so the conjugacy holds exactly
    # when f is an involution
    h = LinePL(tuple((x, (x + 1 - y) / 2) for x, y in f.breaks),
               (1 + f.left_slope) / 2, (1 + f.right_slope) / 2)
    if not line_conjugacy_holds(f, h):
        raise NotPeriodic("decreasing map with f^2 != id")
    return Classification("involution", h, inverse_line(h)(Q(1, 2)))
