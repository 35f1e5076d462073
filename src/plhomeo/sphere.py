"""Periodic sphere homeomorphisms: analysis and explicit conjugacies.

Maps with fixed points split into pole-fixing rotations and reflections
fixing a great circle through the poles.  Fixed-point-free maps are
orientation-reversing with even period; after normalizing the square to a
model rotation, the critical latitude t0 = inf { t : D_t and f(D_t)
disjoint } is computed exactly, a polar arc through a touching point P0 is
built, and the sphere is divided into sectors mapped equivariantly onto
the model rotoreflection wedges.

The class angle k/n of a fixed-point-free map is read off that arc
system, so the free-case analysis builds the conjugacy itself and keeps
it; each certificate builder consumes an analysis and recomputes none of
what it found.

This module owns what is particular to the sphere: the analysis, the pole
link rotation number, the normalization of the square, the critical
latitude and the arcs of the free case (the meridian through P0, its
continuation inside the image cap, and the half-sector cut of subcase A).
The certificates of the classes with fixed points, and the rotation that
normalizes the square, come from ``sectors.fixed_point_conjugacy``, the
builder shared with the disc.  Every certificate, the free one included,
is extended from its fundamental domain by ``sectors.orbit_cells``, the
push-forward by the model's affine map: (t, s) -> (t + k/n, s) for the
rotation, (t, s) -> (-t, s) for the reflection, and (t, s) -> (t + k/n, -s)
for the rotoreflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .circle import rotation_number
from .conjugacy import (Certificate, ModelIsometry, ROTATION, ROTOREFLECTION,
                        require_exact)
from .eqcomplex import (EqComplex, apply_perm, conjugated_equivariant_complex,
                        equivariant_complex)
from .errors import ArcSearchFailed, StructureViolated
from .exact import mod1
from .geom import Pt, line_points
from .maps import (FixedSet, PLMap2, boundary_restriction, compose, evaluate,
                   fixed_set, inverse, is_identity, orientation, period,
                   power, validate_homeo)
from .sectors import (Layout, components, cut_sectors, edge_path,
                      embed_fundamental_domain, fixed_edges,
                      fixed_point_conjugacy, lifted_quotient_path, line_walk,
                      orbit_cells, orbit_ids, polar_layout,
                      quotient_adjacency, rectangle_targets, top_end)
from .suspension import SPHERE

Q = Fraction

N_POLE = (Q(0), Q(1))
S_POLE = (Q(0), Q(-1))


class FreeStructure(NamedTuple):
    """What the free case is built on: fp = h f h^-1 with (fp)^2 a model
    rotation, the normalizing certificate (None when f^2 is the identity),
    the critical latitude t0, the orbit of the touching point P0 under fp
    and the subcase, "coincident" (A) or "distinct" (B)."""
    fp: PLMap2
    conj: Certificate | None
    t0: Fraction
    orbit: list[Pt]
    subcase: str


@dataclass
class SphereAnalysis:
    kind: str          # identity | rotation | reflection | rotoreflection
    n: int
    k: int = 0
    fixed: FixedSet | None = None
    # rotoreflection only: f to fp (None when f^2 = id), and fp to the model
    norm_h: PLMap2 | None = None
    free_map: PLMap2 | None = None


def analyze_sphere(f: PLMap2) -> SphereAnalysis:
    """The class of f, checked against the theory.

    The period is read off the circle map on the link of the north pole
    (see ``maps.period``), and so is the class of a rotation.  The analysis
    is the input of the certificate builders.  A
    fixed-point-free map is classified by building its conjugacy, whose
    arc system fixes the angle; the normalizing map and that conjugacy are
    kept, so ``build_conjugacy_free`` only composes and checks them."""
    if f.model != SPHERE:
        raise StructureViolated("analyze_sphere needs a sphere-model map")
    problems = validate_homeo(f)
    if problems:
        raise StructureViolated("invalid map: " + "; ".join(problems))
    n = period(f)
    if n == 1:
        return SphereAnalysis("identity", 1)
    fs = fixed_set(f)
    if orientation(f) == "preserving":
        if fs.is_empty():
            raise StructureViolated(
                "orientation-preserving periodic sphere map without fixed "
                "points")
        if fs.one or fs.two or fs.everything:
            raise StructureViolated(
                "preserving non-identity map with non-point fixed cells")
        if sorted(fs.zero) != [S_POLE, N_POLE]:
            raise StructureViolated(
                "fixed points off the polar axis cannot be normalized in "
                "suspension coordinates")
        rc = rotation_number(boundary_restriction(f), n)
        return SphereAnalysis("rotation", n, rc.k, fs)
    # orientation-reversing
    if fs.is_empty():
        if n % 2:
            raise StructureViolated(
                "fixed-point-free periodic map must have even period")
        free = free_structure(f, n)
        free_map, k = _assemble_free_map(f, free)
        return SphereAnalysis("rotoreflection", n, k, fs,
                              free.conj.h if free.conj is not None else None,
                              free_map)
    if n != 2:
        raise StructureViolated(
            "orientation-reversing sphere map with fixed points must be an "
            "involution")
    if fs.zero or fs.two or fs.everything or len(fs.one) != 1:
        raise StructureViolated(
            "reversing involution must fix exactly one simple closed curve")
    circle = fs.one[0]
    if circle[0] != circle[-1]:
        raise StructureViolated("fixed set is an arc, not a closed curve")
    return SphereAnalysis("reflection", 2, fixed=fs)


# ---------------------------------------------------------------------------
# fixed-point case


def build_conjugacy_fixedpoint(f: PLMap2, ana: SphereAnalysis
                               ) -> Certificate:
    """Conjugacy of a map with fixed points to the model that ``ana``, the
    analysis of f, names; the reflection cuts along the fixed circle it
    found."""
    return fixed_point_conjugacy(f, ana.kind, ana.k, ana.n, ana.fixed)


# ---------------------------------------------------------------------------
# the latitude cut for fixed-point-free maps


def t0_cut(f: PLMap2) -> Fraction:
    """inf of latitudes t with the north cap D_t disjoint from its image.

    Requires the square of f to be a model rotation (the free pipeline
    normalizes it first).  Exact: the height envelope M(t) of f over the
    cap is piecewise linear and strictly drops below the diagonal at t0."""
    if orientation(f) != "reversing":
        raise StructureViolated("t0 cut needs an orientation-reversing map")
    if evaluate(f, N_POLE) != S_POLE:
        raise StructureViolated("t0 cut needs a pole-swapping map")
    candidates = set()
    for ci, cell in enumerate(f.cells):
        A = f.affine(ci)
        heights = [A(p)[1] for p in cell.poly]
        candidates.update(p[1] for p in cell.poly)
        candidates.update(heights)
        m = len(cell.poly)
        for i in range(m):
            a, b = cell.poly[i], cell.poly[(i + 1) % m]
            if a[1] == b[1]:
                continue
            # the cap chord endpoint on this edge at height t maps to
            # height sigma(t), linear in t; solve sigma(t) = t
            sa, sb = heights[i], heights[(i + 1) % m]
            denom = (b[1] - a[1]) - (sb - sa)
            if denom != 0:
                t = (a[1] * (sb - sa) - sa * (b[1] - a[1])) / -denom
                lo, hi = min(a[1], b[1]), max(a[1], b[1])
                if lo <= t <= hi:
                    candidates.add(t)
    cands = sorted(t for t in candidates if -1 < t < 1)
    if not cands:
        raise StructureViolated("no candidate latitudes")
    # phi(t) = M(t) - t is strictly decreasing: binary-search the last
    # candidate with phi >= 0, which must satisfy phi = 0 exactly
    lo, hi = 0, len(cands) - 1
    if _height_envelope(f, cands[0]) - cands[0] < 0:
        raise StructureViolated("no critical latitude found")
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _height_envelope(f, cands[mid]) - cands[mid] >= 0:
            lo = mid
        else:
            hi = mid - 1
    t0 = cands[lo]
    if _height_envelope(f, t0) != t0:
        raise StructureViolated("critical latitude is not a candidate")
    return t0


def _height_envelope(f: PLMap2, t: Fraction) -> Fraction:
    """M(t): the maximal height of f over the closed cap {s >= t}."""
    best = None
    for ci, cell in enumerate(f.cells):
        A = f.affine(ci)
        pts = [p for p in cell.poly if p[1] >= t]
        if not pts:
            continue
        for p in pts + line_points(cell.poly, [q[1] - t for q in cell.poly]):
            v = A(p)[1]
            if best is None or v > best:
                best = v
    if best is None:
        raise StructureViolated("empty cap")
    return best


# ---------------------------------------------------------------------------
# the free case


def _normalize_square(f: PLMap2, n: int):
    """(f', conjugacy or None) with (f')^2 exactly the model rotation of
    the conjugacy's class (the identity when there is no conjugacy)."""
    g = power(f, 2)
    if is_identity(g):
        return f, None
    # f swaps the poles, so g has period n / 2, that of its link map
    rc = rotation_number(boundary_restriction(g), n // 2)
    conj = fixed_point_conjugacy(g, ROTATION, rc.k, n // 2, None)
    fp = compose(compose(inverse(conj.h), f), conj.h)
    # require_exact proved h g = r h, so (fp)^2 = h g h^-1 is r exactly
    return fp, conj


def _touch_point(f: PLMap2, t0: Fraction) -> Pt:
    """Lexicographically smallest point of C and f(C) at the critical cut."""
    pts = set()
    for ci, cell in enumerate(f.cells):
        A = f.affine(ci)
        for p in line_points(cell.poly, [q[1] - t0 for q in cell.poly]):
            if A(p)[1] == t0:
                pts.add((mod1(p[0]), t0))
    if not pts:
        raise StructureViolated("caps do not touch at the critical latitude")
    return min(pts)


def free_structure(f: PLMap2, n: int) -> FreeStructure:
    """Normalized copy, critical latitude, touching orbit and subcase."""
    fp, conj = _normalize_square(f, n)
    t0 = t0_cut(fp)
    p0 = _touch_point(fp, t0)
    orbit = [p0]
    for _ in range(1, n):
        orbit.append(evaluate(fp, orbit[-1]))
    if evaluate(fp, orbit[-1]) != p0:
        raise StructureViolated("orbit of the touching point does not close")
    coincident = [i for i in range(1, n, 2) if orbit[i] == p0]
    if coincident:
        if 2 * coincident[0] != n:
            raise StructureViolated("odd coincidence without 2i = n")
        subcase = "coincident"
    else:
        if len(set(orbit)) != n:
            raise StructureViolated("orbit points not distinct in subcase B")
        evens = {orbit[i] for i in range(0, n, 2)}
        odds = {orbit[i] for i in range(1, n, 2)}
        if len(evens) != n // 2 or len(odds) != n // 2:
            raise StructureViolated("even/odd orbit points collide")
        subcase = "distinct"
    return FreeStructure(fp, conj, t0, orbit, subcase)


def build_conjugacy_free(f: PLMap2, ana: SphereAnalysis) -> Certificate:
    """The rotoreflection certificate from ``ana``, the analysis of f: the
    normalizing conjugacy followed by the map the analysis built."""
    if ana.kind != "rotoreflection":
        raise StructureViolated("map is not fixed-point free")
    h = ana.free_map if ana.norm_h is None else \
        compose(ana.norm_h, ana.free_map)
    return require_exact(f, Certificate(
        ModelIsometry(SPHERE, ROTOREFLECTION, ana.k, ana.n), h))


def _assemble_free_map(f: PLMap2, fs: FreeStructure):
    """(h, k): h conjugates fs.fp to the model rotoreflection by k/n, the
    angle read off the arc system h is built from."""
    fp, conj, t0, orbit, subcase = fs
    n, p0 = len(orbit), orbit[0]
    seg = ((p0[0], t0), (p0[0], Q(1)))
    phi = n // 2 if subcase == "coincident" else None
    m = phi or n  # the sector count
    # (fp)^2 is exactly the rotation conj certifies (_normalize_square)
    r2 = Q(conj.model.k, conj.model.n) if conj is not None else Q(0)
    if conj is None:
        # f^2 = id makes n = 2, and subcase A would then need fp(P0) = P0
        k = equivariant_complex(fp, n, level_cuts=[t0], chord_cuts=[seg])
    else:
        k = conjugated_equivariant_complex(f, conj.h, n, level_cuts=[t0],
                                           chord_cuts=[seg], phi_power=phi)

    def layout(k: EqComplex) -> Layout:
        bstar = _bstar_arc(k, t0, p0, n, subcase)
        arcs, arc_edges, _, sector0 = cut_sectors(k, bstar, m)
        jstar = _right_arc_index(k, arcs)
        M = ModelIsometry(SPHERE, ROTOREFLECTION,
                          _solve_class_angle(jstar, n, m, r2), n).affine()
        # odd iterates swap the poles: turn the right arc to run downwards
        right = arcs[jstar] if jstar % 2 == 0 else arcs[jstar][::-1]
        if subcase == "distinct":
            return polar_layout(k, sector0, bstar, right, Q(1, m), M)
        return _coincident_layout(k, bstar, right, sector0, arc_edges, m, n,
                                  jstar, M, p0)

    k, lay, pos = embed_fundamental_domain(k, layout, oriented=True)
    return (PLMap2(SPHERE, orbit_cells(k, lay, pos)),
            lay.affine.c * n // lay.affine.w)


def _right_arc_index(k: EqComplex, arcs) -> int:
    """Index of the arc whose north end follows arc 0 positively."""
    ends = [k.verts[top_end(k, arc)][0] for arc in arcs]
    base = ends[0]
    diffs = sorted((mod1(e - base), j) for j, e in enumerate(ends) if j != 0)
    return diffs[0][1]


def _solve_class_angle(jstar: int, n: int, m: int, r2: Fraction) -> int:
    """k with j* k = n/m (mod n), filtered by the square's rotation r2."""
    rhs = n // m  # 1 in subcase B, 2 in subcase A
    # in subcase A, fp^(n/2) fixes P0 with n/2 odd, and the model's power
    # (t + k/2, -s) has a fixed point only when k is even
    cands = [kk for kk in range(n)
             if (jstar * kk) % n == rhs and gcd(2 * kk, n) == 2
             and mod1(Q(2 * kk, n)) == r2 and (rhs == 1 or kk % 2 == 0)]
    if len(cands) != 1:
        raise StructureViolated(
            f"class angle candidates {cands} from the arc structure")
    return cands[0]


def _bstar_arc(k: EqComplex, t0, p0, n, subcase):
    b0 = _meridian_path(k, p0, t0)
    if subcase == "coincident":
        half = list(b0)
        for _ in range(n // 2):
            half = [k.vert_perm[v] for v in half]
        if k.verts[half[-1]] != k.verts[b0[-1]]:
            raise StructureViolated("coincident arc does not close at P0")
        return b0 + list(reversed(half))[1:]
    bprime = _bprime_path(k, t0, p0, n, b0)
    return b0 + bprime[1:]


def _meridian_path(k: EqComplex, p0, t0):
    """Edge path from the north line down the meridian t = p0.t to P0."""
    t_p = mod1(p0[0])
    on_line = [ei for ei, (pa, pb) in enumerate(k.edges)
               if mod1(pa[0]) == t_p and pa[0] == pb[0]
               and min(pa[1], pb[1]) >= t0]
    return edge_path(k, on_line, k.vertex_id((t_p, Q(1))),
                     {k.vertex_id(p0)})


def _bprime_path(k: EqComplex, t0, p0, n, b0):
    """Arc from P0 to the south line inside the image cap, avoiding the odd
    iterates of the meridian arc and its own rotations (quotient search)."""
    r2_perm = [k.vert_perm[k.vert_perm[v]] for v in range(len(k.verts))]
    orbit_id = orbit_ids(r2_perm)
    forbidden = set()
    arc = list(b0)
    for i in range(n):
        arc = [k.vert_perm[v] for v in arc]
        if i % 2 == 0:
            forbidden.update(arc)
    forbidden_orbits = {orbit_id[v] for v in forbidden}
    # the complex is cut along s = t0, so a cell lies in the image cap
    # exactly when its lowest vertex lies below t0
    lows = [min(p[1] for p in poly) for poly in k.polys]
    if any(lo < t0 < max(p[1] for p in poly)
           for lo, poly in zip(lows, k.polys)):
        raise StructureViolated("a cell crosses the level t0")
    cap_cells = {ci for ci, lo in enumerate(lows) if lo < t0}
    p0_vert = k.vertex_id(p0)
    target_orbit = orbit_id[p0_vert]
    level = [v[1] for v in k.verts]
    path = lifted_quotient_path(
        quotient_adjacency(k, cap_cells), orbit_id,
        [v for v in range(len(k.verts)) if level[v] == -1],
        lambda w: orbit_id[w] == target_orbit,
        lambda w: (orbit_id[w] in forbidden_orbits or level[w] == -1
                   or level[w] >= t0))
    if path is None:
        raise ArcSearchFailed("no arc from S to P0 inside the image cap")
    guard = 0
    while path[-1] != p0_vert:
        path = [r2_perm[v] for v in path]
        guard += 1
        if guard > n:
            raise ArcSearchFailed("lift cannot be rotated onto P0")
    return list(reversed(path))


def _coincident_layout(k, bstar, right, sector0, arc_edges, m, n, jstar, M,
                       p0) -> Layout:
    """Subcase A: the fundamental domain is the north half of the sector,
    cut by the fixed curve of f^(n/2), mapped onto [0, 1/m] x [0, 1]."""
    phi_edges = fixed_edges(k, n // 2)
    halves = components(k, arc_edges | phi_edges, sector0)
    if len(halves) != 2:
        raise StructureViolated(
            f"half cut gives {len(halves)} pieces, expected 2")
    north_half = max(halves, key=lambda comp: max(
        max(p[1] for p in k.polys[ci]) for ci in comp))
    if not any(any(p[1] == 1 for p in k.polys[ci]) for ci in north_half):
        raise StructureViolated("north half does not reach the north line")
    # the north halves of the two bounding arcs
    p0v = k.vertex_id(p0)
    pj = apply_perm(k.vert_perm, p0v, jstar)
    if pj not in right:
        raise StructureViolated("right arc misses its touch point")
    left = bstar[:bstar.index(p0v) + 1]
    right = right[:right.index(pj) + 1]
    # equatorial cross arc: from P0 to P_{j*} along the fixed curve
    cross = edge_path(k, [ei for ei in phi_edges
                          if any(ci in north_half for ci in k.edge_cells[ei])],
                      p0v, {pj})
    top = line_walk(k, north_half, Q(1), left[0], right[0])
    targets = rectangle_targets(left, right, cross, top, Q(1, m), Q(0), Q(1))
    return Layout(north_half, targets, [left, right, cross, top], M)
