"""``validate_homeo`` against a Fraction reference.

``validate_homeo`` checks the tilings of a map's domain and image, and
the images of its shared edges, on integer numerators over a common
denominator.  The reference here is that check on Fractions: the map is
fan-triangulated into a vertex/lift complex whose vertices are keyed by
Fraction model points, and every key, area and shift is a Fraction.  The
two must return the same list of problems on the frozen benchmark maps,
on seeded mutants of them, and on a map whose coordinates have a common
denominator of thousands of bits.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from plhomeo import io as pio
from plhomeo import maps
from plhomeo.errors import OverlayDegenerate, ParseError, StructureViolated
from plhomeo.exact import fmt_pt, mod1
from plhomeo.geom import INSIDE, area2
from plhomeo.maps import (CellMap, PLMap2, ccw, identity_map, shift_into_unit,
                          validate_homeo)
from plhomeo.geom import Pt
from plhomeo.suspension import (DISC, SPHERE, _edge_key, band_cells,
                                collapsed_levels, integer_charts, s_range)
from test_clip_convex import reference_point_in_convex

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
TAMPERED = ["disc-rotation-1-3.k-changed", "sphere-rotation-1-3.vertex-moved"]


def _frozen_maps():
    """The 7 instances and the h of the 9 certificates, by name."""
    out = {}
    for name in NAMES:
        _, out[name] = pio.instance_from_dict(
            pio.load_json(INPUTS / f"{name}.json"))
    for name in NAMES + TAMPERED:
        out[f"{name}.cert"] = pio.certificate_from_dict(
            pio.load_json(INPUTS / f"{name}.cert.json")).h
    return out


FROZEN = _frozen_maps()


# ---------------------------------------------------------------------------
# the reference: the tiling checks on Fraction keys


@dataclass
class TriangleComplex:
    """A fan-triangulated tiling: vertices keyed by Fraction model points,
    and per triangle its vertex ids and the lifts to its chart points."""
    model: str
    verts: list[Pt]
    tris: list[tuple[int, int, int]]
    lifts: list[tuple[int, int, int]]

    def chart(self, ti: int) -> list[Pt]:
        return [(self.verts[v][0] + lift, self.verts[v][1])
                for v, lift in zip(self.tris[ti], self.lifts[ti])]


def _to_complex(f):
    verts, index, tris, lifts = [], {}, [], []

    def vid(chart):
        key = (mod1(chart[0]), chart[1])
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    for cell in f.cells:
        for i in range(1, len(cell.poly) - 1):
            corners = [cell.poly[0], cell.poly[i], cell.poly[i + 1]]
            ids = [vid(c) for c in corners]
            lf = []
            for c, vi in zip(corners, ids):
                lift = c[0] - verts[vi][0]
                if lift.denominator != 1:
                    raise OverlayDegenerate("non-integer lift")
                lf.append(int(lift))
            tris.append(tuple(ids))
            lifts.append(tuple(lf))
    return TriangleComplex(f.model, verts, tris, lifts)


def _complex_check(cx):
    problems = []
    lo, hi = s_range(cx.model)
    for t, s in cx.verts:
        if not (0 <= t < 1):
            problems.append(f"vertex angle {t} outside [0,1)")
        if not (lo <= s <= hi):
            problems.append(f"vertex height {s} outside range")
    total = Q(0)
    edge_count = {}
    for ti in range(len(cx.tris)):
        ch = cx.chart(ti)
        a2 = area2(tuple(ch))
        if a2 <= 0:
            problems.append(f"triangle {ti} not positively oriented")
            continue
        total += a2
        for p in ch:
            if not (0 <= p[0] <= 1 and lo <= p[1] <= hi):
                problems.append(f"triangle {ti} leaves the chart rectangle")
        for z in range(3):
            p, q = ch[z], ch[(z + 1) % 3]
            edge_count.setdefault(_edge_key(p, q), []).append(
                1 if p < q else -1)
    expected = 2 * (hi - lo)
    if total != expected:
        problems.append(f"chart area {total} != {expected}")
    for (p, q), signs in edge_count.items():
        on_collapsed = p[1] == q[1] and p[1] in collapsed_levels(cx.model)
        on_boundary = cx.model == DISC and p[1] == q[1] == 1
        if on_collapsed or on_boundary:
            if len(signs) != 1:
                problems.append(f"line edge {fmt_pt(p)} to {fmt_pt(q)} "
                                f"used {len(signs)} times")
        elif len(signs) != 2 or sum(signs) != 0:
            problems.append(f"edge {fmt_pt(p)} to {fmt_pt(q)} not "
                            f"matched: {signs}")
    for level in collapsed_levels(cx.model) + (
            (Q(1),) if cx.model == DISC else ()):
        if not _line_covered(edge_count, level):
            problems.append(f"line s={level} not fully edge-covered")
    return problems


def _line_covered(edge_count, level):
    spans = sorted((min(p[0], q[0]), max(p[0], q[0]))
                   for p, q in edge_count if p[1] == q[1] == level)
    pos = Q(0)
    for a, b in spans:
        if a != pos:
            return False
        pos = b
    return pos == 1


def _edge_image_consistency(f):
    problems, seen = [], {}
    for cell in f.cells:
        n = len(cell.poly)
        for i in range(n):
            p, q = cell.poly[i], cell.poly[(i + 1) % n]
            pi, qi = cell.img[i], cell.img[(i + 1) % n]
            if q < p:
                p, q, pi, qi = q, p, qi, pi
            key = _edge_key(p, q)
            if key not in seen:
                seen[key] = (pi, qi)
                continue
            p0, q0 = seen[key]
            d1, d2 = pi[0] - p0[0], qi[0] - q0[0]
            if pi[1] != p0[1] or qi[1] != q0[1] or d1 != d2 \
                    or d1.denominator != 1:
                problems.append(f"edge {fmt_pt(key[0])} to "
                                f"{fmt_pt(key[1])} image mismatch")
    return problems


def bbox(poly):
    """The box (min x, min y, max x, max y) of a Fraction polygon."""
    xs, ys = [p[0] for p in poly], [p[1] for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def _generic_preimage_count(f):
    """Preimage count of a generic rational point under the chart images,
    each image cell shifted into the unit chart and turned CCW here."""
    img_polys = [ccw(shift_into_unit(cell.img)[1]) for cell in f.cells]
    boxes = [bbox(poly) for poly in img_polys]
    for candidate_cell in img_polys:
        cx = sum(p[0] for p in candidate_cell) / len(candidate_cell)
        cy = sum(p[1] for p in candidate_cell) / len(candidate_cell)
        p = (mod1(cx), cy)
        on_edge = False
        cnt = 0
        for poly, box in zip(img_polys, boxes):
            for q in (p, (p[0] + 1, p[1])):
                if not (box[0] <= q[0] <= box[2] and box[1] <= q[1] <= box[3]):
                    continue
                cls = reference_point_in_convex(q, list(poly))
                if cls == INSIDE:
                    cnt += 1
                elif cls == "boundary":
                    on_edge = True
        if on_edge:
            continue
        return cnt
    return -1


def reference_validate(f):
    """``validate_homeo`` with its tiling checks on Fraction keys and its
    generic preimage count on image cells built here."""
    try:
        cx = _to_complex(f)
    except (OverlayDegenerate, StructureViolated, ParseError) as exc:
        return [f"cell structure invalid: {exc}"]
    problems = _complex_check(cx)
    sign = None
    for i in range(len(f.cells)):
        try:
            d = f.affine(i).det
        except OverlayDegenerate as exc:
            problems.append(f"cell {i} is degenerate: {exc}")
            continue
        if d == 0:
            problems.append(f"cell {i} has zero determinant")
        elif sign is None:
            sign = 1 if d > 0 else -1
        elif (d > 0) != (sign > 0):
            problems.append("mixed determinant signs")
            break
    problems += _edge_image_consistency(f)
    problems += maps._collapse_conditions(f)
    try:
        icx = _to_complex(maps.inverse(f))
        problems += [f"image complex: {m}" for m in _complex_check(icx)]
    except (OverlayDegenerate, StructureViolated, ParseError) as exc:
        problems.append(f"image complex invalid: {exc}")
    if f.model == DISC and not problems:
        try:
            maps.boundary_restriction(f)
        except (StructureViolated, ParseError) as exc:
            problems.append(f"boundary restriction invalid: {exc}")
    if not problems:
        cnt = _generic_preimage_count(f)
        if cnt != 1:
            problems.append(f"generic point has {cnt} preimages")
    return problems


# ---------------------------------------------------------------------------
# seeded mutants


def _moved(pt, dx, dy=0):
    return (pt[0] + dx, pt[1] + dy)


def _mutant(f, kind, rng):
    """f with one cell changed by ``kind``, as a new map."""
    cells = list(f.cells)
    ci = rng.randrange(len(cells))
    poly, img = list(cells[ci].poly), list(cells[ci].img)
    z = rng.randrange(len(poly))
    if kind == "drop":
        del cells[ci]
        return PLMap2(f.model, cells)
    if kind == "duplicate":
        cells.insert(ci, cells[ci])
        return PLMap2(f.model, cells)
    if kind == "reverse":
        poly.reverse()
        img.reverse()
    elif kind == "vertex":
        step = Q(rng.choice([-2, -1, 1, 2]), rng.choice([5, 7, 16]))
        poly[z] = _moved(poly[z], step) if rng.random() < 0.5 \
            else _moved(poly[z], 0, step)
    elif kind == "image":
        img[z] = _moved(img[z], Q(rng.choice([-1, 1]), rng.choice([2, 3, 7])))
    elif kind == "image cell":
        step = Q(rng.choice([-1, 1]), rng.choice([2, 3, 7]))
        img = [_moved(p, step) for p in img]
    elif kind == "lift":
        poly[z] = _moved(poly[z], rng.choice([-1, 1]))
    elif kind == "image lift":
        img[z] = _moved(img[z], rng.choice([-1, 1]))
    cells[ci] = CellMap(tuple(poly), tuple(img))
    return PLMap2(f.model, cells)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_maps_match_the_reference(name):
    # only the certificate with a moved pole image is not a homeo
    f = FROZEN[name]
    problems = validate_homeo(f)
    assert bool(problems) == name.endswith(".vertex-moved.cert")
    assert problems == reference_validate(f)


@pytest.mark.parametrize("kind", ["vertex", "drop", "duplicate", "reverse",
                                  "image", "image cell", "lift",
                                  "image lift"])
def test_mutants_match_the_reference(kind):
    rejected = 0
    for seed in (0, 1):
        rng = random.Random(seed)
        for name in sorted(FROZEN):
            g = _mutant(FROZEN[name], kind, rng)
            problems = validate_homeo(g)
            assert problems == reference_validate(g), (name, seed)
            rejected += bool(problems)
    assert rejected > 0


def test_heights_are_reported_once_per_model_point():
    # the sphere's bands read as a disc map: the line s = -1 lies outside
    # the disc's range, and its ends (0, -1) and (1, -1) are one point
    f = identity_map(DISC, band_cells(SPHERE, 4))
    problems = validate_homeo(f)
    assert [p for p in problems if p.startswith("vertex height")] == \
        ["vertex height -1 outside range"] * 4
    assert problems == reference_validate(f)


# ---------------------------------------------------------------------------
# a common denominator of thousands of bits


def _is_prime(n):
    """Miller-Rabin with the first 12 primes as bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_above(n, count):
    out = []
    while len(out) < count:
        n += 1
        if _is_prime(n):
            out.append(n)
    return out


def _finely_moved_certificate():
    """The h of the sphere rotation 1/3 certificate with each vertex
    inside the chart moved right by 1/p, a distinct prime p > 2^61 for
    each."""
    data = pio.load_json(INPUTS / "sphere-rotation-1-3.cert.json")["h"]
    inner = [i for i, (t, s) in enumerate(data["vertices"])
             if 0 < Q(t) < 1 and -1 < Q(s) < 1]
    for i, p in zip(inner, _primes_above(2 ** 61, len(inner))):
        t, s = data["vertices"][i]
        t = Q(t) + Q(1, p)
        data["vertices"][i] = [f"{t.numerator}/{t.denominator}", s]
    return pio.map2_from_dict(data), len(inner)


def test_large_distinct_denominators():
    h, moved = _finely_moved_certificate()
    assert moved == 155
    D, _ = integer_charts([c.poly for c in h.cells])
    assert D.bit_length() > 61 * moved
    assert validate_homeo(h) == [] == reference_validate(h)
    ti = 17
    cells = list(h.cells)
    cells[ti] = CellMap(cells[ti].poly[::-1], cells[ti].img[::-1])
    bad = PLMap2(h.model, cells)
    problems = validate_homeo(bad)
    assert [p for p in problems if "not positively oriented" in p] == \
        [f"triangle {ti} not positively oriented"]
    assert problems == reference_validate(bad)


@pytest.mark.parametrize("name", ["disc-rotation-1-3",
                                  "sphere-rotoreflection-1-4"])
def test_cells_are_put_on_integers_once(name, monkeypatch):
    """``validate_homeo`` reads f's integer points and images from f's
    ``BoxIndex``, which ``compose`` reads too: f's cells, and their
    images, go through ``integer_charts`` once each in
    ``validate_homeo(f)`` followed by ``compose(f, f)``."""
    _, f = pio.instance_from_dict(pio.load_json(INPUTS / f"{name}.json"))
    polys = [c.poly for c in f.cells]
    imgs = [c.img for c in f.cells]
    calls = []

    def counted(ps):
        calls.append("polys" if list(ps) == polys else
                     "imgs" if list(ps) == imgs else "other")
        return integer_charts(ps)

    monkeypatch.setattr(maps, "integer_charts", counted)
    assert validate_homeo(f) == []
    maps.compose(f, f)
    assert calls.count("polys") == 1
    assert calls.count("imgs") == 1
