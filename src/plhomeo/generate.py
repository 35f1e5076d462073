"""Deterministic scrambled instances: f = h o r o h^-1.

h is a composition of elementary PL moves (interior vertex relocation
inside the kernel of its star, edge subdivision, centroid face split),
each exactly checked, replayable from a seed.  Vertices on the meridian,
the boundary, or a collapsed line relocate only along their line, so every
move is a valid self-homeomorphism of the model.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .conjugacy import ModelIsometry
from .errors import StructureViolated
from .geom import (INSIDE, Pt, area2, centroid, cross, line_points,
                   point_in_convex, split_convex)
from .maps import (CellMap, PLMap2, compose, identity_map, inverse,
                   validate_homeo)
from .suspension import (DISC, _edge_key, band_cells, collapsed_levels,
                         s_range)

Q = Fraction


def scramble(model: str, seed: int, moves: int) -> PLMap2:
    """The scrambling homeomorphism h, replayable from the seed."""
    rng = random.Random(seed)
    h = identity_map(model, [tuple(c) for c in band_cells(model, 4)])
    done = 0
    attempts = 0
    while done < moves and attempts < moves * 20:
        attempts += 1
        tiling = [c.poly for c in inverse(h).cells]
        kind = rng.choices(["relocate", "edge", "face"],
                           weights=[8, 1, 1])[0]
        if kind == "edge":
            refined = _split_random_edge(rng, tiling)
            if refined is None:
                continue
            h = compose(h, identity_map(model, refined))
            done += 1
        elif kind == "face":
            refined = _split_random_face(rng, tiling)
            h = compose(h, identity_map(model, refined))
            done += 1
        else:
            m = _relocation_move(rng, model, tiling)
            if m is None:
                continue
            h = compose(h, m)
            done += 1
    return h


def scrambled_conjugate(r: PLMap2, h: PLMap2) -> PLMap2:
    """h o r o h^-1 via exact composition."""
    return compose(compose(inverse(h), r), h)


def make_instance(model: str, kind: str, k: int, n: int, seed: int,
                  moves: int):
    """A model isometry scrambled by `moves` elementary moves, validated.

    Returns (f, h, r); f = h r h^-1 and h is the hidden answer key.
    """
    r = ModelIsometry(model, kind, k, n).as_map()
    h = scramble(model, seed, moves)
    f = scrambled_conjugate(r, h)
    problems = validate_homeo(f)
    if problems:
        raise StructureViolated(
            "generated instance invalid: " + "; ".join(problems))
    return f, h, r


# ---------------------------------------------------------------------------
# elementary moves


def _edges_of(tiling):
    seen = {}
    for ci, poly in enumerate(tiling):
        np_ = len(poly)
        for i in range(np_):
            p, q = poly[i], poly[(i + 1) % np_]
            seen.setdefault(_edge_key(p, q), []).append((ci, i))
    return seen


def _split_random_edge(rng, tiling):
    edges = sorted(_edges_of(tiling).items())
    (p, q), _ = edges[rng.randrange(len(edges))]
    lam = rng.choice([Q(1, 3), Q(1, 2), Q(2, 3)])
    return split_edge(tiling, (p, q), lam)


def split_edge(tiling, edge, lam):
    """Refine: insert a point at parameter lam on the edge, re-fan cells.

    The split point is computed on the canonical edge chart, then shifted
    into each incident cell's copy, so both sides agree exactly.
    """
    key = _edge_key(edge[0], edge[1])
    p, q = key
    m0 = (p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1]))
    out = []
    changed = False
    for poly in tiling:
        np_ = len(poly)
        hit = None
        for i in range(np_):
            if _edge_key(poly[i], poly[(i + 1) % np_]) == key:
                hit = i
                break
        if hit is None:
            out.append(poly)
            continue
        a, b = poly[hit], poly[(hit + 1) % np_]
        shift = min(a[0], b[0]) - p[0]
        m = (m0[0] + shift, m0[1])
        changed = True
        rest = [poly[(hit + 1 + j) % np_] for j in range(np_)]
        chain = [m] + rest + [m]
        for j in range(len(chain) - 2):
            tri = (chain[0], chain[j + 1], chain[j + 2])
            if area2(tri) > 0:
                out.append(tri)
    return out if changed else None


def _split_random_face(rng, tiling):
    ci = rng.randrange(len(tiling))
    return split_face(tiling, ci)


def split_face(tiling, ci):
    out = []
    for i, poly in enumerate(tiling):
        if i != ci:
            out.append(poly)
            continue
        g = centroid(list(poly))
        np_ = len(poly)
        for j in range(np_):
            out.append((g, poly[j], poly[(j + 1) % np_]))
    return out


def _relocation_move(rng, model, tiling):
    verts = sorted({(p[0] - 1, p[1]) if p[0] >= 1 else p
                    for poly in tiling for p in poly})
    order = list(range(len(verts)))
    rng.shuffle(order)
    for vi in order:
        v = verts[vi]
        m = relocate_vertex(rng, model, tiling, v)
        if m is not None:
            return m
    return None


def relocate_vertex(rng, model, tiling, v: Pt):
    """A PL move fixing everything outside star(v); None if not movable."""
    lo, hi = s_range(model)
    line = None
    if v[1] in collapsed_levels(model) or (model == DISC and v[1] == 1):
        line = "horizontal"
    if v[0] == 0:
        if line is not None:
            return None  # corner of the chart: immovable
        line = "vertical"
    star = []           # (cell index, corner index, chart copy of v)
    for ci, poly in enumerate(tiling):
        for i, p in enumerate(poly):
            if p == v or p == (v[0] + 1, v[1]):
                star.append((ci, i, p))
    if not star or any(len(tiling[ci]) != 3 for ci, _, _ in star):
        return None
    # kernel: intersection of half-planes left of each opposite edge
    kern = [(Q(0), lo), (Q(1), lo), (Q(1), hi), (Q(0), hi)]
    for ci, i, copy in star:
        poly = tiling[ci]
        shift = copy[0] - v[0]
        a = (poly[(i + 1) % 3][0] - shift, poly[(i + 1) % 3][1])
        b = (poly[(i + 2) % 3][0] - shift, poly[(i + 2) % 3][1])
        kern, _ = split_convex(kern, [cross(a, b, p) for p in kern])
        if not kern:
            return None
    w = _sample_target(rng, kern, v, line)
    if w is None or w == v:
        return None
    out = []
    for ci, poly in enumerate(tiling):
        img = list(poly)
        for _, i, copy in [(c, i, cp) for c, i, cp in star if c == ci]:
            img[i] = (w[0] + (copy[0] - v[0]), w[1])
        out.append(CellMap(tuple(poly), tuple(img)))
    return PLMap2(model, out)


def _sample_target(rng, kern, v, line):
    if line == "horizontal":
        xs = _line_slice(kern, v, horizontal=True)
        if xs is None:
            return None
        lo_x, hi_x = xs
        x = _snap_between(rng, lo_x, hi_x)
        return None if x is None else (x, v[1])
    if line == "vertical":
        ys = _line_slice(kern, v, horizontal=False)
        if ys is None:
            return None
        lo_y, hi_y = ys
        y = _snap_between(rng, lo_y, hi_y)
        return None if y is None else (v[0], y)
    weights = [Q(1 + rng.randrange(8)) for _ in kern]
    tot = sum(weights)
    cx = sum(w * p[0] for w, p in zip(weights, kern)) / tot
    cy = sum(w * p[1] for w, p in zip(weights, kern)) / tot
    for denom in (16, 32, 64, 128):
        cand = (Q(round(cx * denom), denom), Q(round(cy * denom), denom))
        if point_in_convex(cand, kern) == INSIDE:
            return cand
    mid = (cx, cy)
    return mid if point_in_convex(mid, kern) == INSIDE else None


def _line_slice(kern, v, horizontal: bool):
    """Open interval of the kernel along the axis line through v."""
    axis = 1 if horizontal else 0
    pts = line_points(kern, [p[axis] - v[axis] for p in kern])
    if len(pts) < 2:
        return None
    coords = [p[1 - axis] for p in pts]
    return min(coords), max(coords)


def _snap_between(rng, lo, hi):
    if hi <= lo:
        return None
    for denom in (16, 32, 64, 128, 512):
        span = hi - lo
        x = lo + span * Q(1 + rng.randrange(14), 16)
        cand = Q(round(x * denom), denom)
        if lo < cand < hi:
            return cand
    mid = (lo + hi) / 2
    return mid if lo < mid < hi else None
