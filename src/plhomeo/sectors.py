"""Arc systems, sectors, equivariant embeddings and the certificates of
the classes with fixed points, shared by disc and sphere.

The disc and the sphere are conjugated to their models the same way: an
arc system is cut out of an equivariant complex, one fundamental domain
bounded by arcs is embedded by a Tutte (convex-combination) embedding onto
a rectangle of the model chart, and ``orbit_cells``, the one equivariant
extension, pushes the embedding around the orbit by the model's chart
affine map (``Layout.affine``).  From these steps
``fixed_point_conjugacy`` builds the certificate of the identity, a
rotation or the reflection on either model.  ``disc.py`` and ``sphere.py``
own the analyses, and ``sphere.py`` the arcs of the fixed-point-free case.

Arcs run from the collapsed center line to the boundary line in the disc,
and from the north pole line to the south pole line in the sphere.  A
fundamental domain is laid out on [0, wedge] x [lo, hi]: its left and right
arcs, listed from the top down, go onto t = 0 and t = wedge by
combinatorial arc length, and its bottom and top chains, listed from left
to right, are spaced evenly along s = lo and s = hi.  Every such arc or
chain is read off the complex by ``edge_path``, the one walk along a
simple path of edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .conjugacy import (Certificate, ModelIsometry, IDENTITY, REFLECTION,
                        ROTATION, require_exact)
from .embedding import tutte_positions
from .eqcomplex import (EqComplex, apply_perm, equivariant_complex,
                        refine_cells, refine_edges)
from .errors import (EmbeddingDegenerate, QuotientPathNotFound,
                     StructureViolated)
from .exact import mod1
from .geom import Pt, area2
from .maps import (CellMap, FixedSet, PLMap2, identity_map, shift_into_unit,
                   unit_rotation_power)
from .suspension import (DISC, IDENTITY_AFFINE, SPHERE, Affine, _edge_key,
                         collapsed_levels, isometry_affine, s_range)

Q = Fraction

# Refinements an embedding may take before the construction gives up.
MAX_REFINEMENTS = 6

# The line an arc of a sector system starts on and the line it ends on.
ARC_LEVELS = {DISC: (Q(0), Q(1)), SPHERE: (Q(1), Q(-1))}

# The levels whose orbits cut the equivariant complex of a map with fixed
# points.
LEVEL_CUTS = {DISC: (Q(1, 2),), SPHERE: (Q(1, 2), Q(-1, 2))}


# ---------------------------------------------------------------------------
# arcs


def orbit_ids(perm: list[int]) -> list[int]:
    """For each element, the smallest element of its cycle under perm."""
    out = [-1] * len(perm)
    for i in range(len(perm)):
        if out[i] != -1:
            continue
        orbit = [i]
        j = perm[i]
        while j != i:
            orbit.append(j)
            j = perm[j]
        rep = min(orbit)
        for v in orbit:
            out[v] = rep
    return out


def quotient_adjacency(k: EqComplex, cells=None) -> dict[int, set[int]]:
    """Vertex adjacency along the edges of k that do not lie in a collapsed
    line; with cells given, only along edges of those cells."""
    collapsed = collapsed_levels(k.model)
    adj: dict[int, set[int]] = {}
    for ei, (a, b) in enumerate(k.edge_verts):
        if cells is not None and not any(c in cells
                                         for c in k.edge_cells[ei]):
            continue
        pa, pb = k.edges[ei]
        if pa[1] == pb[1] and pa[1] in collapsed:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def lifted_quotient_path(adj, orbit_id, starts, is_goal, blocked):
    """Shortest path in the orbit quotient, lifted to a vertex path.

    Breadth-first search from the orbits of the start vertices to the first
    orbit holding a goal vertex, never through a blocked vertex; ties go to
    the smallest vertex ids.  The lift starts at a start vertex.  Returns
    None when no goal is reachable.
    """
    members: dict[int, list[int]] = {}
    for v, o in enumerate(orbit_id):
        members.setdefault(o, []).append(v)
    start_orbits = {orbit_id[v] for v in starts}
    prev: dict[int, int] = {}
    seen = set(start_orbits)
    frontier = sorted(start_orbits)
    goal = None
    while frontier and goal is None:
        nxt = []
        for ov in frontier:
            for v in members[ov]:
                for w in sorted(adj.get(v, ())):
                    ow = orbit_id[w]
                    if ow in seen:
                        continue
                    if is_goal(w):
                        seen.add(ow)
                        prev[ow] = ov
                        goal = ow
                        break
                    if blocked(w):
                        continue
                    seen.add(ow)
                    prev[ow] = ov
                    nxt.append(ow)
                if goal is not None:
                    break
            if goal is not None:
                break
        frontier = sorted(nxt)
    if goal is None:
        return None
    orbit_path = [goal]
    while orbit_path[-1] not in start_orbits:
        orbit_path.append(prev[orbit_path[-1]])
    orbit_path.reverse()
    for v in sorted(starts):
        cands = sorted(w for w in adj.get(v, ())
                       if orbit_id[w] == orbit_path[1])
        if cands:
            path = [v, cands[0]]
            break
    else:
        raise QuotientPathNotFound("lift start not found")
    for target in orbit_path[2:]:
        cands = sorted(w for w in adj.get(path[-1], ())
                       if orbit_id[w] == target)
        if not cands:
            raise QuotientPathNotFound("lift step not found")
        path.append(cands[0])
    return path


def polar_arc(k: EqComplex) -> list[int]:
    """Shortest quotient path between the two arc lines of the model, lifted.

    The lift is simple and its orbit arcs meet only on collapsed lines, by
    the covering property of a free action.
    """
    start, end = ARC_LEVELS[k.model]
    level = [v[1] for v in k.verts]
    path = lifted_quotient_path(
        quotient_adjacency(k), orbit_ids(k.vert_perm),
        [v for v in range(len(k.verts)) if level[v] == start],
        lambda w: level[w] == end, lambda w: level[w] == start)
    if path is None:
        raise QuotientPathNotFound(f"no quotient path from s={start} to "
                                   f"s={end}")
    return path


def top_end(k: EqComplex, arc) -> int:
    """The end of an arc on the line s = 1."""
    if k.verts[arc[0]][1] == 1:
        return arc[0]
    if k.verts[arc[-1]][1] == 1:
        return arc[-1]
    raise StructureViolated("arc has no end on the line s = 1")


def _edge_between(k: EqComplex, a: int, b: int) -> int:
    pa, pb = k.verts[a], k.verts[b]
    for cand in (
            _edge_key(pa, pb),
            _edge_key(pa, (pb[0] + 1, pb[1])),
            _edge_key((pa[0] + 1, pa[1]), pb)):
        if cand in k.edge_index:
            ei = k.edge_index[cand]
            if set(k.edge_verts[ei]) == {a, b}:
                return ei
    raise StructureViolated(f"no edge between vertices {a} and {b}")


# ---------------------------------------------------------------------------
# sectors


def components(k: EqComplex, blocked_edges, cells=None
               ) -> list[frozenset[int]]:
    """Components of the cells (all cells of k by default) that stay
    connected across edges not in blocked_edges, ordered by smallest cell."""
    if cells is None:
        cells = range(len(k.polys))
    seen = set()
    comps = []
    for c0 in sorted(cells):
        if c0 in seen:
            continue
        comp = []
        stack = [c0]
        seen.add(c0)
        while stack:
            c = stack.pop()
            comp.append(c)
            poly = k.polys[c]
            m = len(poly)
            for i in range(m):
                ei = k.edge_index[_edge_key(poly[i], poly[(i + 1) % m])]
                if ei in blocked_edges:
                    continue
                for d in k.edge_cells[ei]:
                    if d in cells and d not in seen:
                        seen.add(d)
                        stack.append(d)
        comps.append(frozenset(comp))
    return comps


def cut_sectors(k: EqComplex, arc0, m: int):
    """The orbit of arc0 as m arcs, the edges they use, the m sectors they
    cut, and the sector on the positive side of arc0 along the line s = 1."""
    arcs = [arc0]
    for _ in range(1, m):
        arcs.append([k.vert_perm[v] for v in arcs[-1]])
    collapsed = collapsed_levels(k.model)
    for i in range(m):
        for j in range(i + 1, m):
            if any(k.verts[v][1] not in collapsed
                   for v in set(arcs[i]) & set(arcs[j])):
                raise StructureViolated(
                    "arcs meet away from the collapsed lines")
    arc_edges = {_edge_between(k, a, b)
                 for arc in arcs for a, b in zip(arc, arc[1:])}
    comps = components(k, arc_edges)
    if len(comps) != m:
        raise QuotientPathNotFound(
            f"arcs cut {len(comps)} sectors, expected {m}")
    t = k.verts[top_end(k, arc0)][0]
    for ei, (pa, pb) in enumerate(k.edges):
        if pa[1] == 1 and pb[1] == 1 and mod1(min(pa[0], pb[0])) == t:
            cell = k.edge_cells[ei][0]
            sector0 = next(comp for comp in comps if cell in comp)
            return arcs, arc_edges, comps, sector0
    raise StructureViolated("no edge of the line s = 1 leaves the arc end")


def fixed_edges(k: EqComplex, j: int) -> set[int]:
    """Edges of k that f^j fixes pointwise, apart from the end lines: the
    edges that f^j maps onto themselves with both vertices fixed."""
    ends = s_range(k.model)
    out = set()
    for ei, (pa, pb) in enumerate(k.edges):
        if pa[1] == pb[1] and pa[1] in ends:
            continue
        if apply_perm(k.edge_perm, ei, j) == ei and all(
                apply_perm(k.vert_perm, v, j) == v for v in k.edge_verts[ei]):
            out.add(ei)
    if not out:
        raise StructureViolated("no fixed edges found")
    return out


def edge_path(k: EqComplex, edges, start: int, stops) -> list[int]:
    """The vertex path along the given edges from start to the first
    vertex in stops; each step must have exactly one way on."""
    adj: dict[int, list[int]] = {}
    for ei in edges:
        a, b = k.edge_verts[ei]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    path = [start]
    prev = None
    while path[-1] not in stops:
        if len(path) > len(adj):
            raise StructureViolated("edge path walk lost")
        nxt = [w for w in adj.get(path[-1], []) if w != prev]
        if len(nxt) != 1:
            raise StructureViolated("edge path is not a simple path")
        prev = path[-1]
        path.append(nxt[0])
    return path


def line_walk(k: EqComplex, side, level: Fraction, start: int, stop: int):
    """Walk the edges of the side on the line s = level from start to stop
    (in either direction)."""
    on_line = [ei for ei, (pa, pb) in enumerate(k.edges)
               if pa[1] == level == pb[1]
               and any(c in side for c in k.edge_cells[ei])]
    return edge_path(k, on_line, start, {stop})


# ---------------------------------------------------------------------------
# layouts of a fundamental domain


@dataclass
class Layout:
    """Prescribed chart positions for the boundary of a fundamental domain."""
    fund: frozenset[int]     # the cells of the domain
    targets: dict[int, Pt]   # vertex -> prescribed position
    chains: list[list[int]]  # left, right, bottom and top sides
    affine: Affine           # the model map between consecutive iterates


def rectangle_targets(left, right, bottom, top, wedge: Fraction,
                      lo: Fraction, hi: Fraction) -> dict[int, Pt]:
    """Positions on [0, wedge] x [lo, hi] for the four sides of a domain."""
    targets: dict[int, Pt] = {}
    for side, t in ((left, Q(0)), (right, wedge)):
        m = len(side) - 1
        for j, v in enumerate(side):
            tgt = (t, hi - (hi - lo) * Q(j, m))
            if v in targets and targets[v] != tgt:
                raise StructureViolated("arc target conflict")
            targets[v] = tgt
    for chain, s in ((bottom, lo), (top, hi)):
        p = len(chain) - 1
        for j, v in enumerate(chain[1:-1], start=1):
            targets[v] = (wedge * Q(j, p), s)
    return targets


def polar_layout(k: EqComplex, fund, left, right, wedge: Fraction,
                 affine: Affine) -> Layout:
    """The domain between two arcs onto [0, wedge] x s_range: its bottom
    and top sides run along the end lines of the chart."""
    lo, hi = s_range(k.model)
    bottom = line_walk(k, fund, lo, left[-1], right[-1])
    top = line_walk(k, fund, hi, left[0], right[0])
    return Layout(fund, rectangle_targets(left, right, bottom, top, wedge,
                                          lo, hi),
                  [left, right, bottom, top], affine)


def rotation_layout(k: EqComplex) -> Layout:
    """The first of the k.n sectors between the arcs of the orbit of a
    polar arc onto [0, 1/n] x s_range, its right arc forced as the image of
    the left one.

    Requires the map to turn each sector onto the next one, which holds
    when its rotation number is 1/n."""
    arcs, _, comps, sector0 = cut_sectors(k, polar_arc(k), k.n)
    sectors = [sector0]
    for _ in range(1, k.n):
        sectors.append(frozenset(k.cell_perm[c] for c in sectors[-1]))
    if set(sectors) != set(comps):
        raise StructureViolated("sectors are not permuted cyclically")
    arc0 = arcs[0]
    left = arc0 if top_end(k, arc0) == arc0[0] else arc0[::-1]
    right = [k.vert_perm[v] for v in left]
    return polar_layout(k, sector0, left, right, Q(1, k.n),
                        isometry_affine(1, Q(1, k.n), 1))


def reflection_layout(k: EqComplex) -> Layout:
    """One side of the fixed curve of the involution of k onto
    [0, 1/2] x s_range, the two halves of the curve onto t = 0 and 1/2."""
    arc_edges = fixed_edges(k, 1)
    comps = components(k, arc_edges)
    if len(comps) != 2:
        raise StructureViolated(
            f"fixed curve cuts {len(comps)} pieces, expected 2")
    side1 = min(comps, key=min)
    side2 = [c for c in comps if c is not side1][0]
    if frozenset(k.cell_perm[c] for c in side1) != side2:
        raise StructureViolated("involution does not swap the two sides")
    half1, half2 = _curve_halves(k, arc_edges)
    return polar_layout(k, side1, half1, half2, Q(1, 2),
                        isometry_affine(-1, Q(0), 1))


def _curve_halves(k: EqComplex, arc_edges: set[int]):
    """The fixed curve split at the end lines: two vertex paths, each from
    the line s = 1 down to the bottom line of the chart."""
    lo = s_range(k.model)[0]
    degree = Counter(v for ei in arc_edges for v in k.edge_verts[ei])
    starts = sorted(v for v, d in degree.items()
                    if d == 1 and k.verts[v][1] == 1)
    if len(starts) != 2:
        raise StructureViolated("fixed curve must meet the line s = 1 twice")
    bottom = {v for v in degree if k.verts[v][1] == lo}
    return [edge_path(k, arc_edges, start, bottom) for start in starts]


# ---------------------------------------------------------------------------
# the embedding


def embed_fundamental_domain(k: EqComplex, layout, oriented: bool):
    """Tutte-embed the domain that layout(k) prescribes, refining k until
    the embedding is nondegenerate.

    With oriented, every fan triangle must keep its orientation; otherwise
    all must agree in sign.  Returns the final complex, layout and
    positions."""
    for _ in range(MAX_REFINEMENTS):
        lay = layout(k)
        defects = _embedding_defects(k, lay.fund, lay.targets, lay.chains)
        if defects:
            bad_cells, chord_edges = defects
            k = refine_edges(k, chord_edges) if chord_edges \
                else refine_cells(k, bad_cells)
            continue
        pos = tutte_positions(_sector_adjacency(k, lay.fund), lay.targets)
        bad = _nonembedded_cells(k, lay.fund, pos, lay.targets, oriented)
        if not bad:
            return k, lay, pos
        k = refine_cells(k, bad)
    raise EmbeddingDegenerate(
        f"embedding still degenerate after {MAX_REFINEMENTS} refinements")


def _embedding_defects(k: EqComplex, sector, targets, chains):
    """Configurations that would collapse under the convex-combination
    solve: cells with every vertex prescribed, and interior chord edges
    joining two vertices prescribed on the same straight side."""
    bad_cells = []
    for c in sorted(sector):
        ids = {k.vertex_id(p) for p in k.polys[c]}
        if all(v in targets for v in ids):
            bad_cells.append(c)
    chain_edges = set()
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            chain_edges.add((min(a, b), max(a, b)))
    chord_edges = []
    for ei, (a, b) in enumerate(k.edge_verts):
        if a not in targets or b not in targets:
            continue
        if (min(a, b), max(a, b)) in chain_edges:
            continue
        ta, tb = targets[a], targets[b]
        if not any(c in sector for c in k.edge_cells[ei]):
            continue
        if _common_side(targets, ta, tb):
            chord_edges.append(ei)
    if bad_cells or chord_edges:
        return bad_cells, chord_edges
    return None


def _common_side(targets, ta, tb) -> bool:
    """Both targets on one straight side of the convex target region."""
    xs = {t[0] for t in targets.values()}
    lo_x, hi_x = min(xs), max(xs)
    if ta[0] == tb[0] and ta[0] in (lo_x, hi_x):
        return True
    if ta[1] == tb[1] and ta[1] in (Q(0), Q(1)):
        return True
    return False


def _sector_adjacency(k: EqComplex, sector) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for c in sorted(sector):
        poly = k.polys[c]
        m = len(poly)
        for i in range(m):
            a = k.vertex_id(poly[i])
            b = k.vertex_id(poly[(i + 1) % m])
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    return adj


def _fan_anchor(k: EqComplex, poly, targets) -> int:
    """Fan corner choice: prefer an unprescribed vertex so fan diagonals
    never join two points of one straight target side."""
    for i, p in enumerate(poly):
        if k.vertex_id(p) not in targets:
            return i
    return 0


def _fan_triples(poly, anchor: int):
    m = len(poly)
    ordered = [poly[(anchor + z) % m] for z in range(m)]
    return [(ordered[0], ordered[z], ordered[z + 1]) for z in range(1, m - 1)]


def _nonembedded_cells(k: EqComplex, sector, pos, targets, oriented: bool):
    """Cells whose fan pieces get nonpositive image area (oriented) or
    inconsistent sign; candidates for refinement."""
    bad = []
    sign = None
    for c in sorted(sector):
        poly = k.polys[c]
        anchor = _fan_anchor(k, poly, targets)
        for tri in _fan_triples(poly, anchor):
            img = tuple(pos[k.vertex_id(q)] for q in tri)
            a2 = area2(img)
            if oriented:
                if a2 <= 0:
                    bad.append(c)
                    break
            else:
                s = 1 if a2 > 0 else (-1 if a2 < 0 else 0)
                if s == 0 or (sign is not None and s != sign):
                    bad.append(c)
                    break
                sign = s
    return bad


# ---------------------------------------------------------------------------
# the conjugacy, cell by cell


def _cell(tri, img) -> CellMap:
    _, poly = shift_into_unit(tri)
    _, img = shift_into_unit(img)
    poly, img = list(poly), list(img)
    if area2(tuple(poly)) < 0:
        poly.reverse()
        img.reverse()
    return CellMap(tuple(poly), tuple(img))


def orbit_cells(k: EqComplex, lay: Layout, pos) -> list[CellMap]:
    """Fan-triangulate the fundamental domain and push it by the action.

    The i-th iterate of a domain cell has the corners f^i(tri0) and the
    images M^i(pos), where M is lay.affine; the arcs between iterates come
    out automatically."""
    rep = {}
    for c0 in sorted(lay.fund):
        cur = c0
        for i in range(k.n):
            rep.setdefault(cur, (c0, i))
            cur = k.cell_perm[cur]
    if len(rep) != len(k.polys):
        raise StructureViolated("fundamental domain orbit does not tile")
    images, M = [], IDENTITY_AFFINE  # images[i][v] = M^i(pos[v])
    for _ in range(k.n):
        images.append({v: M(p) for v, p in pos.items()})
        M = lay.affine.compose_after(M)
    cells: list[CellMap] = []
    for c in range(len(k.polys)):
        c0, i = rep[c]
        A, cur = IDENTITY_AFFINE, c0
        for _ in range(i):
            A = k.f_affines[cur].compose_after(A)
            cur = k.cell_perm[cur]
        base = k.polys[c0]
        for tri0 in _fan_triples(base, _fan_anchor(k, base, lay.targets)):
            cells.append(_cell([A(q) for q in tri0],
                               [images[i][k.vertex_id(q)] for q in tri0]))
    return cells


# ---------------------------------------------------------------------------
# the certificates of the classes with fixed points


def fixed_point_conjugacy(f: PLMap2, kind: str, kk: int, n: int,
                          fixed: FixedSet | None) -> Certificate:
    """The certificate of a disc or sphere map f of the class kind, with
    fixed points: the identity, the rotation by kk/n, or the reflection.

    A rotation is built on its iterate of class 1/n
    (``unit_rotation_power``), a reflection on its complex cut along the
    fixed segments that the analysis found.  The reflection has period n = 2,
    but its model, like the identity's, has k = 0 and n = 1."""
    model = f.model
    if kind == IDENTITY:
        return require_exact(f, Certificate(ModelIsometry(model, IDENTITY),
                                            identity_map(model)))
    if kind == ROTATION:
        iso = ModelIsometry(model, ROTATION, kk, n)
        k = equivariant_complex(unit_rotation_power(f, kk, n), n,
                                level_cuts=LEVEL_CUTS[model])
        k, lay, pos = embed_fundamental_domain(k, rotation_layout,
                                               oriented=True)
    elif kind == REFLECTION:
        iso = ModelIsometry(model, REFLECTION)
        k = equivariant_complex(f, n, level_cuts=LEVEL_CUTS[model],
                                chord_cuts=fixed.segments)
        k, lay, pos = embed_fundamental_domain(k, reflection_layout,
                                               oriented=False)
    else:
        raise StructureViolated(
            "map has no fixed points; use the free pipeline")
    return require_exact(f, Certificate(
        iso, PLMap2(model, orbit_cells(k, lay, pos))))
