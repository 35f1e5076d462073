"""Deterministic SVG diagnostics.

The only place floating point appears in the package, at the serialization
boundary: rational chart coordinates are projected with 12 significant
digits for display.  Disc: (t, s) -> (s cos 2pi t, s sin 2pi t); sphere:
orthographic side view (sqrt(1-s^2) cos 2pi t, s).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .maps import PLMap2, fixed_set
from .suspension import DISC, _edge_key

SIZE = 480
R = 200


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _disc_xy(t: Fraction, s: Fraction):
    a = 2 * math.pi * float(t)
    return (SIZE / 2 + R * float(s) * math.cos(a),
            SIZE / 2 - R * float(s) * math.sin(a))


def _sphere_xy(t: Fraction, s: Fraction):
    rr = math.sqrt(max(0.0, 1.0 - float(s) ** 2))
    a = 2 * math.pi * float(t)
    return (SIZE / 2 + R * rr * math.cos(a), SIZE / 2 - R * float(s))


def _proj(model: str):
    return _disc_xy if model == DISC else _sphere_xy


def _polyline(points, color, width="1"):
    attrs = f'stroke="{color}" stroke-width="{width}" fill="none"'
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return f'<polyline points="{coords}" {attrs}/>'


def _circle(x, y, r, color):
    return (f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" '
            f'fill="{color}"/>')


def render_map(f: PLMap2, arcs=None) -> str:
    """SVG drawing: cell edges in grey, the fixed set in red, and in blue
    the chart edges (p, q) listed in arcs."""
    proj = _proj(f.model)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
             f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
             f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>']
    boundary = [proj(Fraction(i, 256), Fraction(1)) for i in range(257)]
    parts.append(_polyline(boundary, "black", "2"))
    # keyed as conjugacy.meridian_edges keys its edges, so an edge that two
    # cells list at t = 0 and at t = 1 is drawn once
    seen = set()
    for cell in f.cells:
        m = len(cell.poly)
        for i in range(m):
            p, q = cell.poly[i], cell.poly[(i + 1) % m]
            key = _edge_key(p, q)
            if key in seen:
                continue
            seen.add(key)
            parts.append(_polyline(_edge_points(proj, p, q), "#c8c8c8"))
    fs = fixed_set(f)
    for chain in fs.one:
        pts = [proj(t, s) for t, s in chain]
        parts.append(_polyline(pts, "red", "2"))
    for p in fs.zero:
        x, y = proj(*p)
        parts.append(_circle(x, y, 4, "red"))
    for p, q in arcs or []:
        parts.append(_polyline(_edge_points(proj, p, q), "blue", "2"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _edge_points(proj, p, q):
    """The chart segment from p to q projected at nine points, so that it
    bends as the projection does."""
    return [proj(*_seg_pt(p, q, Fraction(j, 8))) for j in range(9)]


def _seg_pt(p, q, lam: Fraction):
    return (p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1]))
