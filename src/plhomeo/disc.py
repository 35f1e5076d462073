"""Periodic disc homeomorphisms: analysis and the conjugacy to the model.

Orientation-preserving maps of period n have a single interior fixed point
(all iterates share it) and are conjugate to the rotation by their
rotation number on the boundary.  Orientation-reversing maps are exact
involutions whose fixed set is a boundary-to-boundary arc, conjugate to
the reflection.

This module owns what is particular to the disc: the analysis and the
boundary rotation number.  Both certificate builders check the class and
hand it to ``sectors.fixed_point_conjugacy``, the one builder of the
classes with fixed points on the disc and the sphere: it cuts the arc
system and the sectors, embeds a fundamental domain and extends it by
``sectors.orbit_cells``, the push-forward by the model's affine map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle import rotation_number
from .conjugacy import Certificate, IDENTITY, REFLECTION, ROTATION
from .errors import StructureViolated
from .maps import (FixedSet, PLMap2, boundary_restriction, compose,
                   fixed_set, orientation, period, power, validate_homeo)
from .sectors import fixed_point_conjugacy
from .suspension import DISC


@dataclass
class DiscAnalysis:
    kind: str                     # "identity" | "rotation" | "reflection"
    n: int
    k: int = 0
    fixed: FixedSet | None = None  # the centre, or the fixed arc


def analyze_disc(f: PLMap2) -> DiscAnalysis:
    """Period, orientation and fixed structure, checked against the theory.

    The period and the class are read off the boundary circle map: its
    period is the period of f (see ``maps.period``), and its rotation
    number is the class.  The analysis is the input of the certificate
    builders: they read the class and the fixed set from it instead of
    computing them again."""
    if f.model != DISC:
        raise StructureViolated("analyze_disc needs a disc-model map")
    problems = validate_homeo(f)
    if problems:
        raise StructureViolated("invalid map: " + "; ".join(problems))
    n = period(f)
    if n == 1:
        return DiscAnalysis("identity", 1)
    fs = fixed_set(f)
    if orientation(f) == "preserving":
        if fs.everything or fs.one or fs.two or len(fs.zero) != 1:
            raise StructureViolated(
                "orientation-preserving periodic map must fix a single point")
        if fs.zero[0][1] == 1:
            raise StructureViolated("fixed point on the boundary")
        for i in range(2, n):
            fsi = fixed_set(power(f, i))
            if fsi.everything or fsi.one or fsi.two or fsi.zero != fs.zero:
                raise StructureViolated(
                    f"iterate {i} has extra fixed points")
        rc = rotation_number(boundary_restriction(f), n)
        return DiscAnalysis("rotation", n, rc.k, fs)
    # the boundary map reverses orientation, so its period n is 2
    if fs.everything or fs.two or len(fs.one) != 1 or fs.zero:
        raise StructureViolated(
            "reversing involution must fix exactly one simple arc")
    arc = fs.one[0]
    if arc[0][1] != 1 or arc[-1][1] != 1 or arc[0] == arc[-1]:
        raise StructureViolated("fixed arc must join two boundary points")
    if len(set(arc)) != len(arc):
        raise StructureViolated("fixed arc is not simple")
    return DiscAnalysis("reflection", 2, fixed=fs)


def build_conjugacy_rotation(f: PLMap2, ana: DiscAnalysis) -> Certificate:
    """Conjugacy to the model rotation of the class in ``ana``, the
    analysis of f, or to the identity."""
    if ana.kind not in (IDENTITY, ROTATION):
        raise StructureViolated("map is not rotation-like")
    return fixed_point_conjugacy(f, ana.kind, ana.k, ana.n, ana.fixed)


def build_conjugacy_reflection(f: PLMap2, ana: DiscAnalysis) -> Certificate:
    """Conjugacy to the model reflection, cutting along the fixed arc that
    ``ana``, the analysis of f, found."""
    if ana.kind != REFLECTION:
        raise StructureViolated("map is not reflection-like")
    return fixed_point_conjugacy(f, ana.kind, ana.k, ana.n, ana.fixed)
