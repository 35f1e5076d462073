"""Periodic disc homeomorphisms: analysis and the conjugacy to the model.

Orientation-preserving maps of period n have a single interior fixed point
(all iterates share it) and are conjugate to the rotation by their
rotation number on the boundary.  Orientation-reversing maps are exact
involutions whose fixed set is a boundary-to-boundary arc, conjugate to
the reflection.

This module owns what is particular to the disc: the analysis, the
boundary rotation number and the optional boundary pin.  The arc system,
the sectors, the embedding of a fundamental domain and its equivariant
extension are shared with the sphere and live in ``sectors.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circle import (MAX_PERIOD, CirclePL, circle_conjugacy_holds,
                     circle_rotation, rotation_number)
from .conjugacy import (Certificate, ModelIsometry, IDENTITY, REFLECTION,
                        ROTATION, require_exact)
from .eqcomplex import equivariant_complex
from .errors import GluingMismatch, NotPeriodic, StructureViolated
from .exact import mod1
from .maps import (FixedSet, PLMap2, boundary_restriction, compose,
                   fixed_set, follow, identity_map, orientation, period,
                   power, unit_rotation_power, validate_homeo)
from .sectors import (SectorDecomposition, embed_fundamental_domain,
                      orbit_cells, reflection_conjugacy, rotation_layout,
                      rotation_sectors)
from .suspension import DISC, isometry_affine

Q = Fraction


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
    if n is None:
        raise NotPeriodic(
            f"not periodic: the boundary map has no period up to "
            f"{MAX_PERIOD}, or f^n != id for its period n")
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


def sector_decomposition(f: PLMap2, n: int) -> SectorDecomposition:
    """Arc system from the center to the boundary with its n sectors.

    Requires the rotation number of f on the boundary to be 1/n so that
    consecutive arcs bound the sectors in cyclic order.
    """
    return rotation_sectors(equivariant_complex(f, n, level_cuts=[Q(1, 2)]))


def build_conjugacy_rotation(f: PLMap2, ana: DiscAnalysis,
                             boundary_pin: CirclePL | None = None
                             ) -> Certificate:
    """Conjugacy to the model rotation of the class in ``ana``, the
    analysis of f; with boundary_pin, one whose restriction to the
    boundary circle is that pin."""
    if ana.kind == "identity":
        cert = Certificate(ModelIsometry(DISC, IDENTITY), identity_map(DISC),
                           True)
        return require_exact(f, cert)
    if ana.kind != "rotation":
        raise StructureViolated("map is not rotation-like")
    n, kk = ana.n, ana.k
    pin = boundary_pin
    if pin is not None:
        if not circle_conjugacy_holds(boundary_restriction(f), pin,
                                      circle_rotation(Q(kk, n))):
            raise GluingMismatch("boundary pin does not conjugate f|boundary")
    k = equivariant_complex(unit_rotation_power(f, kk, n), n,
                            level_cuts=[Q(1, 2)])
    k, lay, pos = embed_fundamental_domain(
        k, lambda k: _pinned_layout(k, pin), oriented=True)
    h = PLMap2(DISC, orbit_cells(k, lay, pos))
    if pin is not None:
        offset = pin(k.verts[lay.chains[0][0]][0])
        if offset != 0:
            h = follow(h, isometry_affine(1, offset, 1))
    cert = Certificate(ModelIsometry(DISC, ROTATION, kk, n), h, True,
                       pins={"boundary": pin is not None})
    return require_exact(f, cert)


def _pinned_layout(k, pin: CirclePL | None):
    """The rotation layout; with a pin, the boundary side of the sector
    follows the pin instead of combinatorial arc length."""
    lay = rotation_layout(k)
    if pin is not None:
        top = lay.chains[3]
        base = pin(k.verts[top[0]][0])
        for v in top[1:-1]:
            lay.targets[v] = (mod1(pin(k.verts[v][0]) - base), Q(1))
    return lay


def build_conjugacy_reflection(f: PLMap2, ana: DiscAnalysis) -> Certificate:
    """Conjugacy to the model reflection, cutting along the fixed arc that
    ``ana``, the analysis of f, found."""
    if ana.kind != "reflection":
        raise StructureViolated("map is not reflection-like")
    k = equivariant_complex(f, 2, level_cuts=[Q(1, 2)],
                            chord_cuts=ana.fixed.segments)
    cert = Certificate(ModelIsometry(DISC, REFLECTION),
                       reflection_conjugacy(f, k), True)
    return require_exact(f, cert)
