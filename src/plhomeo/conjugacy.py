"""Model isometries of the disc and sphere models, and conjugacy
certificates h with h o f = r o h checked exactly."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import InvalidClass, StructureViolated
from .maps import (PLMap2, CellMap, compose, first_disagreement, identity_map,
                   map_equal, reflection_map, rotation_map, rotoreflection_map,
                   shift_into_unit)
from .suspension import SPHERE, band_cells

Q = Fraction

IDENTITY, ROTATION, REFLECTION, ROTOREFLECTION = (
    "identity", "rotation", "reflection", "rotoreflection")


@dataclass(frozen=True)
class ModelIsometry:
    model: str          # "disc" | "sphere"
    kind: str
    k: int = 0
    n: int = 1

    def __post_init__(self):
        if self.kind == ROTATION and self.n > 1 and gcd(self.k, self.n) != 1:
            raise InvalidClass("rotation class k/n must be reduced")
        if self.kind == ROTOREFLECTION:
            if self.model != SPHERE:
                raise InvalidClass("rotoreflection lives on the sphere")
            if self.n % 2 or gcd(2 * self.k, self.n) != 2:
                raise InvalidClass("rotoreflection must have period n")

    def as_map(self) -> PLMap2:
        if self.kind == IDENTITY:
            return identity_map(self.model)
        if self.kind == ROTATION:
            return rotation_map(self.model, self.k, self.n)
        if self.kind == REFLECTION:
            return reflection_map(self.model)
        if self.kind == ROTOREFLECTION:
            return rotoreflection_map(self.k, self.n)
        raise InvalidClass(f"unknown isometry kind {self.kind!r}")


def rotation_by(model: str, c: Fraction) -> PLMap2:
    """Rotation by an arbitrary rational angle (band count from c)."""
    c = Q(c) % 1
    if c == 0:
        return identity_map(model)
    den = c.denominator
    bands = den
    while bands < 3:
        bands += den
    cells = band_cells(model, bands)
    out = []
    for cell in cells:
        img = [(x + c, y) for x, y in cell]
        _, img_u = shift_into_unit(img)
        out.append(CellMap(tuple(cell), img_u))
    return PLMap2(model, out)


@dataclass
class Certificate:
    """An exact conjugacy: h o f = model o h as maps of the model."""
    model: ModelIsometry
    h: PLMap2
    exact: bool
    pins: dict = field(default_factory=dict)
    witness: tuple | None = None


def check_certificate(f: PLMap2, cert: Certificate) -> Certificate:
    """Re-verify h o f = model o h exactly; fill the exact/witness fields."""
    lhs = compose(f, cert.h)
    rhs = compose(cert.h, cert.model.as_map())
    if map_equal(lhs, rhs):
        cert.exact = True
        cert.witness = None
    else:
        cert.exact = False
        cert.witness = first_disagreement(lhs, rhs)
    return cert


def require_exact(f: PLMap2, cert: Certificate) -> Certificate:
    check_certificate(f, cert)
    if not cert.exact:
        raise StructureViolated(
            f"certificate not exact; witness {cert.witness}")
    return cert
