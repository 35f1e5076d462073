"""Model isometries of the disc and sphere models, and conjugacy
certificates h with h o f = r o h checked exactly.  A certificate is the
pair (r, h) alone; the verdict of ``check_certificate`` is its return
value, a point where h o f and r o h differ, or None when they agree."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidClass, ParseError, StructureViolated
from .exact import fmt_pt, mod1
from .geom import Pt
from .maps import PLMap2, compose, first_disagreement, follow, identity_map
from .suspension import (Affine, DISC, SPHERE, _edge_key, band_cells,
                         isometry_affine)

IDENTITY, ROTATION, REFLECTION, ROTOREFLECTION = (
    "identity", "rotation", "reflection", "rotoreflection")


@dataclass(frozen=True)
class ModelIsometry:
    model: str          # "disc" | "sphere"
    kind: str
    k: int = 0
    n: int = 1

    def __post_init__(self):
        k, n = self.k, self.n
        if self.model not in (DISC, SPHERE):
            raise InvalidClass(f"unknown model {self.model!r}")
        if self.kind not in (IDENTITY, ROTATION, REFLECTION, ROTOREFLECTION):
            raise InvalidClass(f"unknown model isometry kind {self.kind!r}")
        if self.kind == ROTATION:
            if n < 1 or not 0 <= k < n or gcd(k, n) != 1:
                raise InvalidClass(f"rotation k/n = {k}/{n} must be reduced")
        if self.kind == ROTOREFLECTION:
            if self.model != SPHERE:
                raise InvalidClass("rotoreflection lives on the sphere")
            if n < 2 or n % 2 or not 0 < k < n or gcd(2 * k, n) != 2:
                raise InvalidClass(f"rotoreflection (k, n) = ({k}, {n}) "
                                   "does not have period n")

    def as_map(self) -> PLMap2:
        """The isometry as a map: the identity on vertical bands that its
        shift permutes, followed by ``affine``."""
        bands = _band_count(self.n) \
            if self.kind in (ROTATION, ROTOREFLECTION) else 4
        return follow(identity_map(self.model, band_cells(self.model, bands)),
                      self.affine())

    def affine(self) -> Affine:
        """The chart affine map of the isometry, the one description of it;
        k and n count only for a rotation or a rotoreflection."""
        if self.kind in (ROTATION, ROTOREFLECTION):
            return isometry_affine(1, Fraction(self.k, self.n),
                                   -1 if self.kind == ROTOREFLECTION else 1)
        return isometry_affine(-1 if self.kind == REFLECTION else 1,
                               Fraction(0), 1)


def _band_count(n: int) -> int:
    """Bands compatible with a shift by multiples of 1/n."""
    bands = n
    while bands < 3:
        bands += n
    return bands


@dataclass(frozen=True)
class Certificate:
    """A conjugacy claim: h o f = model o h as maps of the model."""
    model: ModelIsometry
    h: PLMap2


def meridian_edges(cert: Certificate) -> list[tuple[Pt, Pt]]:
    """The edges of h's cells that h maps onto a meridian of the model,
    t = i k/n mod 1 for 0 <= i < n, the orbit of t = 0 under the model
    isometry.  h carries the model's sectors onto fundamental domains of
    f, so these are the arcs that bound them.  Each edge comes once, keyed
    by ``_edge_key``, which keeps an edge that ends on t = 1 in one piece
    of the chart."""
    iso = cert.model
    meridians = {mod1(Fraction(i * iso.k, iso.n)) for i in range(iso.n)}
    out = set()
    for cell in cert.h.cells:
        m = len(cell.poly)
        for i in range(m):
            a, b = _edge_key(cell.img[i], cell.img[(i + 1) % m])
            if a[0] == b[0] and a[0] in meridians:
                out.add(_edge_key(cell.poly[i], cell.poly[(i + 1) % m]))
    return sorted(out)


def check_certificate(f: PLMap2, cert: Certificate) -> Pt | None:
    """Re-verify h o f = model o h exactly; the verdict is the return
    value, a witness point where they differ, or None when they agree.

    The verdict and the witness come from one ``first_disagreement`` scan,
    which needs its second map to tile the chart rectangle.  That map is
    model o h built by ``follow``: h's own cells, each followed by the
    model's single affine map, so it tiles exactly where h's domain cells
    do.  ``verify`` checks them, and f, with ``validate_homeo`` before calling
    this, and every certificate builder takes the cells of an equivariant
    complex of f as h's domain.  A tiling failure that slips through
    raises StructureViolated rather than a verdict without a witness."""
    if cert.h.model != cert.model.model:
        raise ParseError("certificate map and model isometry live on "
                         "different models")
    lhs = compose(f, cert.h)
    rhs = follow(cert.h, cert.model.affine())
    return first_disagreement(lhs, rhs)


def require_exact(f: PLMap2, cert: Certificate) -> Certificate:
    witness = check_certificate(f, cert)
    if witness is not None:
        raise StructureViolated(
            f"certificate not exact; witness {fmt_pt(witness)}")
    return cert
