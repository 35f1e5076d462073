"""Exact rational scalars, angles mod 1, and their string forms.

Points enter and leave the package as `fractions.Fraction` values, angles
normalized into [0, 1); "p/q" strings (q > 0, lowest terms) are the only
serialized form.  The kernels work on exact integer forms: points over the
lcm of their denominators (`maps.BoxIndex`, the keys of
`eqcomplex.EqComplex`), homogeneous points (X, Y, W) in lowest terms, which
`geom`'s overlay and line kernels take and return (`geom.hom`), lines as
three integers (lx, ly, lw), and affine maps as seven canonical integers
(`suspension.Affine`).  A map that composition or `maps.follow` builds is
born in these forms and becomes Fractions only where its cells are read.
Nothing in this module, or anywhere in the core, produces a float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def parse_rat(text: str) -> Fraction:
    """Read a "p/q" or integer literal; anything else is a ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"rational must be a \"p/q\" string, got {text!r}")
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            d = int(den)
            if d <= 0:
                raise ParseError(f"denominator must be positive in {text!r}")
            return Fraction(int(num), d)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def fmt_rat(q: Fraction) -> str:
    """Serialize as 'p/q' with q > 0 in lowest terms (always with a slash)."""
    return f"{q.numerator}/{q.denominator}"


def fmt_pt(p) -> str:
    """A chart point as '(p/q, p/q)', the form messages show it in."""
    return f"({fmt_rat(p[0])}, {fmt_rat(p[1])})"


def mod1(q: Fraction) -> Fraction:
    """Reduce into [0, 1); the representative of an angle."""
    return Fraction(q.numerator % q.denominator, q.denominator)
