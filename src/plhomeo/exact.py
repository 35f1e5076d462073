"""Exact rational scalars, angles mod 1, and their string forms.

All coordinates in this package are `fractions.Fraction` values.  Angles
are fractions normalized into [0, 1); "p/q" strings (q > 0, lowest terms)
are the only serialized form.  Nothing in this module, or anywhere in the
core, produces a float.
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
    return q - (q.numerator // q.denominator)
