"""Exact rational helpers shared by all modules.

All quantities in this package live in Q and are carried by
:class:`fractions.Fraction`, which already guarantees the canonical
lowest-terms form with positive denominator.  This module only adds the
"p/q" string convention used by every JSON report.
"""

from __future__ import annotations

from fractions import Fraction

INFINITE = float("inf")


def format_rational(x) -> str:
    """Render a Fraction as "p/q" ("p" when the denominator is 1, "inf" for
    the symbolic infinite bracket)."""
    if not isinstance(x, Fraction):
        if x == INFINITE:
            return "inf"
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (also accepts leading sign); raises ValueError on
    anything else, including floats."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text), 1)
