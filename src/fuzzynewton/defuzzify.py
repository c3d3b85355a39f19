"""Centroid defuzzification through alpha-level integrals.

The membership-weighted mean of a fuzzy number, rewritten by Fubini over
the membership region, needs only the level endpoints:

    centroid = [ integral of (U_a^2 - L_a^2) / 2 da ]
             / [ integral of (U_a - L_a) da ]

Both integrals run over the number's own alpha grid with the
scalarization's quadrature weights (Simpson when the grid size is odd,
trapezoid otherwise).  For a crisp number the
denominator vanishes and the alpha = 1 midpoint is returned instead.
"""

from __future__ import annotations


from .fuzzy_core import FuzzyNumber
from .level_calculus import _quad_weights

__all__ = ["centroid"]

CRISP_DENOMINATOR_FLOOR = 1e-14


def centroid(a: FuzzyNumber) -> float:
    """Membership-weighted mean of a fuzzy number.

    Falls back to the alpha = 1 level midpoint when the number is crisp
    (denominator below 1e-14).
    """
    w = _quad_weights(a.m, "simpson" if a.m % 2 else "trapezoid")
    num = float(w @ ((a.hi * a.hi - a.lo * a.lo) / 2.0))
    den = float(w @ (a.hi - a.lo))
    if den < CRISP_DENOMINATOR_FLOOR:
        return a.core().midpoint()
    return num / den
