"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from fuzzynewton import FuzzyNumber, TriangularFuzzy, uniform_alphas

GRID_SIZES = (5, 11, 21, 41, 101)


def finite(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


def assert_valid_fuzzy(a: FuzzyNumber) -> None:
    """Re-assert the representation invariants from first principles."""
    assert a.alphas[0] == 0.0 and a.alphas[-1] == 1.0
    assert np.all(np.isfinite(a.lo)) and np.all(np.isfinite(a.hi))
    slack = 1e-9 * max(
        1.0, float(np.max(np.abs(a.lo))), float(np.max(np.abs(a.hi)))
    )
    assert np.all(a.lo <= a.hi + slack)
    assert np.all(np.diff(a.lo) >= -slack)
    assert np.all(np.diff(a.hi) <= slack)


@st.composite
def fuzzy_numbers(draw, m: int | None = None, center=finite(-100.0, 100.0)):
    """Curved monotone level families: lo rises to c, hi falls to c."""
    if m is None:
        m = draw(st.sampled_from(GRID_SIZES))
    alphas = uniform_alphas(m)
    c = draw(center)
    s_lo = draw(finite(0.0, 50.0))
    s_hi = draw(finite(0.0, 50.0))
    q = draw(finite(0.25, 3.0))
    r = draw(finite(0.25, 3.0))
    dec = 1.0 - alphas
    return FuzzyNumber(alphas, c - s_lo * dec**q, c + s_hi * dec**r)


@st.composite
def fuzzy_pairs(draw):
    m = draw(st.sampled_from(GRID_SIZES))
    return draw(fuzzy_numbers(m=m)), draw(fuzzy_numbers(m=m))


@st.composite
def fuzzy_triples(draw):
    m = draw(st.sampled_from(GRID_SIZES))
    return tuple(draw(fuzzy_numbers(m=m)) for _ in range(3))


@st.composite
def positive_fuzzy_numbers(draw, m: int | None = None):
    """Support strictly above zero, safe for div and reciprocal."""
    if m is None:
        m = draw(st.sampled_from(GRID_SIZES))
    alphas = uniform_alphas(m)
    c = draw(finite(1.0, 100.0))
    s_lo = draw(finite(0.0, 1.0)) * (c - 0.1)
    s_hi = draw(finite(0.0, 50.0))
    dec = 1.0 - alphas
    q = draw(finite(0.25, 3.0))
    return FuzzyNumber(alphas, c - s_lo * dec**q, c + s_hi * dec)


@st.composite
def triangulars(draw, lo: float = -100.0, span: float = 50.0):
    a = draw(finite(lo, -lo))
    b = a + draw(finite(0.0, span))
    c = b + draw(finite(0.0, span))
    return TriangularFuzzy(a, b, c)


def crisp_polynomial(coeffs) -> np.polynomial.Polynomial:
    """The exact scalarization of build_fuzzy_polynomial(coeffs).

    The level sum lo + hi of a term c_i * x^i is (c_L + c_U) * x^i
    whatever the sign of x^i, and for a triangular c_i its integral over
    alpha is (left + 2 peak + right) / 2.  Any rule exact for affine
    integrands (the trapezoid, Simpson at any odd m) gives this exactly.
    """
    return np.polynomial.Polynomial(
        [(c.left + 2.0 * c.peak + c.right) / 2.0 for c in coeffs]
    )


def size_polynomial(coeffs) -> np.polynomial.Polynomial:
    """The size of crisp_polynomial(coeffs)'s summed level terms, with
    coefficients |left| + 2 |peak| + |right|: at |x| it bounds the
    magnitudes that rounding errors in F scale with."""
    return np.polynomial.Polynomial(
        [abs(c.left) + 2.0 * abs(c.peak) + abs(c.right) for c in coeffs]
    )
