"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from fuzzynewton import (
    DomainError,
    FuzzyNumber,
    TriangularFuzzy,
    comparability_check,
    non_dominance_check,
    uniform_alphas,
)
from fuzzynewton.fuzzy_core import _square_lo
from fuzzynewton.level_calculus import _Point
from fuzzynewton.newton_solver import VerificationReport, _stat_tol
from fuzzynewton.problems import C0, C1, C2, LIN0, LIN1

GRID_SIZES = (5, 11, 21, 41, 101)


def finite(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak bytes over one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_bits(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def old_crisp_level(g, x, a):
    """crisp_lift's level map as first written: g(x) plus a fresh
    0.0 * alpha row on every call."""
    return np.asarray(g(x)) + 0.0 * np.asarray(a)


def old_polynomial_level(coeffs, order, lower, x, a):
    """build_fuzzy_polynomial's map of one end of the order-th
    x-derivative as written with a map per end: each end takes its own
    powers, sign test and factor per term."""
    scalar = isinstance(x, float)
    x = np.asarray(x, float)
    powers = [float(x**i) if scalar else x**i for i in range(len(coeffs))]
    out = np.zeros(np.shape(a) if scalar else np.broadcast(x, a).shape)
    for i, c in enumerate(coeffs[order:], order):
        cl, cu = c.cut(a)
        if not lower:
            cl, cu = cu, cl
        if scalar:
            cut = cl if powers[i] >= 0.0 else cu
        else:
            pos = powers[i] >= 0.0
            n = np.count_nonzero(pos)
            cut = (cl if n == pos.size else cu if n == 0
                   else np.where(pos, cl, cu))
        out += cut * (math.perm(i, order) * powers[i - order])
    return out


def old_return_risk_levels(va, rho, x, a):
    """build_max_return_fuzzy's level_lo and level_hi as written with a
    map per end, one after the other."""
    (vl, vu), (rho_l, rho_u) = va.cut(a), rho.cut(a)
    x = x if isinstance(x, float) else np.asarray(x, float)
    c = (C2 * x + C1) * x + C0
    t = _square_lo(c - vu, c - vl)
    t *= rho_l / (vu * vu)
    t += LIN1 * x + LIN0
    r = np.maximum(vu - c, c - vl)
    r *= r
    r *= rho_u / (vl * vl)
    r += LIN1 * x + LIN0
    return t, r


def assembled_report(f, x, cfg, nbhd, samples) -> VerificationReport:
    """check_point's report at x taken apart: the level slopes, F' and
    F'' of a _Point, which fetches each stencil point for itself, and
    the three public sampling checks, each fetching its own column."""
    point = _Point(f, x, cfg.scal)
    try:
        level_d1_max = point.level_d1_max()
    except DomainError:
        # no stencil fits: with analytic F' and F'' only the level slopes
        # are not available
        if not (f.has_analytic_d1 and f.has_analytic_d2):
            raise
        level_d1_max = math.nan
    d1, d2 = point.d1(), point.d2()
    m = cfg.scal.alpha_points
    return VerificationReport(
        xstar=x,
        d1=d1,
        d2=d2,
        stat_tol=_stat_tol(cfg.eps, d2),
        level_d1_max=level_d1_max,
        non_dominance=non_dominance_check(f, x, nbhd, samples, m),
        comp_plus=comparability_check(f, x, +1.0, nbhd, samples, m),
        comp_minus=comparability_check(f, x, -1.0, nbhd, samples, m),
    )


def report_bits(rep: VerificationReport) -> tuple:
    """A VerificationReport with its floats as their bits, so that equal
    means bit for bit, NaN included."""
    return (
        *(float(v).hex() for v in
          (rep.xstar, rep.d1, rep.d2, rep.stat_tol, rep.level_d1_max)),
        rep.non_dominance, rep.comp_plus, rep.comp_minus,
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


# 30-point Gauss-Legendre nodes and weights on [-1, 1]
_GAUSS_LEGENDRE = np.polynomial.legendre.leggauss(30)


def return_risk_continuum(va: TriangularFuzzy, rho: TriangularFuzzy,
                          x: float) -> float:
    """The continuum scalarization of build_max_return_fuzzy at x, the
    integral over [0, 1] of lo + hi, written apart from the package's
    level maps and quadrature.

    With the residual r = [c(x) - V_U, c(x) - V_L], lo + hi is
    2 (LIN1 x + LIN0) + rho_L / V_U^2 min r^2 + rho_U / V_L^2 max r^2,
    min r^2 being 0 where r holds 0.  Its kinks in alpha lie where c(x)
    meets V_L, V_U or their midpoint, each linear in alpha for a
    triangular Va: [0, 1] is split there, and each smooth piece takes
    30-point Gauss-Legendre (Davis & Rabinowitz, Methods of Numerical
    Integration).
    """
    c = (C2 * x + C1) * x + C0
    kinks = {0.0, 1.0}
    # each of V_L, V_U and the midpoint as start + alpha (peak - start)
    for start in (va.left, va.right, (va.left + va.right) / 2.0):
        if va.peak != start and 0.0 < (c - start) / (va.peak - start) < 1.0:
            kinks.add((c - start) / (va.peak - start))
    edges = sorted(kinks)
    nodes, weights = _GAUSS_LEGENDRE
    total = 0.0
    for a0, a1 in zip(edges[:-1], edges[1:]):
        alpha = a0 + (a1 - a0) * (nodes + 1.0) / 2.0
        (vl, vu), (rho_l, rho_u) = va.cut(alpha), rho.cut(alpha)
        rl, ru = c - vu, c - vl
        least = np.where(rl > 0.0, rl * rl,
                         np.where(ru < 0.0, ru * ru, 0.0))
        most = np.maximum(rl * rl, ru * ru)
        level_sum = (2.0 * (LIN1 * x + LIN0) + rho_l / (vu * vu) * least
                     + rho_u / (vl * vl) * most)
        total += (a1 - a0) / 2.0 * float(weights @ level_sum)
    return total


def golden_section_min(F, a: float, b: float, tol: float = 1e-12) -> float:
    """The minimizer of a unimodal F on [a, b], to within tol."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = F(c), F(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = F(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = F(d)
    return (a + b) / 2.0
