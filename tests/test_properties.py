"""Randomized property suites for arithmetic, order, metric, calculus,
and the command line's handling of problem input."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzynewton import (
    FuzzyNumber,
    HukuharaNonexistence,
    InvalidLevelError,
    ScalarizationConfig,
    TriangularFuzzy,
    add,
    build_fuzzy_polynomial,
    comparability_check,
    comparable,
    crisp,
    crisp_lift,
    discretize,
    distance,
    div,
    eval_fuzzy,
    hukuhara_diff,
    leq,
    levels_equal,
    lt,
    mul,
    negate,
    non_dominance_check,
    reciprocal,
    scalar_mul,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    scalarize_many,
    square,
)
from fuzzynewton import cli
from fuzzynewton.fuzzy_core import (
    EQUALITY_TOL,
    _grid,
    _invalid_rows,
    _level_faults,
    _square_lo,
)
from fuzzynewton.level_calculus import _integrate, _quad_weights
from fuzzynewton.problems import (
    BUILTIN_NAMES,
    C0,
    C1,
    C2,
    LIN0,
    LIN1,
    MaxReturnParams,
    ProblemSpec,
    build_max_return_crisp,
    build_max_return_fuzzy,
    grid_search_min,
    parse_problem_config,
    serialize_problem_config,
)
from helpers import (
    GRID_SIZES,
    assert_same_bits,
    assert_valid_fuzzy,
    crisp_polynomial,
    finite,
    fuzzy_numbers,
    fuzzy_pairs,
    fuzzy_triples,
    positive_fuzzy_numbers,
    size_polynomial,
    triangulars,
)

settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile("thorough")

CFG = ScalarizationConfig()


@st.composite
def division_pairs(draw):
    m = draw(st.sampled_from(GRID_SIZES))
    return draw(fuzzy_numbers(m=m)), draw(positive_fuzzy_numbers(m=m))


@st.composite
def near_pairs(draw):
    """a and a with every level moved by at most a few EQUALITY_TOL."""
    a = draw(fuzzy_numbers())
    shift = draw(finite(-3.0 * EQUALITY_TOL, 3.0 * EQUALITY_TOL))
    return a, FuzzyNumber(a.alphas, a.lo + shift, a.hi + shift)


@st.composite
def ordered_pairs(draw):
    """(a, b, quadrature) with leq(a, b) on a grid that quadrature takes:
    b is a shifted by c >= 0, with its upper ends widened by an amount
    that does not grow with alpha."""
    quadrature = draw(st.sampled_from(["trapezoid", "simpson"]))
    m = draw(st.integers(1, 50)) * 2 + 1
    if quadrature == "trapezoid":
        m -= draw(st.integers(0, 1))
    a = draw(fuzzy_numbers(m=m))
    c = draw(finite(0.0, 10.0))
    widen = draw(finite(0.0, 10.0)) * (1.0 - a.alphas) ** draw(
        finite(0.25, 3.0))
    return a, FuzzyNumber(a.alphas, a.lo + c, a.hi + c + widen), quadrature


def tol_for(*numbers: FuzzyNumber) -> float:
    scale = max(
        1.0,
        *(float(np.max(np.abs(a.lo))) for a in numbers),
        *(float(np.max(np.abs(a.hi))) for a in numbers),
    )
    return 1e-9 * scale


class TestArithmeticPreservesInvariants:
    @given(fuzzy_pairs())
    def test_add(self, pair):
        a, b = pair
        assert_valid_fuzzy(add(a, b))

    @given(finite(-50.0, 50.0), fuzzy_numbers())
    def test_scalar_mul(self, c, a):
        assert_valid_fuzzy(scalar_mul(c, a))

    @given(fuzzy_pairs())
    def test_mul(self, pair):
        a, b = pair
        assert_valid_fuzzy(mul(a, b))

    @given(fuzzy_numbers())
    def test_square(self, a):
        assert_valid_fuzzy(square(a))

    @given(division_pairs())
    def test_div(self, pair):
        a, b = pair
        assert_valid_fuzzy(div(a, b))

    @given(positive_fuzzy_numbers())
    def test_reciprocal(self, a):
        assert_valid_fuzzy(reciprocal(a))

    @given(fuzzy_pairs())
    def test_add_commutes(self, pair):
        a, b = pair
        assert levels_equal(add(a, b), add(b, a))

    @given(fuzzy_pairs())
    def test_mul_commutes(self, pair):
        a, b = pair
        assert levels_equal(mul(a, b), mul(b, a), tol=tol_for(a, b))

    @given(finite(-20.0, 20.0), finite(-20.0, 20.0), fuzzy_numbers())
    def test_scalar_mul_composes(self, c1, c2, a):
        lhs = scalar_mul(c1, scalar_mul(c2, a))
        rhs = scalar_mul(c1 * c2, a)
        assert levels_equal(lhs, rhs, tol=max(tol_for(rhs), 1e-6))


class TestOrderAxioms:
    @given(fuzzy_numbers())
    def test_reflexive(self, a):
        assert leq(a, a)
        assert not lt(a, a)

    @given(fuzzy_pairs())
    def test_antisymmetric(self, pair):
        a, b = pair
        if leq(a, b) and leq(b, a):
            assert levels_equal(a, b)

    @given(fuzzy_triples(), finite(0.0, 10.0), finite(0.0, 10.0))
    def test_transitive_on_shifted_chain(self, triple, s1, s2):
        a, _, _ = triple
        b = add(a, crisp(s1, a.m))
        c = add(b, crisp(s2, a.m))
        assert leq(a, b) and leq(b, c) and leq(a, c)

    @given(fuzzy_triples())
    def test_transitive_in_general(self, triple):
        a, b, c = triple
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

    @given(fuzzy_pairs(), finite(-10.0, 10.0))
    def test_translation_preserves_leq(self, pair, s):
        # weak inequalities survive shifting because rounding is monotone;
        # the converse can fail when a tiny gap is absorbed by the shift
        a, b = pair
        shift = crisp(s, a.m)
        if leq(a, b):
            assert leq(add(a, shift), add(b, shift))

    @given(fuzzy_pairs())
    def test_lt_implies_leq_and_not_equal(self, pair):
        a, b = pair
        if lt(a, b):
            assert leq(a, b)
            assert not levels_equal(a, b, tol=0.0)
            assert comparable(a, b)


class TestQuadratureIsMonotone:
    @given(ordered_pairs())
    def test_leq_never_raises_the_scalarization(self, case):
        # F is a quadrature of lo + hi with positive weights, so a <= b in
        # the fuzzy-max order gives F(a) <= F(b), in floating point too:
        # each rounding step is monotone
        a, b, quadrature = case
        assert leq(a, b)
        w = _quad_weights(a.m, quadrature)
        assert _integrate(a.lo, a.hi, w, 0.0) <= _integrate(b.lo, b.hi, w, 0.0)


class TestMetricAxioms:
    @given(fuzzy_numbers())
    def test_identity(self, a):
        assert distance(a, a) == 0.0

    @given(fuzzy_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert distance(a, b) == distance(b, a)

    @given(fuzzy_pairs())
    def test_separates_points(self, pair):
        a, b = pair
        d = distance(a, b)
        assert d >= 0.0
        if levels_equal(a, b, tol=0.0):
            assert d == 0.0
        else:
            assert d > 0.0

    @given(st.one_of(fuzzy_pairs(), near_pairs()))
    def test_levels_equal_is_distance_within_tol(self, pair):
        a, b = pair
        d = distance(a, b)
        for tol in (0.0, EQUALITY_TOL, d, np.nextafter(d, -np.inf)):
            assert levels_equal(a, b, tol) == (d <= tol)

    @given(fuzzy_triples())
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        slack = tol_for(a, b, c)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + slack

    @given(fuzzy_pairs(), finite(-10.0, 10.0))
    def test_translation_invariant(self, pair, s):
        a, b = pair
        shift = crisp(s, a.m)
        d0 = distance(a, b)
        d1 = distance(add(a, shift), add(b, shift))
        assert d1 == pytest.approx(d0, abs=tol_for(a, b) + abs(s) * 1e-12)


class TestHukuhara:
    @given(fuzzy_pairs())
    def test_roundtrip_when_difference_exists(self, pair):
        h0, b = pair
        a = add(h0, b)
        h = hukuhara_diff(a, b)
        assert isinstance(h, FuzzyNumber)
        assert levels_equal(add(h, b), a, tol=tol_for(a, b))

    @given(fuzzy_pairs())
    def test_either_roundtrip_or_verdict(self, pair):
        a, b = pair
        h = hukuhara_diff(a, b)
        if isinstance(h, HukuharaNonexistence):
            assert not h
            assert 0.0 <= h.alpha <= 1.0
            assert h.reason
        else:
            assert levels_equal(add(h, b), a, tol=tol_for(a, b))

    @given(fuzzy_numbers())
    def test_self_difference_is_zero(self, a):
        h = hukuhara_diff(a, a)
        assert isinstance(h, FuzzyNumber)
        assert levels_equal(h, crisp(0.0, a.m), tol=tol_for(a))


class TestSquareVsSelfProduct:
    @given(fuzzy_numbers())
    def test_square_contained_in_product(self, a):
        s, p = square(a), mul(a, a)
        slack = tol_for(a, s)
        assert np.all(s.lo >= p.lo - slack)
        assert np.all(s.hi <= p.hi + slack)


@st.composite
def polynomial_functions(draw):
    coeffs = tuple(
        draw(triangulars(lo=-5.0, span=3.0))
        for _ in range(draw(st.integers(1, 4)))
    )
    return build_fuzzy_polynomial(coeffs)


def reference_fault(lo, hi):
    """The first fault of one row of levels on the uniform grid, as
    (message, alpha), or None for a fuzzy number: the documented rules
    written level by level, apart from fuzzy_core's kernels.  A
    non-finite endpoint comes first; otherwise the lowest alpha, where
    ordering comes before the lower and then the upper nestedness."""
    alphas = _grid(lo.size)
    for a, l, h in zip(alphas, lo, hi):
        if not (math.isfinite(l) and math.isfinite(h)):
            return f"level endpoints must be finite (alpha={a:.6g})", a
    tol = EQUALITY_TOL * max(1.0, *map(abs, lo), *map(abs, hi))
    for i, a in enumerate(alphas):
        if lo[i] > hi[i] + tol:
            return (f"level ordering lo <= hi fails at alpha={a:.6g} "
                    f"({lo[i]} > {hi[i]})"), a
        if i and lo[i] - lo[i - 1] < -tol:
            return ("nestedness fails: lower endpoints decrease at "
                    f"alpha={a:.6g}"), a
        if i and hi[i] - hi[i - 1] > tol:
            return ("nestedness fails: upper endpoints increase at "
                    f"alpha={a:.6g}"), a
    return None


def last_good(bad, v, toward):
    """The float next to the edge of bad, on its good side: bad does not
    hold there and holds one ulp further toward +-inf."""
    while bad(v):
        v = math.nextafter(v, -toward)
    while not bad(math.nextafter(v, toward)):
        v = math.nextafter(v, toward)
    return v


@st.composite
def level_rows(draw, m):
    """One row of levels on the m-point grid, as (lo, hi): a fuzzy
    number, or one with a NaN or an infinity in lo or in hi, or with a
    crossing or a nestedness break exactly at the row's tolerance or
    one ulp past it.

    hi[0] is the largest magnitude S, and every edit stays below it, so
    the tolerance is EQUALITY_TOL * max(1, S) whatever the edit.
    """
    big = draw(finite(0.5, 1e12))
    fractions = st.lists(finite(0.0, 1.0), min_size=m, max_size=m)
    lo = -0.5 * big * np.array(sorted(draw(fractions), reverse=True))
    hi = 0.5 * big * np.array(sorted(draw(fractions), reverse=True))
    hi[0] = big
    tol = EQUALITY_TOL * max(1.0, big)
    kinds = ["valid", "non-finite", "crossing", "lower"] + ["upper"] * (m > 2)
    kind = draw(st.sampled_from(kinds))
    past = draw(st.booleans())
    if kind == "non-finite":
        ends = draw(st.sampled_from([lo, hi]))
        ends[draw(st.integers(0, m - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    elif kind == "crossing":
        # levels j.. collapse to lo = hi[j] + tol, hi = hi[j]
        j = draw(st.integers(1, m - 1))
        h = hi[j]
        v = last_good(lambda v: v > h + tol, h + tol, math.inf)
        lo[j:] = math.nextafter(v, math.inf) if past else v
        hi[j:] = h
    elif kind == "lower":
        j = draw(st.integers(1, m - 1))
        a = lo[j - 1]
        v = last_good(lambda v: v - a < -tol, a - tol, -math.inf)
        lo[j] = math.nextafter(v, -math.inf) if past else v
    elif kind == "upper":
        j = draw(st.integers(2, m - 1))
        b = hi[j - 1]
        v = last_good(lambda v: v - b > tol, b + tol, math.inf)
        hi[j] = math.nextafter(v, math.inf) if past else v
    return lo, hi


@st.composite
def level_blocks(draw):
    """A block of one to four level rows on one grid, shaped (n, m)."""
    m = draw(st.integers(2, 7))
    rows = draw(st.lists(level_rows(m), min_size=1, max_size=4))
    return tuple(np.array(ends) for ends in zip(*rows))


class TestValidityKernel:
    """_invalid_rows decides whether a row is a fuzzy number and
    _level_faults words a rejected row's first fault; both must agree
    with each other and with the level-by-level reference."""

    @given(level_blocks())
    def test_kernel_agrees_with_the_wording_path(self, block):
        lo, hi = block
        worded = np.any(
            [bad.any(axis=-1) for bad in _level_faults(lo, hi)], axis=0
        )
        np.testing.assert_array_equal(_invalid_rows(lo, hi), worded)
        alphas = _grid(lo.shape[1])
        for row_lo, row_hi, bad in zip(lo, hi, worded):
            assert _invalid_rows(row_lo, row_hi) == bad
            fault = reference_fault(row_lo, row_hi)
            assert bad == (fault is not None)
            if fault is None:
                FuzzyNumber(alphas, row_lo, row_hi)
                continue
            with pytest.raises(InvalidLevelError) as err:
                FuzzyNumber(alphas, row_lo, row_hi)
            assert (str(err.value), err.value.alpha) == fault


class TestScalarizationProperties:
    @given(polynomial_functions(), finite(-3.0, 3.0))
    def test_negation_antisymmetry(self, f, x):
        lhs = scalarize(negate(f), x, CFG)
        rhs = -scalarize(f, x, CFG)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(finite(-5.0, 5.0), finite(-5.0, 5.0), finite(-5.0, 5.0),
           finite(-3.0, 3.0))
    def test_crisp_collapse_doubles_g(self, c0, c1, c2, x):
        g = lambda t: np.asarray(c0 + c1 * t + c2 * t * t)
        f = crisp_lift(g)
        assert scalarize(f, x, CFG) == pytest.approx(
            2.0 * float(g(x)), rel=1e-12, abs=1e-12
        )

    @given(polynomial_functions(), st.lists(finite(-3.0, 3.0), min_size=1,
                                            max_size=8))
    def test_scalarize_many_matches_loop(self, f, xs):
        many = scalarize_many(f, np.array(xs), CFG)
        single = [scalarize(f, x, CFG) for x in xs]
        np.testing.assert_allclose(many, single, rtol=0, atol=1e-10)

    @given(polynomial_functions(), finite(-3.0, 3.0),
           st.sampled_from([11, 51, 101]))
    def test_eval_fuzzy_always_valid(self, f, x, m):
        assert_valid_fuzzy(eval_fuzzy(f, x, m))

    @given(triangulars(lo=-10.0, span=5.0), finite(-3.0, 3.0))
    def test_constant_polynomial_scalarizes_to_level_mass(self, t, x):
        f = build_fuzzy_polynomial((t,))
        v = discretize(t, CFG.alpha_points)
        # quadrature of lo+hi equals (left+right)/2 + peak for triangles
        expected = (t.left + t.right) / 2.0 + t.peak
        assert scalarize(f, x, CFG) == pytest.approx(expected, abs=1e-9)
        assert eval_fuzzy(f, x, CFG.alpha_points) == v

    @given(
        st.lists(triangulars(), min_size=1, max_size=5),
        st.lists(finite(-3.0, 3.0), min_size=1, max_size=5),
        st.sampled_from([("simpson", 3), ("simpson", 5), ("simpson", 101),
                         ("trapezoid", 3), ("trapezoid", 4),
                         ("trapezoid", 101)]),
    )
    @example(  # a quartic at negative x, each triple's ends of both signs
        [TriangularFuzzy(-2.0, 0.5, 1.0)] * 5, [-1.5, -0.25],
        ("trapezoid", 4),
    )
    @example(  # subnormal levels: the weighted sum rounds to 0, F is 1e-323
        [TriangularFuzzy(0.0, 5e-324, 5e-324)], [0.0], ("simpson", 3),
    )
    def test_polynomial_matches_its_exact_scalarization(self, coeffs, xs,
                                                        rule):
        quadrature, m = rule
        cfg = ScalarizationConfig(alpha_points=m, quadrature=quadrature)
        f = build_fuzzy_polynomial(coeffs)
        exact = crisp_polynomial(coeffs)
        # the size of the summed terms, which bounds the rounding error
        size = size_polynomial(coeffs)
        # below the smallest normal float rounding is absolute, so the
        # bound has a floor: two subnormal ulps per level summed, scaled
        # by |x|^i as the terms are
        ulps = np.polynomial.Polynomial(
            [2.0 * m * np.finfo(float).smallest_subnormal] * len(coeffs)
        )

        def bound(n, x):
            return 1e-12 * size.deriv(n)(x) + ulps.deriv(n)(x)

        for n, F in enumerate((scalarize, scalarize_d1, scalarize_d2)):
            for x in xs:
                error = abs(F(f, x, cfg) - exact.deriv(n)(x))
                assert error <= bound(n, abs(x)), (n, x)
        xs = np.array(xs)
        errors = np.abs(scalarize_many(f, xs, cfg) - exact(xs))
        assert np.all(errors <= bound(0, np.abs(xs)))

    @given(
        st.lists(triangulars(), min_size=1, max_size=5),
        finite(-3.0, 3.0),
        st.sampled_from([1e-6, 1e-5, 1e-4, 1e-2]),
    )
    def test_finite_differences_match_the_exact_scalarization(
        self, coeffs, x, fd_step
    ):
        # without analytic level derivatives F' and F'' are the central
        # stencil's (F(x+h) - F(x-h)) / 2h and (F(x-h) - 2F(x) + F(x+h)) / h^2
        cfg = ScalarizationConfig(fd_step=fd_step)
        f = dataclasses.replace(build_fuzzy_polynomial(coeffs), d1_lo=None,
                                d1_hi=None, d2_lo=None, d2_hi=None)
        exact = crisp_polynomial(coeffs)
        h = fd_step * max(1.0, abs(x))
        reach = abs(x) + h
        # |F^(n)| on [x - h, x + h] is at most |F|^(n)(|x| + h), where |F|
        # has the absolute coefficients of F
        absolute = np.polynomial.Polynomial(np.abs(exact.coef))
        # each F value is off by a few roundings per term and per level
        # summed, or by subnormal ulps where the terms underflow
        tiny = np.finfo(float).smallest_subnormal * cfg.alpha_points
        delta = (8.0 * np.finfo(float).eps * size_polynomial(coeffs)(reach)
                 + tiny * len(coeffs))
        # truncation h^2/6 F''' and h^2/12 F''''; rounding 2δ/2h and 4δ/h^2
        d1_tol = h * h / 6.0 * absolute.deriv(3)(reach) + delta / h
        d2_tol = h * h / 12.0 * absolute.deriv(4)(reach) + 4.0 * delta / h**2
        assert abs(scalarize_d1(f, x, cfg) - exact.deriv(1)(x)) <= d1_tol
        assert abs(scalarize_d2(f, x, cfg) - exact.deriv(2)(x)) <= d2_tol


class TestGridOracleProperties:
    @given(
        st.lists(triangulars(lo=-5.0, span=3.0), min_size=1, max_size=5),
        st.integers(-192, 128),
        st.integers(1, 64),
        finite(0.0, 1.0),
        finite(0.0, 1.0),
    )
    @example(  # F = -2x falls to b, 1.6 steps from a
        [TriangularFuzzy(0.0, 0.0, 0.0), TriangularFuzzy(-1.0, -1.0, -1.0)],
        0, 1, 0.0, 0.6,
    )
    def test_grid_minimum_matches_the_exact_minimum(self, coeffs, start,
                                                    points, a_off, b_off):
        # each end a whole number of steps or a fraction of one off it
        step = 1.0 / 64.0
        a, b = (start + a_off) * step, (start + points + b_off) * step
        f = build_fuzzy_polynomial(coeffs)
        exact = crisp_polynomial(coeffs)
        xg = grid_search_min(f, (a, b), CFG, step=step)
        assert a <= xg <= b
        # F's least value on [a, b] is at an end or a root of F'; the real
        # part of a complex root is one more point of the bracket, which
        # can raise the least candidate value but never hide the minimum
        roots = np.roots(exact.deriv().coef[::-1]).real
        candidates = [a, b, *roots[(a <= roots) & (roots <= b)]]
        least = min(exact(c) for c in candidates)
        # the grid's gaps are at most a step, so some grid point lies
        # within step/2 of the minimizer; and |F'| <= |F|'(max(|a|, |b|))
        # on the bracket
        far = max(abs(a), abs(b))
        reach = step / 2.0 * np.polynomial.Polynomial(
            np.abs(exact.coef)).deriv()(far)
        # exact F rounds as the summed terms do, with a floor for
        # subnormal coefficients
        rounding = 1e-12 * size_polynomial(coeffs)(far) + 1e-300
        assert least - rounding <= exact(xg) <= least + reach + rounding


def old_square_lo(lo, hi):
    """The lower end of the dependent square as two nested np.where."""
    return np.where(lo >= 0.0, lo * lo, np.where(hi <= 0.0, hi * hi, 0.0))


def old_fuzzy_levels(va, rho, x, a):
    """max_return_fuzzy's (lo, hi) as written with every x a float array
    and the upper end as the larger of both squared residual ends."""
    x = np.asarray(x, float)
    (vl, vu), (rho_l, rho_u) = va.cut(a), rho.cut(a)
    c = (C2 * x + C1) * x + C0
    rl, ru = c - vu, c - vl
    return (LIN1 * x + LIN0 + rho_l / (vu * vu) * old_square_lo(rl, ru),
            LIN1 * x + LIN0 + rho_u / (vl * vl) * np.maximum(rl * rl, ru * ru))


def old_crisp_levels(va, rho, x, a):
    """max_return_crisp's level, d1 and d2 maps, lifted, as written with
    every x a float array."""
    x = np.asarray(x, float)
    v = va.peak
    k = np.divide(rho.peak, v * v)
    r = (C2 * x + C1) * x + C0 - v
    cp = 2.0 * C2 * x + C1
    return [np.asarray(g) + 0.0 * a for g in (
        LIN1 * x + LIN0 + k * r * r,
        LIN1 + 2.0 * k * r * cp,
        2.0 * k * (cp * cp + r * (2.0 * C2)),
    )]


@st.composite
def positive_triangulars(draw, least: float, most: float):
    """A TriangularFuzzy whose left end lies in [least, most], each side
    at most as wide as that end."""
    left = draw(finite(least, most))
    peak = left + draw(finite(0.0, left))
    return TriangularFuzzy(left, peak, peak + draw(finite(0.0, left)))


# Special values for the interval square: signed zeros and infinities,
# NaN, the least subnormal, the least normal, values whose squares
# underflow or overflow, and plain ones; every (lo, hi) pair of them is
# taken, inverted intervals among them.
SQUARE_EDGES = np.array([
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308,
    -2.2e-308, 1e-160, -1e-160, 1.5, -2.5, 1e200, -1e200,
])


class TestReturnRiskMapsKeepTheirBits:
    """A float x stays a Python float in the return-risk maps, the
    interval square takes np.fmin and the upper end squares one residual;
    each gives the bits of the form it replaced, for x given in any form.
    Mutating fmin to minimum in _square_lo fails the special values (a
    NaN hi over a negative lo gives NaN, not 0)."""

    @given(
        positive_triangulars(1e-4, 1e-2), positive_triangulars(0.1, 5.0),
        finite(-3.0, 3.0), st.lists(finite(-3.0, 3.0), min_size=1, max_size=5),
        st.sampled_from([11, 101, 1001]),
    )
    def test_maps_match_the_array_formulas(self, va, rho, x, column, m):
        a = _grid(m)
        fuzzy = build_max_return_fuzzy(MaxReturnParams(Va=va, rho=rho))
        crisp = build_max_return_crisp(MaxReturnParams(Va=va, rho=rho))
        for form in (x, np.float64(x), round(x), np.array(x),
                     np.array(column)[:, None]):
            want_lo, want_hi = old_fuzzy_levels(va, rho, form, a)
            assert_same_bits(fuzzy.level_lo(form, a), want_lo)
            assert_same_bits(fuzzy.level_hi(form, a), want_hi)
            for prefix, want in zip(("level", "d1", "d2"),
                                    old_crisp_levels(va, rho, form, a)):
                for side in ("lo", "hi"):
                    assert_same_bits(
                        getattr(crisp, f"{prefix}_{side}")(form, a), want
                    )

    def test_square_lo_on_special_values(self):
        lo, hi = np.meshgrid(SQUARE_EDGES, SQUARE_EDGES)
        with np.errstate(over="ignore", under="ignore"):
            assert_same_bits(_square_lo(lo, hi), old_square_lo(lo, hi))
            for pair in zip(lo.ravel(), hi.ravel()):
                assert_same_bits(_square_lo(*pair), old_square_lo(*pair))

    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1))
    def test_square_lo_on_any_floats(self, pairs):
        lo, hi = np.array(pairs).T
        with np.errstate(over="ignore", under="ignore"):
            assert_same_bits(_square_lo(lo, hi), old_square_lo(lo, hi))


def first_witness_by_sample(f, x0, xs, reach, m, is_witness):
    """Reference for the batched checks: evaluate, validate and compare
    one sample at a time; (index of the first witness or None, samples
    compared)."""
    base = eval_fuzzy(f, x0, m)
    coincident = 1e-12 * max(1.0, abs(x0), reach)
    used = 0
    for i, x in enumerate(xs):
        if abs(x - x0) <= coincident or not f.contains(x):
            continue
        used += 1
        if is_witness(eval_fuzzy(f, float(x), m), base):
            return i, used
    return None, used


@st.composite
def checked_points(draw):
    """A fuzzy polynomial on a domain around x0, a neighbourhood that may
    reach past the domain, a sample count and a grid size."""
    f = draw(polynomial_functions())
    x0 = draw(finite(-2.0, 2.0))
    left, right = draw(finite(0.0, 0.5)), draw(finite(0.0, 0.5))
    f = dataclasses.replace(f, domain=(x0 - left, x0 + right))
    nbhd = draw(st.sampled_from([1e-13, 1e-3, 0.05, 0.3]))
    samples = draw(st.sampled_from([1, 2, 7, 25]))
    return f, x0, nbhd, samples, draw(st.sampled_from([5, 21, 101]))


class TestBatchedChecksMatchPerSampleLoop:
    @given(checked_points())
    def test_non_dominance(self, case):
        f, x0, nbhd, samples, m = case
        verdict = non_dominance_check(f, x0, nbhd, samples, m)
        grid = np.linspace(x0 - nbhd, x0 + nbhd, samples)
        i, used = first_witness_by_sample(f, x0, grid, nbhd, m, lt)
        assert verdict.samples == used
        assert verdict.dominated == (i is not None)
        assert verdict.dominator == (None if i is None else grid[i])

    @given(checked_points(), st.sampled_from([+1.0, -1.0]))
    def test_comparability(self, case, d):
        f, x0, delta, samples, m = case
        rep = comparability_check(f, x0, d, delta, samples, m)
        lams = np.linspace(0.0, delta, samples + 2)[1:-1]
        i, used = first_witness_by_sample(
            f, x0, x0 + lams * d, delta, m,
            lambda value, base: not comparable(value, base),
        )
        assert rep.samples == used
        assert rep.ok == (i is None and used > 0)
        assert rep.witness == (None if i is None else lams[i])


KINDS = BUILTIN_NAMES + ("fuzzy_polynomial",)
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ProblemSpec))

positive = st.floats(1e-6, 10.0)
# A valid Va or rho, as JSON and as a parameter value.
json_params = positive | st.lists(positive, min_size=3, max_size=3).map(
    sorted
)
params = json_params.map(
    lambda v: TriangularFuzzy(*v) if isinstance(v, list) else v
)


@st.composite
def problem_specs(draw):
    """A valid ProblemSpec of any kind, each optional key present or not."""
    kind = draw(st.sampled_from(KINDS))
    required, optional = {}, {
        "domain": st.lists(st.floats(allow_nan=False), min_size=2,
                           max_size=2).map(lambda d: tuple(sorted(d))),
        "sense": st.sampled_from(["minimize", "maximize"]),
        "x0": st.floats(allow_nan=False, allow_infinity=False),
        "eps": st.floats(1e-12, 1.0),
        "alpha_points": st.integers(1, 20).map(lambda k: 2 * k + 1),
    }
    if kind == "fuzzy_polynomial":
        required["coefficients"] = st.lists(
            triangulars(), min_size=1, max_size=4
        ).map(tuple)
    elif kind != "example_4_1":
        optional["params"] = st.builds(MaxReturnParams, Va=params, rho=params)
    fields = draw(st.fixed_dictionaries(required, optional=optional))
    return ProblemSpec(kind=kind, **fields)


@given(problem_specs())
def test_config_round_trip(spec):
    assert parse_problem_config(serialize_problem_config(spec)) == spec


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def any_value(key):
    """Any JSON value for a config key.  A large alpha_points allocates a
    grid of that many levels, so the integers drawn for it stay small."""
    if key == "alpha_points":
        return st.integers(-3, 41) | json_values.filter(
            lambda v: type(v) is not int
        )
    return json_values


@st.composite
def altered(draw, valid, keys):
    """A dict drawn from valid with up to two of keys dropped or given
    any JSON value, so that each draw reaches past the other checks."""
    data = draw(valid)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if draw(st.booleans()):
            data.pop(key, None)
        else:
            data[key] = draw(any_value(key))
    return data


configs = altered(
    problem_specs().map(serialize_problem_config).map(json.loads),
    CONFIG_KEYS,
)
sweep_rows = altered(
    st.fixed_dictionaries({"Va": json_params, "rho": json_params}),
    ("Va", "rho", "sigma"),
) | json_values
param_flags = st.text(max_size=12) | st.one_of(
    json_params.map(lambda v: v if isinstance(v, list) else [v]),
    st.lists(st.integers(-3, 3) | st.floats(), min_size=1, max_size=4),
).map(lambda xs: ",".join(map(str, xs)))


def run_cli(*argv):
    """cli.main's exit code and stderr, with warnings ignored: the suite
    turns them into errors, which the command line does not (say, a numpy
    overflow warning at x0 = 1e300).  Each solve stops after 3 steps."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = cli.main([*argv, "--max-iter", "3"])
    return code, err.getvalue()


def assert_exit_contract(code, err):
    assert code in (0, 1, 2, 3)
    if code == 1:
        lines = err.splitlines()
        assert lines[0].startswith("error: ")
        assert sum(line.startswith("error:") for line in lines) == 1


@pytest.fixture(scope="module")
def input_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "input.json")


class TestNoTracebackFromInput:
    """Any problem input ends in an exit code and, for exit 1, one error
    line; never in an exception."""

    @settings(max_examples=150)
    @given(configs)
    @example({"kind": "example_4_1", "x0": [1]})
    @example({"kind": ["example_4_1"]})
    def test_config(self, input_file, config):
        with open(input_file, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert_exit_contract(*run_cli("solve", "--problem", input_file))

    @settings(max_examples=60)
    @given(st.lists(sweep_rows, max_size=3))
    def test_sweep_rows(self, input_file, rows):
        with open(input_file, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        assert_exit_contract(*run_cli("table", "--sweep", input_file))

    @settings(max_examples=100)
    @given(st.sampled_from(["--Va", "--rho"]), param_flags)
    @example("--Va", "1.3919927888207968e-294")
    def test_param_flags(self, flag, text):
        assert_exit_contract(
            *run_cli("solve", "--problem", "max_return_crisp", flag, text)
        )
