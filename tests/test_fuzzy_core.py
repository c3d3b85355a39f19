"""Unit tests for interval/level containers and fuzzy arithmetic."""

import math

import numpy as np
import pytest

from fuzzynewton import (
    FuzzyNumber,
    GridMismatchError,
    HukuharaNonexistence,
    Interval,
    InvalidLevelError,
    SingularLevelError,
    TriangularFuzzy,
    add,
    alpha_cut,
    comparable,
    crisp,
    discretize,
    distance,
    div,
    fuzzy_from_record,
    fuzzy_to_record,
    hukuhara_diff,
    leq,
    levels_equal,
    lt,
    mul,
    reciprocal,
    scalar_mul,
    square,
    triangular_from_record,
    triangular_to_record,
    uniform_alphas,
)
from fuzzynewton.errors import DomainError


def tri(a, b, c, m=11):
    return discretize(TriangularFuzzy(a, b, c), m)


class TestInterval:
    def test_holds_endpoints(self):
        iv = Interval(-1.0, 2.0)
        assert iv.lo == -1.0 and iv.hi == 2.0
        assert iv.width == 3.0
        assert iv.midpoint() == 0.5

    def test_degenerate_allowed(self):
        assert Interval(1.5, 1.5).width == 0.0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidLevelError):
            Interval(1.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidLevelError):
            Interval(float("nan"), 1.0)
        with pytest.raises(InvalidLevelError):
            Interval(0.0, float("inf"))

    def test_frozen(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.lo = 2.0


class TestTriangular:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidLevelError):
            TriangularFuzzy(2.0, 1.0, 3.0)
        with pytest.raises(InvalidLevelError):
            TriangularFuzzy(0.0, 2.0, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", range(3))
    def test_non_finite_vertex_rejected(self, bad, where):
        vertices = [-1.0, 0.5, 4.0]
        vertices[where] = bad
        with pytest.raises(InvalidLevelError, match="must be finite"):
            TriangularFuzzy(*vertices)

    def test_alpha_cut_endpoints(self):
        t = TriangularFuzzy(-1.0, 0.5, 4.0)
        assert alpha_cut(t, 0.0) == Interval(-1.0, 4.0)
        assert alpha_cut(t, 1.0) == Interval(0.5, 0.5)
        mid = alpha_cut(t, 0.5)
        assert mid.lo == pytest.approx(-0.25)
        assert mid.hi == pytest.approx(2.25)

    def test_alpha_cut_outside_unit_interval(self):
        t = TriangularFuzzy(0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            alpha_cut(t, -0.01)
        with pytest.raises(DomainError):
            alpha_cut(t, 1.01)


class TestFuzzyNumber:
    def test_uniform_alphas(self):
        a = uniform_alphas(5)
        np.testing.assert_allclose(a, [0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(InvalidLevelError):
            uniform_alphas(1)

    def test_discretize_matches_cuts(self):
        t = TriangularFuzzy(-2.0, 1.0, 5.0)
        a = discretize(t, 21)
        for i, alpha in enumerate(a.alphas):
            cut = alpha_cut(t, float(alpha))
            assert a.lo[i] == pytest.approx(cut.lo)
            assert a.hi[i] == pytest.approx(cut.hi)

    def test_crisp_levels_collapse(self):
        c = crisp(3.5, 7)
        assert np.all(c.lo == 3.5) and np.all(c.hi == 3.5)
        assert c.support() == Interval(3.5, 3.5)

    def test_support_and_core(self):
        a = tri(-1.0, 0.0, 2.0)
        assert a.support() == Interval(-1.0, 2.0)
        assert a.core() == Interval(0.0, 0.0)

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(InvalidLevelError):
            FuzzyNumber(np.array([0.0, 0.3, 1.0]), np.zeros(3), np.ones(3))
        # read-only and the size of a shared grid, but not that grid
        tri(0.0, 1.0, 2.0, m=3)
        alphas = np.array([0.0, 0.3, 1.0])
        alphas.flags.writeable = False
        with pytest.raises(InvalidLevelError):
            FuzzyNumber(alphas, np.zeros(3), np.ones(3))

    def test_crossed_levels_rejected_with_alpha(self):
        alphas = uniform_alphas(5)
        lo = np.array([0.0, 0.2, 3.0, 0.6, 0.8])
        hi = np.full(5, 2.0)
        with pytest.raises(InvalidLevelError) as err:
            FuzzyNumber(alphas, lo, hi)
        assert "alpha" in str(err.value)

    def test_non_nested_levels_rejected(self):
        alphas = uniform_alphas(5)
        with pytest.raises(InvalidLevelError):
            FuzzyNumber(alphas, np.array([0.0, 0.5, 0.4, 0.6, 0.7]),
                        np.ones(5))
        with pytest.raises(InvalidLevelError):
            FuzzyNumber(alphas, np.zeros(5),
                        np.array([1.0, 1.0, 1.2, 1.0, 1.0]))

    def test_immutable(self):
        a = tri(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            a.lo[0] = 9.0
        with pytest.raises(AttributeError):
            a.lo = np.zeros(11)

    def test_source_arrays_not_frozen(self):
        alphas = uniform_alphas(3)
        lo = np.array([0.0, 0.5, 1.0])
        hi = np.array([2.0, 1.5, 1.0])
        FuzzyNumber(alphas, lo, hi)
        lo[0] = -1.0  # caller arrays stay writable

    def test_equality_and_hash(self):
        a = tri(0.0, 1.0, 2.0)
        b = tri(0.0, 1.0, 2.0)
        assert a.alphas is b.alphas  # the shared grid
        assert a == b and hash(a) == hash(b)
        c = FuzzyNumber(uniform_alphas(11), a.lo, a.hi)
        assert c.alphas is not a.alphas
        assert a == c and hash(a) == hash(c)
        assert a != tri(0.0, 1.0, 2.5)
        assert a != tri(0.0, 1.0, 2.0, m=21)

    def test_numbers_equal_within_tolerance_hash_equally(self):
        a = tri(0.0, 1.0, 2.0)
        b = FuzzyNumber(a.alphas, a.lo + 1e-13, a.hi + 1e-13)
        assert float(a.lo[0]) != float(b.lo[0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestArithmetic:
    def test_add_is_endpointwise(self):
        a, b = tri(0.0, 1.0, 2.0), tri(-3.0, -1.0, 4.0)
        s = add(a, b)
        np.testing.assert_allclose(s.lo, a.lo + b.lo)
        np.testing.assert_allclose(s.hi, a.hi + b.hi)

    def test_add_matches_triangular_closed_form(self):
        s = add(tri(0.0, 1.0, 2.0), tri(1.0, 2.0, 3.0))
        assert levels_equal(s, tri(1.0, 3.0, 5.0))

    def test_add_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            add(tri(0.0, 1.0, 2.0, m=5), tri(0.0, 1.0, 2.0, m=7))

    def test_scalar_mul_positive(self):
        a = tri(-1.0, 0.0, 2.0)
        s = scalar_mul(3.0, a)
        assert levels_equal(s, tri(-3.0, 0.0, 6.0))

    def test_scalar_mul_negative_flips(self):
        a = tri(-1.0, 0.0, 2.0)
        s = scalar_mul(-2.0, a)
        assert levels_equal(s, tri(-4.0, 0.0, 2.0))

    def test_scalar_mul_zero(self):
        assert levels_equal(scalar_mul(0.0, tri(1.0, 2.0, 3.0)),
                            crisp(0.0, 11))

    def test_mul_positive_operands(self):
        a, b = tri(1.0, 2.0, 3.0), tri(2.0, 4.0, 5.0)
        p = mul(a, b)
        np.testing.assert_allclose(p.lo, a.lo * b.lo)
        np.testing.assert_allclose(p.hi, a.hi * b.hi)

    def test_mul_is_minmax_of_products(self):
        a, b = tri(-2.0, 1.0, 3.0), tri(-4.0, -1.0, 2.0)
        p = mul(a, b)
        for i in range(a.m):
            prods = [a.lo[i] * b.lo[i], a.lo[i] * b.hi[i],
                     a.hi[i] * b.lo[i], a.hi[i] * b.hi[i]]
            assert p.lo[i] == pytest.approx(min(prods))
            assert p.hi[i] == pytest.approx(max(prods))

    def test_div_positive(self):
        q = div(tri(2.0, 4.0, 8.0), tri(1.0, 2.0, 4.0))
        np.testing.assert_allclose(q.lo[-1], 2.0)
        assert q.lo[0] == pytest.approx(0.5)
        assert q.hi[0] == pytest.approx(8.0)

    def test_div_zero_straddling_divisor(self):
        with pytest.raises(SingularLevelError) as err:
            div(tri(1.0, 2.0, 3.0), tri(-1.0, 0.5, 2.0))
        assert "alpha" in str(err.value)

    def test_square_nonnegative(self):
        a = tri(1.0, 2.0, 3.0)
        s = square(a)
        np.testing.assert_allclose(s.lo, a.lo**2)
        np.testing.assert_allclose(s.hi, a.hi**2)

    def test_square_nonpositive(self):
        a = tri(-3.0, -2.0, -1.0)
        s = square(a)
        np.testing.assert_allclose(s.lo, a.hi**2)
        np.testing.assert_allclose(s.hi, a.lo**2)

    def test_square_straddling_zero(self):
        a = tri(-1.0, 0.5, 2.0)
        s = square(a)
        assert s.lo[0] == 0.0
        assert s.hi[0] == pytest.approx(4.0)
        assert s.lo[-1] == pytest.approx(0.25)

    def test_square_tighter_than_self_product(self):
        a = tri(-1.0, 0.5, 2.0)
        s, p = square(a), mul(a, a)
        assert np.all(s.lo >= p.lo - 1e-12)
        assert np.all(s.hi <= p.hi + 1e-12)
        assert p.lo[0] == pytest.approx(-2.0)  # a*a allows cross terms

    def test_reciprocal(self):
        r = reciprocal(tri(1.0, 2.0, 4.0))
        assert r.lo[0] == pytest.approx(0.25)
        assert r.hi[0] == pytest.approx(1.0)
        assert r.lo[-1] == pytest.approx(0.5)

    def test_reciprocal_through_zero(self):
        with pytest.raises(SingularLevelError):
            reciprocal(tri(-1.0, 0.0, 1.0))


# One triangle per sign case: positive, negative and straddling zero.
SIGNED = {
    "positive": (0.5, 2.0, 3.5),
    "negative": (-4.0, -1.5, -0.25),
    "straddling": (-1.25, 0.5, 3.0),
}


def four_products(a, b, op):
    """op applied to each pair of endpoints, written out level by level."""
    return [op(a.lo, b.lo), op(a.lo, b.hi), op(a.hi, b.lo), op(a.hi, b.hi)]


class TestArithmeticExact:
    """Each operation equals its endpoint formula bit for bit."""

    @pytest.mark.parametrize("sa", SIGNED)
    @pytest.mark.parametrize("sb", SIGNED)
    def test_mul_is_the_four_product_hull(self, sa, sb):
        a, b = tri(*SIGNED[sa], m=21), tri(*SIGNED[sb], m=21)
        p = mul(a, b)
        ends = four_products(a, b, lambda u, v: u * v)
        np.testing.assert_array_equal(
            p.lo, np.minimum(np.minimum(ends[0], ends[1]),
                             np.minimum(ends[2], ends[3])))
        np.testing.assert_array_equal(
            p.hi, np.maximum(np.maximum(ends[0], ends[1]),
                             np.maximum(ends[2], ends[3])))

    def test_mul_sign_cases_pick_known_endpoints(self):
        pos, neg = tri(*SIGNED["positive"]), tri(*SIGNED["negative"])
        p = mul(pos, pos)
        np.testing.assert_array_equal(p.lo, pos.lo * pos.lo)
        np.testing.assert_array_equal(p.hi, pos.hi * pos.hi)
        p = mul(neg, neg)
        np.testing.assert_array_equal(p.lo, neg.hi * neg.hi)
        np.testing.assert_array_equal(p.hi, neg.lo * neg.lo)
        p = mul(pos, neg)
        np.testing.assert_array_equal(p.lo, pos.hi * neg.lo)
        np.testing.assert_array_equal(p.hi, pos.lo * neg.hi)

    @pytest.mark.parametrize("sa", SIGNED)
    @pytest.mark.parametrize("sb", ["positive", "negative"])
    def test_div_is_the_four_quotient_hull(self, sa, sb):
        a, b = tri(*SIGNED[sa], m=21), tri(*SIGNED[sb], m=21)
        q = div(a, b)
        ends = four_products(a, b, lambda u, v: u / v)
        np.testing.assert_array_equal(
            q.lo, np.minimum(np.minimum(ends[0], ends[1]),
                             np.minimum(ends[2], ends[3])))
        np.testing.assert_array_equal(
            q.hi, np.maximum(np.maximum(ends[0], ends[1]),
                             np.maximum(ends[2], ends[3])))

    def test_div_by_positive_of_positive(self):
        a, b = tri(*SIGNED["positive"]), tri(1.0, 2.0, 4.0)
        q = div(a, b)
        np.testing.assert_array_equal(q.lo, a.lo / b.hi)
        np.testing.assert_array_equal(q.hi, a.hi / b.lo)

    @pytest.mark.parametrize("sa", SIGNED)
    def test_square_is_the_dependent_image(self, sa):
        a = tri(*SIGNED[sa], m=21)
        s = square(a)
        lo2, hi2 = a.lo * a.lo, a.hi * a.hi
        if sa == "positive":
            expected_lo = lo2
        elif sa == "negative":
            expected_lo = hi2
        else:
            # [L^2, U^2] once the level is above 0, 0 while it straddles
            expected_lo = np.where(a.lo >= 0.0, lo2, 0.0)
            assert expected_lo[0] == 0.0 and expected_lo[-1] > 0.0
        np.testing.assert_array_equal(s.lo, expected_lo)
        np.testing.assert_array_equal(s.hi, np.maximum(lo2, hi2))

    @pytest.mark.parametrize("sa", ["positive", "negative"])
    def test_reciprocal_swaps_the_endpoints(self, sa):
        a = tri(*SIGNED[sa], m=21)
        r = reciprocal(a)
        np.testing.assert_array_equal(r.lo, 1.0 / a.hi)
        np.testing.assert_array_equal(r.hi, 1.0 / a.lo)

    @pytest.mark.parametrize("divisor", [
        SIGNED["straddling"], (0.0, 1.0, 2.0), (-2.0, -1.0, 0.0),
    ])
    def test_singular_divisor_message_and_alpha(self, divisor):
        # nested levels: a level holding 0 means the support holds it
        with pytest.raises(SingularLevelError) as err:
            div(tri(*SIGNED["positive"]), tri(*divisor))
        assert str(err.value) == "divisor level contains 0 at alpha=0"
        assert err.value.alpha == 0.0

    @pytest.mark.parametrize("a", [
        SIGNED["straddling"], (0.0, 1.0, 2.0), (-2.0, -1.0, 0.0),
    ])
    def test_singular_reciprocal_message_and_alpha(self, a):
        with pytest.raises(SingularLevelError) as err:
            reciprocal(tri(*a))
        assert str(err.value) == "level contains 0 at alpha=0"
        assert err.value.alpha == 0.0

    def test_div_checks_the_grid_before_the_zero_level(self):
        with pytest.raises(GridMismatchError):
            div(tri(*SIGNED["positive"], m=5),
                tri(*SIGNED["straddling"], m=7))


class TestOrderAndMetric:
    def test_leq_on_shifted_copies(self):
        a = tri(0.0, 1.0, 2.0)
        b = add(a, crisp(0.5, 11))
        assert leq(a, b) and not leq(b, a)
        assert lt(a, b) and not lt(b, a)
        assert comparable(a, b)

    def test_leq_reflexive_not_strict(self):
        a = tri(0.0, 1.0, 2.0)
        assert leq(a, a) and not lt(a, a)

    def test_incomparable_crossing_levels(self):
        a = tri(0.0, 2.0, 4.0)
        b = tri(1.0, 2.0, 3.0)  # nested supports cross endpoint order
        assert not leq(a, b) and not leq(b, a)
        assert not comparable(a, b)

    def test_distance_zero_iff_equal(self):
        a = tri(0.0, 1.0, 2.0)
        assert distance(a, a) == 0.0
        assert distance(a, tri(0.0, 1.0, 2.5)) > 0.0

    def test_distance_known_value(self):
        a, b = tri(0.0, 1.0, 2.0), tri(0.5, 1.0, 4.0)
        # widest endpoint gap sits at alpha=0 on the upper branch
        assert distance(a, b) == pytest.approx(2.0)

    def test_distance_symmetric(self):
        a, b = tri(0.0, 1.0, 2.0), tri(-5.0, 0.0, 1.0)
        assert distance(a, b) == distance(b, a)

    def test_distance_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            distance(tri(0.0, 1.0, 2.0, m=5), tri(0.0, 1.0, 2.0, m=9))


class TestHukuhara:
    def test_exact_recovery(self):
        b = tri(0.0, 1.0, 2.0)
        a = add(tri(4.0, 5.0, 7.0), b)
        h = hukuhara_diff(a, b)
        assert isinstance(h, FuzzyNumber)
        assert levels_equal(add(h, b), a)

    def test_crisp_difference(self):
        a, b = tri(1.0, 2.0, 3.0), tri(0.0, 1.0, 2.0)
        h = hukuhara_diff(a, b)
        assert isinstance(h, FuzzyNumber)
        assert levels_equal(h, crisp(1.0, 11))

    def test_nonexistent_when_subtrahend_wider(self):
        a = tri(0.0, 1.0, 2.0)
        b = tri(-5.0, 1.0, 7.0)
        verdict = hukuhara_diff(a, b)
        assert isinstance(verdict, HukuharaNonexistence)
        assert not verdict
        assert 0.0 <= verdict.alpha <= 1.0
        assert verdict.reason

    def test_verdict_cites_the_lowest_violated_alpha(self):
        alphas = uniform_alphas(5)
        # the difference has lower endpoints that decrease at alpha 0.25
        # and an ordering failure (lo > hi) only at alpha 1
        a = FuzzyNumber(alphas, [0.0, 0.0, 0.5, 0.5, 1.0],
                        [3.0, 2.5, 2.0, 1.5, 1.0])
        b = FuzzyNumber(alphas, [-1.0, 0.0, 0.0, 0.0, 0.0],
                        [1.0, 1.0, 1.0, 1.0, 1.0])
        verdict = hukuhara_diff(a, b)
        assert isinstance(verdict, HukuharaNonexistence)
        assert verdict.alpha == 0.25
        assert "lower endpoints decrease" in verdict.reason
        with pytest.raises(InvalidLevelError) as err:
            FuzzyNumber(alphas, a.lo - b.lo, a.hi - b.hi)
        assert err.value.alpha == 0.25

    def test_verdict_is_falsy_number_is_not(self):
        b = tri(0.0, 1.0, 2.0)
        assert hukuhara_diff(add(b, b), b)
        assert not hukuhara_diff(b, add(b, b))


class TestRecords:
    def test_fuzzy_round_trip(self):
        a = tri(-1.0, 0.5, 3.0, m=7)
        rec = fuzzy_to_record(a)
        assert set(rec) == {"alphas", "lo", "hi"}
        assert all(isinstance(v, list) for v in rec.values())
        assert fuzzy_from_record(rec) == a

    def test_triangular_round_trip(self):
        t = TriangularFuzzy(-2.0, 0.0, 5.5)
        rec = triangular_to_record(t)
        assert rec == [-2.0, 0.0, 5.5]
        assert triangular_from_record(rec) == t

    def test_malformed_records_rejected(self):
        with pytest.raises((InvalidLevelError, ValueError, KeyError)):
            fuzzy_from_record({"alphas": [0.0, 1.0], "lo": [0.0]})
        with pytest.raises((InvalidLevelError, ValueError)):
            triangular_from_record([3.0, 2.0, 1.0])

    def test_levels_equal_tolerance(self):
        a = tri(0.0, 1.0, 2.0)
        b = FuzzyNumber(a.alphas, a.lo + 1e-15, a.hi)
        assert levels_equal(a, b)
        assert not levels_equal(a, add(a, crisp(1e-6, 11)))
