"""Tests for fuzzy-valued functions, scalarization, and its derivatives."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from fuzzynewton import (
    DomainError,
    FuzzyFunction,
    FuzzyNumber,
    InvalidLevelError,
    MalformedFunctionError,
    NewtonConfig,
    NumericError,
    OneSidedStencilWarning,
    ScalarizationConfig,
    build_example_4_1,
    build_max_return_crisp,
    build_max_return_fuzzy,
    check_point,
    comparability_check,
    crisp_lift,
    eval_fuzzy,
    negate,
    non_dominance_check,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    scalarize_many,
    solve,
)
from fuzzynewton import level_calculus
from fuzzynewton.newton_solver import STATUS_NON_FINITE

from helpers import assembled_report, report_bits, traced_peak

EX41 = build_example_4_1()
CFG = ScalarizationConfig()


def _rows_counted(f):
    """A list that records the rows of each level-map call, and f with
    both level maps recording into it."""
    rows = []

    def counted(level_map):
        def level(x, a):
            rows.append(len(x))
            return level_map(x, a)

        return level

    return rows, dataclasses.replace(
        f, level_lo=counted(f.level_lo), level_hi=counted(f.level_hi)
    )


def ex41_F(x):
    return 4.0 * x**2 + 2.0 * x**3


def ex41_d1(x):
    return 8.0 * x + 6.0 * x**2


def ex41_d2(x):
    return 8.0 + 12.0 * x


class TestScalarizationConfig:
    def test_defaults(self):
        assert CFG.alpha_points == 101
        assert CFG.quadrature == "simpson"
        assert CFG.fd_step == 1e-5

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            ScalarizationConfig(quadrature="midpoint")

    def test_rejects_even_grid_for_simpson(self):
        with pytest.raises(ValueError):
            ScalarizationConfig(alpha_points=100, quadrature="simpson")
        ScalarizationConfig(alpha_points=100, quadrature="trapezoid")

    @pytest.mark.parametrize("m", [11.9, 101.0, True, "101"])
    def test_rejects_a_grid_size_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError, match="alpha_points must be an integer"):
            ScalarizationConfig(alpha_points=m)

    def test_accepts_a_numpy_integer_grid_size(self):
        m = ScalarizationConfig(alpha_points=np.int64(51)).alpha_points
        assert m == 51 and type(m) is int

    def test_rejects_tiny_grid_and_bad_step(self):
        with pytest.raises(ValueError):
            ScalarizationConfig(alpha_points=2)
        with pytest.raises(ValueError):
            ScalarizationConfig(fd_step=0.0)
        with pytest.raises(ValueError):
            ScalarizationConfig(fd_step=-1e-5)
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            ScalarizationConfig(fd_step=math.inf)


class TestEvalAndScalarize:
    def test_eval_fuzzy_returns_levels(self):
        v = eval_fuzzy(EX41, 1.0, 11)
        assert isinstance(v, FuzzyNumber)
        assert v.lo[0] == pytest.approx(1.0)
        assert v.hi[0] == pytest.approx(5.0)
        assert v.lo[-1] == v.hi[-1] == pytest.approx(3.0)

    def test_values_share_one_grid_that_cannot_be_made_writeable(self):
        v = eval_fuzzy(EX41, 1.0, 11)
        assert v.alphas is eval_fuzzy(EX41, 2.0, 11).alphas
        with pytest.raises(ValueError):
            v.alphas.flags.writeable = True

    def test_malformed_levels_reported_with_location(self):
        bad = FuzzyFunction(
            level_lo=lambda x, a: np.asarray(x + 0.0 * a + 1.0),
            level_hi=lambda x, a: np.asarray(x + 0.0 * a - 1.0),
        )
        with pytest.raises(MalformedFunctionError) as err:
            eval_fuzzy(bad, 2.0, 5)
        msg = str(err.value)
        assert "x=2" in msg and "alpha" in msg

    def test_scalarize_closed_form(self):
        for x in (-1.5, -0.25, 0.0, 0.7, 2.0):
            assert scalarize(EX41, x, CFG) == pytest.approx(
                ex41_F(x), abs=1e-12
            )

    def test_simpson_exact_for_quadratic_integrand(self):
        f = FuzzyFunction(
            level_lo=lambda x, a: np.asarray(a**2 + 0.0 * x),
            level_hi=lambda x, a: np.asarray(a**2 + 1.0 + 0.0 * x),
        )
        # integral of (2a^2 + 1) over [0, 1] is 5/3
        assert scalarize(f, 0.0, CFG) == pytest.approx(5.0 / 3.0, abs=1e-14)

    def test_trapezoid_converges_at_second_order(self):
        f = FuzzyFunction(
            level_lo=lambda x, a: np.asarray(a**2 + 0.0 * x),
            level_hi=lambda x, a: np.asarray(a**2 + 1.0 + 0.0 * x),
        )
        coarse = scalarize(
            f, 0.0, ScalarizationConfig(alpha_points=11,
                                        quadrature="trapezoid")
        )
        fine = scalarize(
            f, 0.0, ScalarizationConfig(alpha_points=101,
                                        quadrature="trapezoid")
        )
        exact = 5.0 / 3.0
        assert abs(fine - exact) < abs(coarse - exact) / 50.0

    def test_non_finite_value_raises(self):
        f = crisp_lift(lambda x: np.exp(x), name="exp")
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                scalarize(f, 1e4, CFG)

    def test_scalarize_many_matches_loop(self):
        xs = np.linspace(-2.0, 2.0, 37)
        many = scalarize_many(EX41, xs, CFG)
        one_by_one = np.array([scalarize(EX41, float(x), CFG) for x in xs])
        np.testing.assert_array_equal(many, one_by_one)

    def test_scalarize_many_raises_on_non_finite_values(self):
        def level(x, a):
            x = np.asarray(x, float)
            return np.where(x < 0.2, np.nan, x) + 0.0 * a

        f = FuzzyFunction(level_lo=level, level_hi=level)
        with pytest.raises(NumericError) as err:
            scalarize_many(f, np.linspace(0.0, 1.0, 11), CFG)
        assert "x=0.0" in str(err.value)
        assert scalarize_many(f, [0.5, 1.0], CFG) == pytest.approx([1.0, 2.0])

    def test_scalarize_many_scalar_only_maps_fall_back(self):
        # a map that takes a scalar x only gives the bits of its array twin
        f = crisp_lift(lambda x: float(x) * float(x) + 1.0)
        twin = crisp_lift(lambda x: x * x + 1.0)
        xs = np.linspace(-1.0, 1.0, 101)
        many = scalarize_many(f, xs, CFG)
        np.testing.assert_array_equal(many, scalarize_many(twin, xs, CFG))
        np.testing.assert_array_equal(
            many, [scalarize(f, float(x), CFG) for x in xs]
        )

    def test_scalarize_many_takes_one_block_at_a_time(self, monkeypatch):
        # a budget a few values past 7 rows' worth still takes 7 rows
        monkeypatch.setattr(
            level_calculus, "_BLOCK_VALUES", 7 * CFG.alpha_points + 3
        )
        rows, f = _rows_counted(EX41)
        xs = np.linspace(-1.0, 1.0, 20)
        many = scalarize_many(f, xs, CFG)
        assert rows == [7, 7, 7, 7, 6, 6]
        np.testing.assert_array_equal(
            many, [scalarize(EX41, float(x), CFG) for x in xs]
        )

    @pytest.mark.parametrize("m", [11, 101, 1001])
    @pytest.mark.parametrize("budget_rows", [None, 7])
    @pytest.mark.parametrize(
        "f", [EX41, build_max_return_crisp(), build_max_return_fuzzy()],
        ids=["example_4_1", "max_return_crisp", "max_return_fuzzy"],
    )
    def test_scalarize_many_has_the_bits_of_scalarize(self, monkeypatch, f,
                                                      budget_rows, m):
        # one dot per row: F of a point does not depend on its block, so
        # the shipped budget and a 7-row one give scalarize's bits
        if budget_rows is not None:
            monkeypatch.setattr(level_calculus, "_BLOCK_VALUES",
                                budget_rows * m + 3)
        cfg = ScalarizationConfig(alpha_points=m)
        xs = np.linspace(0.3, 0.9, 120)
        np.testing.assert_array_equal(
            scalarize_many(f, xs, cfg),
            [scalarize(f, float(x), cfg) for x in xs],
        )

    def test_scalarize_many_memory_stays_one_block(self, monkeypatch):
        monkeypatch.setattr(
            level_calculus, "_BLOCK_VALUES", 5000 * CFG.alpha_points
        )
        one_block = traced_peak(
            scalarize_many, EX41, np.linspace(-1.0, 1.0, 5000), CFG
        )
        assert traced_peak(
            scalarize_many, EX41, np.linspace(-1.0, 1.0, 20000), CFG
        ) < 1.2 * one_block

    @pytest.mark.parametrize(
        "m, n, expected",
        [
            (101, 200, [102, 102, 98, 98]),
            (1001, 20, [10, 10, 10, 10]),
            # more than half the budget, or more levels than all of it:
            # one point per block
            (8193, 3, [1, 1, 1, 1, 1, 1]),
            (10303, 3, [1, 1, 1, 1, 1, 1]),
        ],
    )
    def test_scalarize_many_block_is_the_shipped_budget(self, m, n, expected):
        rows, f = _rows_counted(EX41)
        scalarize_many(f, np.linspace(-1.0, 1.0, n),
                       ScalarizationConfig(alpha_points=m))
        assert rows == expected

    @pytest.mark.parametrize(
        "f, xs",
        [
            (EX41, np.linspace(-1.0, 1.0, 40000)),
            (build_max_return_fuzzy(), np.linspace(0.3, 0.9, 40000)),
        ],
        ids=["example_4_1", "max_return_fuzzy"],
    )
    def test_scalarize_many_memory_at_the_shipped_budget(self, f, xs):
        # 80.5 KiB level arrays: 40 000 points at 101 levels stay far under
        # the 16 MB that one array of 20000-point blocks took
        assert traced_peak(scalarize_many, f, xs, CFG) < 2 * 2**20

    def test_scalarize_many_enforces_the_domain(self):
        f = dataclasses.replace(EX41, domain=(0.0, 1.0))
        with pytest.raises(DomainError, match=r"x=2\.0 outside"):
            scalarize_many(f, [0.5, 2.0, 3.0], CFG)
        with pytest.raises(DomainError, match=r"x=-0\.5 outside"):
            scalarize_many(f, [-0.5, 0.5], CFG)
        np.testing.assert_array_equal(
            scalarize_many(f, [0.0, 1.0], CFG),
            [scalarize(f, 0.0, CFG), scalarize(f, 1.0, CFG)],
        )

    def test_scalarize_many_propagates_other_errors(self):
        def level(x, a):
            if np.ndim(x) > 0:
                raise KeyError("bug in an array-x branch")
            return np.asarray(x + 0.0 * a)

        f = FuzzyFunction(level_lo=level, level_hi=level)
        with pytest.raises(KeyError):
            scalarize_many(f, [0.0, 1.0], CFG)

    def test_out_of_domain_rejected(self):
        f = dataclasses.replace(EX41, domain=(-1.0, 1.0))
        with pytest.raises(DomainError):
            scalarize(f, 2.0, CFG)
        with pytest.raises(DomainError):
            eval_fuzzy(f, -1.5, 11)


def _constant(value):
    """A level map whose every level is value, at a float x or a column."""
    return lambda x, a: np.asarray(x, float) * 0.0 + 0.0 * a + value


class TestNonFiniteRow:
    """F at one point is the 1-D dot of its level row, tested by
    math.isfinite: a non-finite value raises the NumericError that
    names x, worded as for a block, and a solve there ends non-finite."""

    # inf and NaN levels, and finite 1e308 levels whose sum overflows
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e308])
    @pytest.mark.parametrize("x, shown", [
        (0.5, "0.5"), (np.float64(-1.25e-07), "-1.25e-07"), (3, "3"),
    ])
    def test_scalarize_raises_and_solve_ends_non_finite(self, value, x,
                                                        shown):
        f = FuzzyFunction(level_lo=_constant(value),
                          level_hi=_constant(value))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError) as err:
                scalarize(f, x, CFG)
            res = solve(f, NewtonConfig(x0=x))
        assert str(err.value) == f"non-finite level values at x={shown}"
        assert (res.status, res.xstar, res.iterations) == (
            STATUS_NON_FINITE, x, 0)

    def test_a_block_words_its_first_bad_point_alike(self):
        f = FuzzyFunction(level_lo=_constant(math.inf),
                          level_hi=_constant(math.inf))
        with pytest.raises(NumericError) as err:
            scalarize_many(f, [-1.25e-07, 0.5], CFG)
        assert str(err.value) == "non-finite level values at x=-1.25e-07"


class TestCrispLiftAndNegate:
    def test_crisp_lift_doubles_the_function(self):
        g = lambda x: np.asarray(x**2 - 3.0 * x)
        f = crisp_lift(g)
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert scalarize(f, x, CFG) == pytest.approx(2.0 * g(x))

    def test_crisp_lift_levels_are_flat_in_alpha(self):
        f = crisp_lift(lambda x: np.asarray(2.0 * x))
        v = eval_fuzzy(f, 3.0, 21)
        assert np.all(v.lo == 6.0) and np.all(v.hi == 6.0)

    def test_crisp_lift_forwards_derivatives(self):
        f = crisp_lift(
            lambda x: np.asarray(x**3),
            d1=lambda x: np.asarray(3.0 * x**2),
            d2=lambda x: np.asarray(6.0 * x),
        )
        assert f.has_analytic_d1 and f.has_analytic_d2
        assert scalarize_d1(f, 2.0, CFG) == pytest.approx(24.0)
        assert scalarize_d2(f, 2.0, CFG) == pytest.approx(24.0)

    def test_negate_mirrors_scalarization(self):
        n = negate(EX41)
        for x in (-1.0, 0.3, 1.7):
            assert scalarize(n, x, CFG) == pytest.approx(
                -scalarize(EX41, x, CFG)
            )

    def test_negate_swaps_levels(self):
        v = eval_fuzzy(negate(EX41), 1.0, 11)
        w = eval_fuzzy(EX41, 1.0, 11)
        np.testing.assert_allclose(v.lo, -w.hi)
        np.testing.assert_allclose(v.hi, -w.lo)

    def test_negate_keeps_analytic_derivatives(self):
        n = negate(EX41)
        assert n.has_analytic_d1 and n.has_analytic_d2
        assert scalarize_d1(n, 1.0, CFG) == pytest.approx(-ex41_d1(1.0))


class TestDerivatives:
    def test_half_a_derivative_pair_is_rejected(self):
        for field in ("d1_lo", "d1_hi", "d2_lo", "d2_hi"):
            order = field[:2]
            with pytest.raises(ValueError, match=f"{order}_lo and {order}_hi"):
                dataclasses.replace(EX41, **{field: None})
        # once read as no analytic d1: scalarize_d1 took finite differences
        with pytest.raises(ValueError, match="d1_lo and d1_hi go together"):
            FuzzyFunction(EX41.level_lo, EX41.level_hi,
                          d1_lo=lambda x, a: 1e9 + 0.0 * a)

    def test_analytic_path_matches_closed_form(self):
        for x in (-1.2, -0.3, 0.0, 0.8, 1.9):
            assert scalarize_d1(EX41, x, CFG) == pytest.approx(
                ex41_d1(x), abs=1e-10
            )
            assert scalarize_d2(EX41, x, CFG) == pytest.approx(
                ex41_d2(x), abs=1e-10
            )

    def test_fd_fallback_close_to_analytic(self):
        bare = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None
        )
        assert not bare.has_analytic_d1 and not bare.has_analytic_d2
        for x in (-1.2, 0.0, 0.8, 1.9):
            assert scalarize_d1(bare, x, CFG) == pytest.approx(
                ex41_d1(x), rel=1e-6, abs=1e-6
            )
            assert scalarize_d2(bare, x, CFG) == pytest.approx(
                ex41_d2(x), rel=1e-3, abs=1e-3
            )

    def test_fd_step_scales_with_x(self):
        bare = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None
        )
        # at large |x| an absolute step of fd_step would be noise-dominated
        x = 1000.0
        assert scalarize_d1(bare, x, CFG) == pytest.approx(
            ex41_d1(x), rel=1e-5
        )

    def test_one_sided_stencil_at_boundary_warns(self):
        f = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None,
            domain=(0.0, 2.0)
        )
        with pytest.warns(OneSidedStencilWarning):
            d1 = scalarize_d1(f, 0.0, CFG)
        assert d1 == pytest.approx(ex41_d1(0.0), abs=1e-3)

    def test_domain_too_small_for_stencil(self):
        f = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None,
            domain=(0.0, 1e-9)
        )
        with pytest.raises(DomainError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                scalarize_d1(f, 5e-10, CFG)

    def test_one_sided_stencil_needs_its_far_point_in_the_domain(self):
        # at x = 0 the stencil is (0, h, 2h); F' takes 0 and h, F'' takes
        # 2h too, which lies past the domain's upper end
        f = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None,
            domain=(0.0, 1.5e-5)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert scalarize_d1(f, 0.0, CFG) == pytest.approx(0.0, abs=1e-3)
            with pytest.raises(DomainError, match=r"x=2e-05 outside"):
                scalarize_d2(f, 0.0, CFG)


class TestContains:
    def test_bounds_are_inclusive(self):
        f = dataclasses.replace(EX41, domain=(-1.0, 2.0))
        assert f.contains(-1.0) and f.contains(2.0) and f.contains(0.5)
        assert not f.contains(-1.0 - 1e-15) and not f.contains(2.0 + 1e-15)

    def test_elementwise_on_arrays(self):
        f = dataclasses.replace(EX41, domain=(-1.0, 2.0))
        xs = np.array([-2.0, -1.0, 0.0, 2.0, 3.0, np.nan])
        np.testing.assert_array_equal(
            f.contains(xs), [False, True, True, True, False, False]
        )

    def test_nan_lies_outside(self):
        assert not EX41.contains(math.nan)
        assert not dataclasses.replace(EX41, domain=(0.0, 1.0)).contains(
            math.nan
        )

    @pytest.mark.parametrize(
        "domain", [(1.0, -1.0), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_reversed_or_nan_domain_is_rejected(self, domain):
        with pytest.raises(ValueError, match="needs lo <= hi"):
            dataclasses.replace(EX41, domain=domain)

    def test_single_point_domain_is_accepted(self):
        assert dataclasses.replace(EX41, domain=(0.5, 0.5)).contains(0.5)

    def test_unbounded_domain_accepts_everything(self):
        xs = np.array([-math.inf, -1e308, 0.0, 1e308, math.inf])
        assert EX41.contains(xs).all()
        assert all(EX41.contains(float(x)) for x in xs)


class TestNeighborhoodChecks:
    def test_comparable_along_monotone_stretch(self):
        rep = comparability_check(EX41, 1.0, +1.0, 0.05, 11)
        assert rep.ok
        assert rep.samples == 11
        assert "comparable" in rep.describe()

    def test_incomparable_reports_witness(self):
        # near the scalarized maximizer level curves cross immediately
        rep = comparability_check(EX41, -4.0 / 3.0, +1.0, 0.01, 9)
        assert not rep.ok
        assert rep.witness is not None
        assert 0.0 < rep.witness < 0.01
        assert "incomparable" in rep.describe()

    def test_non_dominance_at_minimizer(self):
        verdict = non_dominance_check(EX41, 0.0, 0.01, 25)
        assert not verdict.dominated
        assert verdict.dominator is None
        assert "no-dominator-found" in verdict.describe()

    def test_dominated_away_from_minimizer(self):
        verdict = non_dominance_check(EX41, 0.5, 0.01, 25)
        assert verdict.dominated
        assert verdict.dominator == pytest.approx(0.49, abs=1e-9)
        assert "dominated-by" in verdict.describe()

    def test_near_coincident_sample_is_not_a_dominator(self):
        # converged iterates sit ulps from the exact minimizer; a sample
        # that rounds onto them must not count as dominating
        verdict = non_dominance_check(EX41, 2.2370804744447476e-12, 0.01, 25)
        assert not verdict.dominated

    def test_no_sample_in_the_domain_is_inconclusive(self):
        f = dataclasses.replace(EX41, domain=(-1.0, 0.0))
        rep = comparability_check(f, 0.0, +1.0, 0.01, 25)
        assert rep.samples == 0
        assert not rep.ok
        assert rep.describe() == "inconclusive (0 samples in the domain)"
        assert comparability_check(f, 0.0, -1.0, 0.01, 25).ok
        point = dataclasses.replace(EX41, domain=(0.0, 0.0))
        verdict = non_dominance_check(point, 0.0, 0.01, 25)
        assert (verdict.dominated, verdict.samples) == (False, 0)
        assert verdict.describe() == "inconclusive (0 samples in the domain)"

    @pytest.mark.parametrize(
        "samples, message",
        [(-1, "samples must be at least 0, got -1"),
         (2.0, "samples must be an integer, got 2.0"),
         (True, "samples must be an integer, got True")],
    )
    def test_samples_must_be_a_non_negative_integer(self, samples, message):
        # -1 raised numpy's wording from linspace, or, in a comparability
        # check, compared no sample; 2.0 and True were taken as counts
        for check in (
            lambda: non_dominance_check(EX41, 0.0, 0.01, samples),
            lambda: comparability_check(EX41, 0.0, +1.0, 0.01, samples),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                check()

    @pytest.mark.parametrize("m", [51.0, True, "51"])
    def test_grid_size_must_be_an_integer(self, m):
        # numpy's "'float' object cannot be interpreted as an integer"
        # (a TypeError) before
        message = f"m must be an integer, got {m!r}"
        for call in (
            lambda: eval_fuzzy(EX41, 0.5, m),
            lambda: non_dominance_check(EX41, 0.0, 0.01, 5, m),
            lambda: comparability_check(EX41, 0.0, +1.0, 0.01, 5, m),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_samples_that_overflow_name_nbhd(self):
        # "levels of example_4_1 are invalid at x=inf" before, from the
        # samples' inf and NaN, after numpy's overflow warning; now no
        # level is fetched
        def unread(x, a):
            raise AssertionError("a level was fetched")

        f = dataclasses.replace(EX41, level_lo=unread, level_hi=unread)
        for x0, check in (
            (0.0, lambda: non_dominance_check(f, 0.0, 1e308, 5)),
            (0.0, lambda: non_dominance_check(f, 0.0, 1e308, 1)),
            (1e308, lambda: comparability_check(f, 1e308, +1.0, 1e308, 5)),
        ):
            message = (f"nbhd=1e+308 takes the samples around x={x0} past "
                       f"the largest float")
            with pytest.raises(ValueError, match=re.escape(message)):
                check()

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 0.0, -0.0])
    def test_direction_must_be_finite_and_nonzero(self, d):
        # NaN and ±0.0 read as "inconclusive (0 samples in the domain)"
        # before, and ±inf as an nbhd whose samples overflow; now no
        # level is fetched
        def unread(x, a):
            raise AssertionError("a level was fetched")

        f = dataclasses.replace(EX41, level_lo=unread, level_hi=unread)
        message = f"direction d must be finite and nonzero, got {d}"
        with pytest.raises(ValueError, match=re.escape(message)):
            comparability_check(f, 0.0, d, 0.01, 5)

    def test_zero_samples_is_inconclusive(self):
        assert non_dominance_check(EX41, 0.0, 0.01, 0).samples == 0
        assert comparability_check(EX41, 0.0, +1.0, 0.01, 0).samples == 0

    @pytest.mark.parametrize("through_check_point", [False, True])
    def test_zero_samples_over_a_span_that_overflows_do_not_warn(
        self, through_check_point
    ):
        # numpy warned "overflow encountered in subtract" from the span
        # of a grid of no sample, an error under filterwarnings = error
        if through_check_point:
            report = check_point(EX41, 0.0, NewtonConfig(x0=0.0),
                                 nbhd=1e308, samples=0)
            assert report.verdict == "inconclusive"
            verdict = report.non_dominance
        else:
            verdict = non_dominance_check(EX41, 0.0, 1e308, 0)
        assert verdict.describe() == "inconclusive (0 samples in the domain)"

    def test_samples_on_a_domain_bound_are_kept(self):
        # the samples land exactly on -0.01 and 0.01, the domain's bounds
        f = dataclasses.replace(EX41, domain=(-0.01, 0.01))
        verdict = non_dominance_check(f, 0.0, 0.01, 3)
        assert (verdict.dominated, verdict.samples) == (False, 2)
        rep = comparability_check(f, 0.0, +1.0, 0.02, 1)
        assert rep.samples == 1 and rep.ok

    @pytest.mark.parametrize("reach", [0.0, -0.01, math.nan, math.inf])
    def test_reach_must_be_positive_and_finite(self, reach):
        # a negative reach sampled the side opposite the direction it
        # reported, and NaN read as no sample in the domain
        with pytest.raises(ValueError, match="positive and finite"):
            comparability_check(EX41, 0.0, +1.0, reach, 25)
        with pytest.raises(ValueError, match="positive and finite"):
            non_dominance_check(EX41, 0.0, reach, 25)

    def test_domain_limits_sampling(self):
        f = dataclasses.replace(EX41, domain=(0.0, 2.0))
        verdict = non_dominance_check(f, 0.0, 0.01, 25)
        assert not verdict.dominated
        assert verdict.samples < 25


def _broken_below_or_above(cut: float, below: bool):
    """EX41 whose lower levels jump above the upper ones at alpha > 0.5,
    at x below (or above) the cut only."""

    def level_lo(x, a):
        x = np.asarray(x, float)
        broken = (x < cut) if below else (x > cut)
        return EX41.level_lo(x, a) + np.where(broken & (a > 0.5), 10.0, 0.0)

    return dataclasses.replace(EX41, level_lo=level_lo)


class TestBatchedChecks:
    """Each check evaluates x0 and its samples as one block; errors and
    verdicts are those of a per-sample evaluate-validate-compare loop."""

    def test_malformed_after_the_witness_does_not_raise(self):
        # at x0 = 0.5 the first sample, 0.49, dominates
        f = _broken_below_or_above(0.5, below=False)
        verdict = non_dominance_check(f, 0.5, 0.01, 25)
        assert verdict.dominator == pytest.approx(0.49)
        assert verdict.samples == 1

    def test_malformed_before_the_witness_raises_at_that_sample(self):
        f = _broken_below_or_above(0.495, below=True)
        with pytest.raises(MalformedFunctionError) as err:
            non_dominance_check(f, 0.5, 0.01, 25)
        with pytest.raises(MalformedFunctionError) as one:
            eval_fuzzy(f, 0.49, 101)
        assert (err.value.x, err.value.alpha) == (one.value.x, one.value.alpha)
        assert str(err.value) == str(one.value)

    def test_malformed_last_sample_raises_without_a_witness(self):
        # no sample dominates the minimizer 0; only the last one, 0.01,
        # is malformed
        f = _broken_below_or_above(0.0099, below=False)
        with pytest.raises(MalformedFunctionError) as err:
            non_dominance_check(f, 0.0, 0.01, 25)
        assert err.value.x == pytest.approx(0.01)

    def test_malformed_x0_raises_whatever_the_samples(self):
        f = _broken_below_or_above(0.5, below=False)
        with pytest.raises(MalformedFunctionError) as err:
            comparability_check(f, 0.6, -1.0, 0.01, 5)
        assert err.value.x == 0.6
        assert err.value.alpha == pytest.approx(0.51)

    def test_scalar_only_level_maps_fall_back(self):
        f = crisp_lift(lambda x: math.exp(x))
        rep = comparability_check(f, 0.0, +1.0, 0.01, 7)
        assert (rep.ok, rep.samples) == (True, 7)
        verdict = non_dominance_check(f, 0.0, 0.01, 5)
        assert verdict.dominator == pytest.approx(-0.01)
        assert non_dominance_check(f, 0.0, 1e-13, 5).samples == 0

    @pytest.mark.parametrize(
        "m, samples", [(101, 20000), (1001, 101)], ids=["m101", "m1001"]
    )
    def test_check_memory_at_the_shipped_budget(self, m, samples):
        # the checks take scalarize_many's blocks: 4096-row blocks peaked
        # at 26-32 MiB and 3.9-4.7 MiB here
        for f, x in ((EX41, 0.0),
                     (build_max_return_fuzzy(), 0.6992541391715129)):
            cfg = NewtonConfig(x0=x, scal=ScalarizationConfig(alpha_points=m))
            bound = 4 * 2**20 if samples > 101 else 2 * 2**20
            assert traced_peak(check_point, f, x, cfg, 0.01, samples) < bound

    def test_blocks_split_at_any_row_count(self, monkeypatch):
        # huge sample counts are evaluated a block of rows at a time
        whole = [
            non_dominance_check(EX41, x, 0.01, 25) for x in (-0.3, 0.0)
        ] + [comparability_check(EX41, -4.0 / 3.0, +1.0, 0.05, 25)]
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(
                level_calculus, "_BLOCK_VALUES", rows * CFG.alpha_points
            )
            split = [
                non_dominance_check(EX41, x, 0.01, 25) for x in (-0.3, 0.0)
            ] + [comparability_check(EX41, -4.0 / 3.0, +1.0, 0.05, 25)]
            assert split == whole


def _broken_at(points, f=EX41, jump=10.0):
    """f whose lower levels jump by jump at alpha > 0.5, above the upper
    ones by default, at the given points only."""

    def level_lo(x, a):
        broken = np.isin(np.asarray(x, float), points)
        if np.ndim(broken):
            broken = broken[..., None]
        return f.level_lo(x, a) + np.where(broken & (a > 0.5), jump, 0.0)

    return dataclasses.replace(f, level_lo=level_lo)


def _fd_only(f):
    """f with its analytic derivatives dropped: F' and F'' by the
    stencil."""
    return dataclasses.replace(
        f, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None
    )


# the k-th comparability sample of 25 in (0, 0.01) along +1 from x
def _plus_sample(x, k):
    return x + np.linspace(0.0, 0.01, 27)[1:-1][k]


class TestCheckPointColumn:
    """check_point reads x, its stencil and its three checks from one
    x-column: the report and the errors are those of the stencil and
    each check fetched apart."""

    @pytest.mark.parametrize("samples", [25, 101])
    def test_one_block_alive_at_a_time(self, samples):
        # The column is one block of 102 rows at 25 samples and three at
        # 101. One block at a time reads 330 and 420 KiB; a scan that
        # keeps the previous block, or a row view into it, alive through
        # the next fetch read 551 KiB at 101 samples. This bound is what
        # catches that.
        for f, x in ((EX41, 0.0),
                     (build_max_return_fuzzy(), 0.6992541391715129)):
            cfg = NewtonConfig(x0=x)
            check_point(f, x, cfg, 0.01, samples)
            peak = traced_peak(check_point, f, x, cfg, 0.01, samples)
            assert peak < 480 * 2**10

    def test_non_finite_levels_at_x_raise_numeric_error(self):
        # F'' by the stencil reads F(x) before a sample row is checked
        f = _fd_only(_broken_at([0.0], jump=math.nan))
        with pytest.raises(NumericError, match="non-finite level values"):
            check_point(f, 0.0, NewtonConfig(x0=0.0))

    def test_settings_are_checked_before_any_fetch(self):
        # the column is built from nbhd and samples, so they are checked
        # before F'' reads the NaN at x
        f = _fd_only(_broken_at([0.0], jump=math.nan))
        with pytest.raises(ValueError, match="nbhd must be positive"):
            check_point(f, 0.0, NewtonConfig(x0=0.0), nbhd=-1.0)

    def test_malformed_x_with_analytic_derivatives_raises_at_x(self):
        # no F(x) is read, so the first check finds x's own row broken
        f = _broken_at([0.0])
        with pytest.raises(MalformedFunctionError) as err:
            check_point(f, 0.0, NewtonConfig(x0=0.0))
        assert (err.value.x, err.value.alpha) == (0.0, pytest.approx(0.51))

    @pytest.mark.parametrize("k", [0, 3, 24])
    def test_malformed_comparability_sample_raises_there(self, k):
        # non-dominance finds no dominator of the minimizer 0 and reads
        # no broken row; comparability (+) meets its k-th sample
        x = _plus_sample(0.0, k)
        f = _broken_at([x])
        assert not non_dominance_check(f, 0.0, 0.01, 25).dominated
        with pytest.raises(MalformedFunctionError) as err:
            check_point(f, 0.0, NewtonConfig(x0=0.0))
        with pytest.raises(MalformedFunctionError) as one:
            eval_fuzzy(f, x, 101)
        assert (err.value.x, err.value.alpha) == (x, one.value.alpha)
        assert str(err.value) == str(one.value)

    def test_witness_before_a_malformed_row_decides(self):
        # at the maximizer -4/3 the first comparability (+) sample is a
        # witness; the broken fourth sample is fetched but not checked
        x = -4.0 / 3.0
        f = _broken_at([_plus_sample(x, 3)])
        cfg = NewtonConfig(x0=x)
        rep = check_point(f, x, cfg)
        assert rep.comp_plus.witness == np.linspace(0.0, 0.01, 27)[1]
        assert report_bits(rep) == report_bits(check_point(EX41, x, cfg))

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
    def test_domain_edge_warns_once(self, fd):
        f = dataclasses.replace(EX41, domain=(0.0, 2.0))
        f = _fd_only(f) if fd else f
        cfg = NewtonConfig(x0=0.0)
        with pytest.warns(OneSidedStencilWarning) as record:
            rep = check_point(f, 0.0, cfg)
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OneSidedStencilWarning)
            want = assembled_report(f, 0.0, cfg, 0.01, 25)
        assert report_bits(rep) == report_bits(want)
        assert rep.non_dominance.samples == 12

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 101])
    def test_blocks_split_at_any_row_count(self, monkeypatch, rows):
        # x and its stencil span up to three blocks, and a check's rows
        # any number of them
        cfg = NewtonConfig(x0=0.0)
        cases = [(f, x) for f in (EX41, _fd_only(EX41))
                 for x in (-4.0 / 3.0, -0.3, 0.0)]
        cases.append((build_max_return_fuzzy(), 0.6992541391715129))
        whole = [report_bits(check_point(f, x, cfg, 0.05, 25))
                 for f, x in cases]
        monkeypatch.setattr(
            level_calculus, "_BLOCK_VALUES", rows * CFG.alpha_points
        )
        split = [report_bits(check_point(f, x, cfg, 0.05, 25))
                 for f, x in cases]
        apart = [report_bits(assembled_report(f, x, cfg, 0.05, 25))
                 for f, x in cases]
        assert split == whole == apart
