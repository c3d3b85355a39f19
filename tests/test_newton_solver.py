"""Tests for the scalarized Newton iteration and its diagnostics."""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from fuzzynewton import (
    DomainError,
    FuzzyNumber,
    FuzzyFunction,
    InsufficientDataError,
    IterationRecord,
    MalformedFunctionError,
    NewtonConfig,
    OneSidedStencilWarning,
    ProblemSpec,
    STATUS_CONVERGED,
    STATUS_D2_NEAR_ZERO,
    STATUS_LEFT_DOMAIN,
    STATUS_MAX_ITER,
    STATUS_NON_FINITE,
    ScalarizationConfig,
    build_example_4_1,
    check_point,
    crisp,
    crisp_lift,
    estimate_convergence_order,
    eval_fuzzy,
    resolve_problem,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    solve,
    verify_solution,
)
from fuzzynewton import fuzzy_core, level_calculus
from fuzzynewton.fuzzy_core import _grid
from fuzzynewton.problems import BUILTIN_NAMES

from helpers import traced_peak

EX41 = build_example_4_1()


def recurrence(x):
    """Newton step on F = 2x^3 + 4x^2 in closed form."""
    return 3.0 * x**2 / (6.0 * x + 4.0)


class TestNewtonConfig:
    def test_defaults(self):
        cfg = NewtonConfig(x0=1.0)
        assert cfg.eps == 1e-5
        assert cfg.max_iter == 100
        assert cfg.d2_floor == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(x0=1.0, eps=0.0)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            NewtonConfig(x0=1.0, eps=math.inf)
        with pytest.raises(ValueError):
            NewtonConfig(x0=1.0, max_iter=0)
        with pytest.raises(ValueError):
            NewtonConfig(x0=1.0, d2_floor=-1.0)
        with pytest.raises(
            ValueError, match="d2_floor must be positive and finite"
        ):
            NewtonConfig(x0=1.0, d2_floor=math.inf)
        with pytest.raises(ValueError):
            NewtonConfig(x0=float("nan"))

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # 2.5 was accepted and solve then raised TypeError from range();
        # True ran one iteration
        with pytest.raises(
            ValueError, match=f"max_iter must be an integer, got {max_iter!r}"
        ):
            NewtonConfig(x0=0.3, max_iter=max_iter)

    def test_max_iter_is_a_plain_int(self):
        cfg = NewtonConfig(x0=1.0, max_iter=np.int64(2))
        assert type(cfg.max_iter) is int
        assert solve(EX41, cfg).iterations == 2
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            NewtonConfig(x0=1.0, max_iter=np.int64(0))


class TestSolve:
    def test_converges_from_one(self):
        res = solve(EX41, NewtonConfig(x0=1.0))
        assert res.status == STATUS_CONVERGED
        assert abs(res.xstar) < 1e-6
        assert res.iterations <= 8
        assert res.stationarity_kind == "local-min"

    def test_trace_matches_closed_form_recurrence(self):
        res = solve(EX41, NewtonConfig(x0=1.0))
        xs = res.iterates()
        assert xs[0] == 1.0
        for prev, nxt in zip(xs, xs[1:]):
            assert nxt == pytest.approx(recurrence(prev), abs=1e-9)

    def test_trace_is_self_consistent(self):
        res = solve(EX41, NewtonConfig(x0=1.0))
        assert [r.k for r in res.trace] == list(range(len(res.trace)))
        for rec in res.trace:
            assert isinstance(rec, IterationRecord)
            assert isinstance(rec.fuzzy_value, FuzzyNumber)
            assert rec.F == pytest.approx(
                4.0 * rec.x_k**2 + 2.0 * rec.x_k**3, abs=1e-10
            )
        for prev, nxt in zip(res.trace, res.trace[1:]):
            assert nxt.x_k == pytest.approx(prev.x_k + prev.step)
        assert res.xstar == pytest.approx(
            res.trace[-1].x_k + res.trace[-1].step
        )
        assert res.iterations == len(res.trace)

    def test_flat_curvature_stops_with_verdict(self):
        res = solve(EX41, NewtonConfig(x0=-2.0 / 3.0))
        assert res.status == STATUS_D2_NEAR_ZERO
        assert res.xstar == -2.0 / 3.0
        assert res.stationarity_kind == "inconclusive"
        assert math.isnan(res.trace[-1].step)

    def test_converges_to_local_max_from_the_left(self):
        res = solve(EX41, NewtonConfig(x0=-1.2))
        assert res.status == STATUS_CONVERGED
        assert res.xstar == pytest.approx(-4.0 / 3.0, abs=1e-8)
        assert res.stationarity_kind == "local-max"

    def test_max_iter_exceeded(self):
        res = solve(EX41, NewtonConfig(x0=1.0, max_iter=2))
        assert res.status == STATUS_MAX_ITER
        assert len(res.trace) == 2
        assert res.xstar == pytest.approx(recurrence(recurrence(1.0)))

    def test_non_finite_objective(self):
        f = crisp_lift(lambda x: np.exp(x))
        with np.errstate(over="ignore"):
            res = solve(f, NewtonConfig(x0=800.0))
        assert res.status == STATUS_NON_FINITE
        assert res.xstar == 800.0

    def test_step_that_overflows(self):
        # F' = 2e300 and F'' = 2e-10 are finite and F'' is above d2_floor,
        # but -F'/F'' overflows to -inf
        f = crisp_lift(
            lambda x: 1e300 * np.asarray(x),
            d1=lambda x: np.full(np.shape(x), 1e300),
            d2=lambda x: np.full(np.shape(x), 1e-10),
        )
        res = solve(f, NewtonConfig(x0=0.5))
        assert res.status == STATUS_NON_FINITE
        assert res.xstar == 0.5
        assert res.iterations == 1
        last = res.trace[-1]
        assert last.x_k == 0.5
        assert last.dF == pytest.approx(2e300)
        assert last.d2F == pytest.approx(2e-10)
        assert last.step == -math.inf
        assert res.iterates() == [0.5, 0.5]

    def test_x0_outside_domain(self):
        f = dataclasses.replace(EX41, domain=(0.0, 2.0))
        with pytest.raises(DomainError) as err:
            solve(f, NewtonConfig(x0=-1.0))
        # worded as every other domain check, with the domain's bounds
        assert str(err.value) == (
            "x=-1.0 outside the function domain [0.0, 2.0]"
        )

    def test_step_leaving_domain(self):
        # curvature is negative at -0.68, the step jumps far left; the
        # solve reports that as a status instead of raising
        f = dataclasses.replace(EX41, domain=(-0.7, 2.0))
        res = solve(f, NewtonConfig(x0=-0.68))
        assert res.status == STATUS_LEFT_DOMAIN
        assert res.xstar == -0.68
        assert res.iterations == 1
        assert not f.contains(res.trace[-1].x_k + res.trace[-1].step)

    def test_stencil_point_outside_the_domain(self):
        # at x0 = 0 the one-sided stencil is (0, h, 2h) and F'' needs 2h,
        # past the domain's upper end: a status, not a raise
        f = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None,
            domain=(0.0, 1.5e-5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OneSidedStencilWarning)
            res = solve(f, NewtonConfig(x0=0.0))
        assert res.status == STATUS_LEFT_DOMAIN
        assert (res.xstar, res.iterations) == (0.0, 0)
        assert res.stationarity_kind == "inconclusive"

    def test_step_far_past_the_domain_edge(self):
        # F' = -2.64 and F'' = 0.8 at -0.6: the step lands at 2.7
        f = dataclasses.replace(EX41, domain=(-1.0, 1.0))
        res = solve(f, NewtonConfig(x0=-0.6))
        assert res.status == STATUS_LEFT_DOMAIN
        assert res.xstar == -0.6
        last = res.trace[-1]
        assert last.x_k + last.step == pytest.approx(2.7)

    def test_end_point_away_from_stationarity_is_labelled_so(self):
        # F'' > 0 at both end points, but F' is far from 0: neither is a
        # local minimum
        f = dataclasses.replace(EX41, domain=(-1.0, 1.0))
        left = solve(f, NewtonConfig(x0=-0.6))
        assert left.status == STATUS_LEFT_DOMAIN
        assert left.stationarity_kind == "not-stationary"
        cut_short = solve(EX41, NewtonConfig(x0=1.0, max_iter=2))
        assert cut_short.status == STATUS_MAX_ITER
        assert cut_short.stationarity_kind == "not-stationary"
        # the converged end of the same path is a local minimum
        assert solve(EX41, NewtonConfig(x0=1.0)).stationarity_kind == (
            "local-min"
        )

    def test_end_point_label_lets_a_level_map_bug_through(self):
        # a bug in a level map raises whether it hits inside the loop
        # (max_iter=2) or only at the end point (max_iter=1)
        def g(x):
            if x < 0.5:
                raise KeyError(x)
            return x * x

        f = crisp_lift(g)  # F' and F'' by differences of F
        for max_iter in (1, 2):
            with pytest.raises(KeyError):
                solve(f, NewtonConfig(x0=1.0, max_iter=max_iter))

    def test_one_sided_stencil_warnings_name_the_caller(self):
        # F' = 0 lies 1e-5 from the lower end: the stencil at the answer
        # is one-sided, in solve's end-point label and in verification
        f = dataclasses.replace(
            EX41, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None,
            domain=(-1e-5, 1.0),
        )
        cfg = NewtonConfig(x0=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve(f, cfg)
            verify_solution(f, res, cfg)
        assert res.status == STATUS_CONVERGED
        assert len(caught) >= 2
        assert {w.category for w in caught} == {OneSidedStencilWarning}
        assert {w.filename for w in caught} == {__file__}

    def test_two_cycle_end_point_is_not_stationary(self):
        resolved = resolve_problem(ProblemSpec(kind="max_return_fuzzy"))
        cfg = resolved.config
        res = solve(resolved.function, dataclasses.replace(
            cfg, scal=dataclasses.replace(cfg.scal, fd_step=1e-5)
        ))
        assert res.status == STATUS_MAX_ITER
        assert res.stationarity_kind == "not-stationary"


def swapped_quartic(t):
    """F = x^4 with analytic derivatives, so that Newton takes
    x_{k+1} = 2 x_k / 3; below x = t the level maps swap lo and hi, which
    breaks lo <= hi and leaves lo + hi, and so every iterate, bit for bit."""

    def level(end):
        def level_map(x, a):
            mid, spread = 0.5 * x**4, 0.25 * (1.0 - a)
            ends = (mid - spread, mid + spread)
            return ends[1 - end] if x < t else ends[end]

        return level_map

    def d1(x, a):
        return 2.0 * x**3 + 0.0 * a

    def d2(x, a):
        return 6.0 * x**2 + 0.0 * a

    return FuzzyFunction(level(0), level(1), d1, d1, d2, d2,
                         name="swapped quartic")


class TestMalformedIterate:
    # between (2/3)^11 and (2/3)^12: from x0 = 1 the first iterate below
    # it is x_12, in the second 10-row block at m = 1001
    T = 0.5 * ((2.0 / 3.0) ** 11 + (2.0 / 3.0) ** 12)

    @pytest.mark.parametrize("m", [101, 1001])
    def test_raises_at_the_first_malformed_iterate(self, m):
        cfg = NewtonConfig(x0=1.0, scal=ScalarizationConfig(alpha_points=m))
        valid = solve(swapped_quartic(-math.inf), cfg)
        assert valid.status == STATUS_CONVERGED
        xs = valid.iterates()
        first = next(k for k, x in enumerate(xs) if x < self.T)
        assert first == 12
        f = swapped_quartic(self.T)
        with pytest.raises(MalformedFunctionError) as err:
            solve(f, cfg)
        with pytest.raises(MalformedFunctionError) as ref:
            eval_fuzzy(f, xs[first], m)
        assert err.value.x == xs[first]
        assert str(err.value) == str(ref.value)
        assert err.value.alpha == ref.value.alpha == 0.0
        assert "level ordering lo <= hi fails" in str(err.value)


def _builtin(name, **scal):
    resolved = resolve_problem(ProblemSpec(kind=name))
    cfg = resolved.config
    return resolved.function, dataclasses.replace(
        cfg, scal=dataclasses.replace(cfg.scal, **scal)
    )


# (function, config, records): a one-iteration solve, a converged one at
# m = 101 and the 100-record two-cycle at m = 1001, ten 10-row blocks
TRACE_CASES = {
    "one_iteration": lambda: (EX41, NewtonConfig(x0=0.0), 1),
    "crisp_m101": lambda: (*_builtin("max_return_crisp"), 9),
    "two_cycle_m1001": lambda: (
        *_builtin("max_return_fuzzy", fd_step=1e-5, alpha_points=1001), 100
    ),
}


class TestTraceFuzzyValues:
    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_each_is_eval_fuzzy_at_its_iterate(self, case):
        f, cfg, records = TRACE_CASES[case]()
        m = cfg.scal.alpha_points
        res = solve(f, cfg)
        assert res.iterations == records
        for rec in res.trace:
            value, ref = rec.fuzzy_value, eval_fuzzy(f, rec.x_k, m)
            assert value.alphas is _grid(m)
            assert np.array_equal(value.lo, ref.lo)
            assert np.array_equal(value.hi, ref.hi)
            for ends in (value.lo, value.hi):
                assert not ends.flags.writeable
                with pytest.raises(ValueError):
                    ends.flags.writeable = True

    @pytest.mark.parametrize("case, blocks", [
        ("crisp_m101", [(9, 101)]),
        ("two_cycle_m1001", [(10, 1001)] * 10),
    ])
    def test_one_validity_check_per_block(self, monkeypatch, case, blocks):
        shapes = []
        kernel = fuzzy_core._invalid_rows

        def spy(lo, hi):
            shapes.append(np.shape(lo))
            return kernel(lo, hi)

        # every module that calls the kernel, FuzzyNumber's check included
        for module in (fuzzy_core, level_calculus):
            monkeypatch.setattr(module, "_invalid_rows", spy)
        f, cfg, _ = TRACE_CASES[case]()
        solve(f, cfg)
        assert shapes == blocks


    @pytest.mark.parametrize("samples, blocks", [
        (25, [(77, 101)]),
        (101, [(102, 101), (102, 101), (101, 101)]),
    ])
    def test_check_point_checks_each_block_once(self, monkeypatch, samples,
                                                blocks):
        # x, its two other stencil points and 25 or 101 samples per check,
        # less the non-dominance sample that is x itself
        shapes = []
        kernel = fuzzy_core._invalid_rows

        def spy(lo, hi):
            shapes.append(np.shape(lo))
            return kernel(lo, hi)

        for module in (fuzzy_core, level_calculus):
            monkeypatch.setattr(module, "_invalid_rows", spy)
        check_point(EX41, 0.0, NewtonConfig(x0=0.0), samples=samples)
        assert shapes == blocks


def _scalar_only(f):
    """f with a level pair that takes a float x only, so that
    _levels_each fetches each point of an x-column by itself."""
    pair = f._level_pair

    def scalar_pair(x, a):
        if not isinstance(x, float):
            raise TypeError("a float x only")
        return pair(x, a)

    return level_calculus._from_pairs(scalar_pair, domain=f.domain,
                                      name=f.name)


def _trace_bits(res):
    """A solve's trace with every float as its bits and every fuzzy value
    as the bytes of its levels."""
    return [
        (rec.k, *(float(v).hex() for v in
                  (rec.x_k, rec.F, rec.dF, rec.d2F, rec.step)),
         rec.fuzzy_value.lo.tobytes(), rec.fuzzy_value.hi.tobytes())
        for rec in res.trace
    ]


class TestStencilColumn:
    # max_return_fuzzy, with no analytic F' or F'', converged at 101 and
    # 1001 levels and in the 100-iteration two-cycle at fd_step 1e-5
    @pytest.mark.parametrize("scal, records", [
        ({}, 11),
        ({"alpha_points": 1001}, 11),
        ({"fd_step": 1e-5}, 100),
    ])
    def test_trace_has_the_bits_of_per_point_fetches(self, scal, records):
        # each iterate's stencil is one x-column; a scalar-only pair
        # fetches its points one at a time, and scalarize and its
        # derivatives, with a _Point per stencil point, integrate each
        # point's own row: all three give the same bits
        f, cfg = _builtin("max_return_fuzzy", **scal)
        res = solve(f, cfg)
        assert res.iterations == records
        assert _trace_bits(solve(_scalar_only(f), cfg)) == _trace_bits(res)
        for rec in res.trace:
            x = rec.x_k
            assert (rec.F, rec.dF, rec.d2F) == (
                scalarize(f, x, cfg.scal),
                scalarize_d1(f, x, cfg.scal),
                scalarize_d2(f, x, cfg.scal),
            )
            assert rec.step == -rec.dF / rec.d2F
            ref = eval_fuzzy(f, x, cfg.scal.alpha_points)
            assert rec.fuzzy_value.lo.tobytes() == ref.lo.tobytes()
            assert rec.fuzzy_value.hi.tobytes() == ref.hi.tobytes()

    def test_pending_rows_hold_no_stencil_column(self):
        # the 100-iteration two-cycle keeps each iterate's rows until its
        # block is checked: as views of the iterate's (3, m) column they
        # peaked at 935 KiB, as rows of their own at 599 KiB
        f, cfg = _builtin("max_return_fuzzy", fd_step=1e-5)
        solve(f, cfg)
        assert traced_peak(solve, f, cfg) < 700 * 2**10

    def test_non_finite_derivative_ends_the_solve(self):
        # F = -1.6e308 at 0.5 and +-1.6e308 beside it are finite, but the
        # stencil's difference of them overflows: F' and F'' are inf
        f = crisp_lift(
            lambda x: np.where(np.asarray(x) > 0.5, 8e307, -8e307),
            domain=(0.0, 1.0),
        )
        res = solve(f, NewtonConfig(x0=0.5))
        assert res.status == STATUS_NON_FINITE
        assert (res.xstar, res.iterations) == (0.5, 0)
        assert res.stationarity_kind == "inconclusive"

    @pytest.mark.parametrize("value, status", [
        (1.0, STATUS_LEFT_DOMAIN),
        (np.nan, STATUS_NON_FINITE),
    ])
    def test_domain_too_narrow_for_a_stencil(self, value, status):
        # no stencil fits in [0, 1e-6] at h = 1e-5: F' raises DomainError,
        # after F(x) has been read, so a non-finite F(x) ends the solve
        # as non-finite, as with x fetched alone
        f = crisp_lift(lambda x: np.full(np.shape(x), value),
                       domain=(0.0, 1e-6))
        res = solve(f, NewtonConfig(x0=0.0))
        assert res.status == status
        assert (res.xstar, res.iterations) == (0.0, 0)

    @pytest.mark.parametrize("case", ["quadratic", "max_return_fuzzy",
                                      "non_finite"])
    def test_one_sided_steps_warn_as_before(self, case):
        # quadratic: F = 2 (x - 8e-6)^2 on [0, 1], h = 1e-5; from 0.5 the
        # central step lands within h of 0, and the two steps after it
        # read one-sided stencils, ending where the forward difference
        # vanishes, 3e-6. max_return_fuzzy on [0.6992, 0.8] from 0.8: its
        # last steps read one-sided stencils at the lower edge. non_finite:
        # F(0) is NaN, which ends the loop before its one-sided stencil is
        # read; only the end point's stationarity kind reads it. With x
        # and its stencil fetched apart, the solves warned 3, 3 and 1
        # times and reached these statuses
        if case == "quadratic":
            f = crisp_lift(lambda x: (np.asarray(x) - 8e-6) ** 2,
                           domain=(0.0, 1.0))
            cfg = NewtonConfig(x0=0.5, eps=1e-9,
                               scal=ScalarizationConfig(fd_step=1e-5))
            status, iterations, xstar, warned = STATUS_CONVERGED, 3, 3e-6, 3
        elif case == "max_return_fuzzy":
            f, cfg = _builtin("max_return_fuzzy")
            f = dataclasses.replace(f, domain=(0.6992, 0.8))
            cfg = dataclasses.replace(cfg, x0=0.8)
            status, iterations, xstar, warned = (
                STATUS_CONVERGED, 6, 0.6992064596329269, 3
            )
        else:
            f = crisp_lift(lambda x: np.full(np.shape(x), np.nan),
                           domain=(0.0, 1.0))
            cfg = NewtonConfig(x0=0.0)
            status, iterations, xstar, warned = STATUS_NON_FINITE, 0, 0.0, 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve(f, cfg)
        assert res.status == status
        assert res.iterations == iterations
        assert res.xstar == pytest.approx(xstar, abs=1e-15)
        assert [w.category for w in caught] == [OneSidedStencilWarning] * warned


class TestCopies:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_solve_result_pickles_and_deep_copies(self, name):
        # a FuzzyNumber's own attribute guard stopped both before
        f, cfg = _builtin(name)
        res = solve(f, cfg)
        pickled = pickle.loads(pickle.dumps(res))
        copied = copy.deepcopy(res)
        assert pickled == res and copied == res
        for old, new, same in zip(res.trace, pickled.trace, copied.trace):
            assert same.fuzzy_value is old.fuzzy_value
            value = new.fuzzy_value
            assert value.alphas is _grid(cfg.scal.alpha_points)
            for got, want in ((value.lo, old.fuzzy_value.lo),
                              (value.hi, old.fuzzy_value.hi)):
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable


class TestConvergenceOrder:
    def test_example_4_1_is_quadratic(self):
        res = solve(EX41, NewtonConfig(x0=1.0))
        est = estimate_convergence_order(res.trace, res.xstar)
        assert 1.8 <= est.order <= 2.2
        assert est.pairs_used >= 3
        assert est.constant > 0.0

    def test_synthetic_quadratic_sequence(self):
        # xstar = 0 keeps x_k = e_k exact in floating point
        xstar = 0.0
        errors = [1e-1, 1e-2, 1e-4, 1e-8, 1e-16]
        trace = [
            IterationRecord(
                k=k, x_k=xstar + e, F=0.0, dF=0.0, d2F=1.0, step=0.0,
                fuzzy_value=crisp(0.0, 5),
            )
            for k, e in enumerate(errors)
        ]
        est = estimate_convergence_order(trace, xstar)
        assert est.order == pytest.approx(2.0, abs=1e-9)

    def test_synthetic_linear_sequence(self):
        xstar = 0.0
        trace = [
            IterationRecord(
                k=k, x_k=0.5**k, F=0.0, dF=0.0, d2F=1.0, step=0.0,
                fuzzy_value=crisp(0.0, 5),
            )
            for k in range(8)
        ]
        est = estimate_convergence_order(trace, xstar)
        assert est.order == pytest.approx(1.0, abs=1e-9)

    def test_too_few_iterates_raises(self):
        res = solve(EX41, NewtonConfig(x0=1.0, max_iter=3))
        with pytest.raises(InsufficientDataError):
            estimate_convergence_order(res.trace, res.xstar)


class TestVerification:
    def test_converged_solution_verifies(self):
        cfg = NewtonConfig(x0=1.0)
        res = solve(EX41, cfg)
        rep = verify_solution(EX41, res, cfg)
        assert rep.ok
        assert rep.stationary
        assert abs(rep.d1) <= rep.stat_tol
        assert rep.d2 == pytest.approx(8.0, abs=1e-6)
        assert not rep.non_dominance.dominated
        assert any("non-dominance" in line for line in rep.lines())

    def test_verify_solution_is_check_point_at_xstar(self):
        # same defaults for the neighbourhood and the sample count
        cfg = NewtonConfig(x0=1.0)
        res = solve(EX41, cfg)
        assert verify_solution(EX41, res, cfg) == check_point(
            EX41, res.xstar, cfg
        )

    def test_non_converged_result_is_rejected(self):
        cfg = NewtonConfig(x0=-2.0 / 3.0)
        res = solve(EX41, cfg)
        with pytest.raises(ValueError):
            verify_solution(EX41, res, cfg)

    def test_check_point_flags_non_stationary_point(self):
        rep = check_point(EX41, 0.5, NewtonConfig(x0=0.5))
        assert not rep.stationary
        assert rep.non_dominance.dominated
        assert not rep.ok
        assert rep.verdict == "fail"
        assert rep.lines()[-1] == "verdict: fail"

    def test_check_point_accepts_exact_minimizer(self):
        rep = check_point(EX41, 0.0, NewtonConfig(x0=0.0))
        assert rep.ok and rep.verdict == "pass"
        assert rep.level_d1_max < 1e-8

    def test_check_point_with_no_sample_is_not_ok(self):
        rep = check_point(EX41, 0.0, NewtonConfig(x0=0.0), nbhd=1e-13)
        assert rep.stationary and not rep.non_dominance.dominated
        assert rep.non_dominance.samples == 0
        assert not rep.ok
        assert rep.verdict == "inconclusive"
        assert not rep.comp_plus.ok and not rep.comp_minus.ok

    def test_check_point_needs_room_for_the_stencil(self):
        # F' and F'' by the stencil: a domain narrower than it is an
        # error, not a silent evaluation outside the domain
        f = dataclasses.replace(EX41, domain=(0.0, 1e-9), d1_lo=None,
                                d1_hi=None, d2_lo=None, d2_hi=None)
        with pytest.raises(DomainError, match="too narrow"):
            check_point(f, 5e-10, NewtonConfig(x0=5e-10))

    @pytest.mark.parametrize("ends", ["built-in", "wrapped"])
    def test_analytic_check_point_without_room_has_no_level_slope(self,
                                                                  ends):
        # analytic F' and F'' need no stencil, so only the level slopes
        # are not available: nan, worded once; a verification raised
        # DomainError here, and so did a converged solve's report
        f = dataclasses.replace(EX41, domain=(0.0, 1e-6))
        if ends == "wrapped":
            f = dataclasses.replace(f, level_lo=lambda x, a: EX41.level_lo(x, a))
        cfg = NewtonConfig(x0=0.0)
        res = solve(f, cfg)
        assert (res.status, res.stationarity_kind) == (STATUS_CONVERGED,
                                                        "local-min")
        rep = verify_solution(f, res, cfg)
        assert math.isnan(rep.level_d1_max)
        assert (rep.d1, rep.d2) == (0.0, 8.0)
        assert rep.lines()[2] == ("max level derivative magnitude = n/a "
                                  "(no finite-difference stencil fits in "
                                  "the domain)")
        assert rep.verdict == "inconclusive"

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_check_point_rejects_a_non_finite_point(self, x):
        # the config's x0 is not read; an infinite x on an unbounded
        # domain used to take a one-sided stencil with a warning and end
        # in NumericError, a NaN x in DomainError
        with pytest.raises(ValueError, match=f"xstar must be finite, got {x}"):
            check_point(EX41, x, NewtonConfig(x0=0.0))

    def test_stat_tol_scales_with_curvature(self):
        rep = check_point(EX41, 0.0, NewtonConfig(x0=0.0))
        # 10 * eps * max(1, |F''|) with F'' = 8
        assert rep.stat_tol == pytest.approx(8e-4)
