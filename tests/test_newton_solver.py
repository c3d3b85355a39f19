"""Tests for the scalarized Newton iteration and its diagnostics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fuzzynewton import (
    DomainError,
    FuzzyNumber,
    InsufficientDataError,
    IterationRecord,
    NewtonConfig,
    OneSidedStencilWarning,
    ProblemSpec,
    STATUS_CONVERGED,
    STATUS_D2_NEAR_ZERO,
    STATUS_LEFT_DOMAIN,
    STATUS_MAX_ITER,
    STATUS_NON_FINITE,
    build_example_4_1,
    check_point,
    crisp,
    crisp_lift,
    estimate_convergence_order,
    resolve_problem,
    solve,
    verify_solution,
)

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
        scal = dataclasses.replace(resolved.scal, fd_step=1e-5)
        res = solve(resolved.function, NewtonConfig(
            x0=resolved.x0, eps=resolved.eps, scal=scal,
        ))
        assert res.status == STATUS_MAX_ITER
        assert res.stationarity_kind == "not-stationary"


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
        # analytic d1/d2, but the level slopes still take a stencil: a
        # domain narrower than it is an error, not a silent evaluation
        # outside the domain
        f = dataclasses.replace(EX41, domain=(0.0, 1e-9))
        with pytest.raises(DomainError):
            check_point(f, 5e-10, NewtonConfig(x0=5e-10))

    def test_stat_tol_scales_with_curvature(self):
        rep = check_point(EX41, 0.0, NewtonConfig(x0=0.0))
        # 10 * eps * max(1, |F''|) with F'' = 8
        assert rep.stat_tol == pytest.approx(8e-4)
