"""Acceptance checks: reference reproductions, convergence quality,
randomized invariant sweeps, oracle agreement, and the CLI contract.

Each test_criterion_N function is reported with its own pass/fail line
in the terminal summary (see conftest).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from fuzzynewton import (
    FuzzyNumber,
    HukuharaNonexistence,
    MaxReturnParams,
    ProblemSpec,
    ScalarizationConfig,
    TriangularFuzzy,
    add,
    build_example_4_1,
    build_fuzzy_polynomial,
    centroid,
    crisp,
    crisp_lift,
    distance,
    estimate_convergence_order,
    eval_fuzzy,
    grid_search_min,
    hukuhara_diff,
    leq,
    levels_equal,
    lt,
    mul,
    negate,
    resolve_problem,
    scalar_mul,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    solve,
    square,
)
from fuzzynewton.cli import main

CFG = ScalarizationConfig()
N_CASES = 200


def solve_builtin(kind, **params):
    spec = ProblemSpec(
        kind=kind,
        params=MaxReturnParams(**params) if params else None,
    )
    resolved = resolve_problem(spec)
    cfg = resolved.config
    return resolved, cfg, solve(resolved.function, cfg)


def test_criterion_1_crisp_maximum_return_reproduction():
    """Four (Va, rho) instances reproduce the reference solutions."""
    cases = [
        ((0.00168, 1.0), 0.6989),
        ((0.00168, 1.5), 0.6988),
        ((0.00169, 1.5), 0.6994),
        ((0.00169, 2.0), 0.6993),
    ]
    t0 = time.perf_counter()
    for (va, rho), want_x in cases:
        resolved, cfg, res = solve_builtin(
            "max_return_crisp", Va=va, rho=rho
        )
        assert res.status == "converged"
        assert abs(res.xstar - want_x) <= 5e-4
        value = centroid(eval_fuzzy(resolved.function, res.xstar, 101))
        assert abs(value - (-1.1633)) <= 5e-4
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_fuzzy_maximum_return_reproduction():
    """Triangular (Va, rho) instance lands on the reference solution."""
    t0 = time.perf_counter()
    resolved, cfg, res = solve_builtin(
        "max_return_fuzzy",
        Va=TriangularFuzzy(0.00167, 0.00168, 0.00172),
        rho=TriangularFuzzy(0.5, 1.5, 3.5),
    )
    assert cfg.scal.alpha_points == 101
    assert res.status == "converged"
    assert abs(res.xstar - 0.6988) <= 1e-3
    value = centroid(eval_fuzzy(resolved.function, res.xstar, 101))
    assert abs(value - (-1.1631)) <= 5e-3
    assert time.perf_counter() - t0 < 2.0


def test_criterion_3_cubic_example_iterates():
    """From x0 = 1 the iterates follow x - (6x^2+8x)/(12x+8) step by step."""
    resolved, cfg, res = solve_builtin("example_4_1")
    assert res.status == "converged"
    assert abs(res.xstar) < 1e-6
    assert res.iterations <= 8
    xs = res.iterates()
    assert xs[0] == 1.0
    for prev, nxt in zip(xs, xs[1:]):
        predicted = prev - (6.0 * prev**2 + 8.0 * prev) / (12.0 * prev + 8.0)
        assert abs(nxt - predicted) <= 1e-9
    for got, want in zip(xs, (1.0, 0.3, 0.046552, 0.0015193)):
        assert got == pytest.approx(want, abs=1e-6)


def test_criterion_4_quadratic_convergence_order():
    """Tail slopes of both reference traces sit in the quadratic band."""
    for kind in ("example_4_1", "max_return_crisp"):
        _, _, res = solve_builtin(kind)
        est = estimate_convergence_order(res.trace, res.xstar)
        assert 1.8 <= est.order <= 2.2, f"{kind}: order {est.order}"


def _random_fuzzy(rng, m=21):
    alphas = np.linspace(0.0, 1.0, m)
    c = rng.uniform(-50.0, 50.0)
    s_lo, s_hi = rng.uniform(0.0, 20.0, size=2)
    q, r = rng.uniform(0.3, 2.5, size=2)
    dec = 1.0 - alphas
    return FuzzyNumber(alphas, c - s_lo * dec**q, c + s_hi * dec**r)


def test_criterion_5_randomized_property_sweeps():
    """Seeded 200-case sweeps of the library's structural invariants.

    The hypothesis suites in test_properties.py cover the same ground
    with adversarial generation; this sweep keeps the acceptance run
    deterministic.
    """
    rng = np.random.default_rng(20240817)

    def valid(a):
        slack = 1e-9 * max(1.0, np.max(np.abs(a.lo)), np.max(np.abs(a.hi)))
        assert np.all(a.lo <= a.hi + slack)
        assert np.all(np.diff(a.lo) >= -slack)
        assert np.all(np.diff(a.hi) <= slack)

    # arithmetic closure + order + metric + Hukuhara + square/product
    for _ in range(N_CASES):
        a, b, c = (_random_fuzzy(rng) for _ in range(3))
        scale = rng.uniform(-10.0, 10.0)
        for result in (add(a, b), scalar_mul(scale, a), mul(a, b),
                       square(a)):
            valid(result)

        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert levels_equal(a, b)
        if leq(a, b) and leq(b, c):
            assert leq(a, c)

        slack = 1e-9 * max(
            1.0, *(np.max(np.abs(v.lo)) for v in (a, b, c)),
            *(np.max(np.abs(v.hi)) for v in (a, b, c)),
        )
        assert distance(a, a) == 0.0
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + slack

        total = add(a, b)
        h = hukuhara_diff(total, b)
        assert isinstance(h, FuzzyNumber)
        assert levels_equal(add(h, b), total, tol=slack)
        maybe = hukuhara_diff(a, b)
        if isinstance(maybe, HukuharaNonexistence):
            assert not maybe
        else:
            assert levels_equal(add(maybe, b), a, tol=slack)

        sq, prod = square(a), mul(a, a)
        assert np.all(sq.lo >= prod.lo - slack)
        assert np.all(sq.hi <= prod.hi + slack)

    # scalarize antisymmetry under negation + crisp collapse F = 2 g
    for _ in range(N_CASES):
        coeffs = tuple(
            TriangularFuzzy(l, l + u1, l + u1 + u2)
            for l, u1, u2 in rng.uniform(0.0, 3.0, size=(3, 3)) - [2, 0, 0]
        )
        f = build_fuzzy_polynomial(coeffs)
        x = rng.uniform(-3.0, 3.0)
        assert scalarize(negate(f), x, CFG) == pytest.approx(
            -scalarize(f, x, CFG), rel=1e-12, abs=1e-12
        )

        c0, c1, c2 = rng.uniform(-5.0, 5.0, size=3)
        g = crisp_lift(lambda t: np.asarray(c0 + c1 * t + c2 * t * t))
        assert scalarize(g, x, CFG) == pytest.approx(
            2.0 * (c0 + c1 * x + c2 * x * x), rel=1e-12, abs=1e-12
        )

    # FD fallback against the analytic level derivatives on the builtins;
    # the second derivative carries an inherent 4 ulp(F) / h^2 roundoff
    # floor near curvature-cancellation points, hence its wider band
    targets = [
        (build_example_4_1(), (-2.0, 2.0)),
        (resolve_problem(ProblemSpec(kind="max_return_crisp")).function,
         (0.2, 1.2)),
    ]
    for f, (lo, hi) in targets:
        bare = dataclasses.replace(
            f, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None
        )
        for x in rng.uniform(lo, hi, size=N_CASES):
            x = float(x)
            d1a = scalarize_d1(f, x, CFG)
            d1f = scalarize_d1(bare, x, CFG)
            assert abs(d1f - d1a) <= 1e-5 * max(1.0, abs(d1a))
            d2a = scalarize_d2(f, x, CFG)
            d2f = scalarize_d2(bare, x, CFG)
            assert abs(d2f - d2a) <= 1e-3 * max(1.0, abs(d2a))


def test_criterion_6_grid_oracle_equivalence():
    """Newton lands within 1e-4 of a 1e-5-step scan of each bracket."""
    for kind in ("example_4_1", "max_return_crisp", "max_return_fuzzy"):
        resolved, _, res = solve_builtin(kind)
        assert res.status == "converged"
        xg = grid_search_min(
            resolved.function, resolved.bracket, resolved.config.scal,
            step=1e-5,
        )
        assert abs(res.xstar - xg) <= 1e-4, f"{kind}: {res.xstar} vs {xg}"


def test_criterion_7_cli_contract(capsys):
    """Documented solve invocations exit 0/0/2; JSON round-trips exactly."""
    code = main(["solve", "--problem", "max_return_crisp",
                 "--Va", "0.00168", "--rho", "1", "--x0", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.698908" in out and "-1.16328" in out

    code = main(["solve", "--problem", "example_4_1", "--x0", "1"])
    assert code == 0
    assert "converged" in capsys.readouterr().out

    # the curvature guard trips at the exact curvature zero -2/3;
    # the 4-digit rounding -0.6667 sits just off it and instead slides
    # to the local maximizer (asserted below as documented behavior)
    code = main(["solve", "--problem", "example_4_1",
                 "--x0", "-0.6666666666666666"])
    assert code == 2
    assert "second-derivative-near-zero" in capsys.readouterr().out

    code = main(["solve", "--problem", "example_4_1", "--x0", "-0.6667"])
    assert code == 0
    assert "local-max" in capsys.readouterr().out

    for kind in ("example_4_1", "max_return_crisp", "max_return_fuzzy"):
        code = main(["solve", "--problem", kind, "--format", "json"])
        assert code == 0
        text = capsys.readouterr().out
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" \
            == text
