"""Tests for the built-in problems, config parsing, and the grid oracle."""

import dataclasses
import json
import math

import numpy as np
import pytest

from fuzzynewton import (
    BUILTIN_NAMES,
    ConfigFormatError,
    DomainError,
    FuzzyFunction,
    MaxReturnParams,
    NewtonConfig,
    NumericError,
    ProblemSpec,
    ScalarizationConfig,
    SingularLevelError,
    TriangularFuzzy,
    build_example_4_1,
    build_fuzzy_polynomial,
    build_max_return_crisp,
    build_max_return_fuzzy,
    eval_fuzzy,
    grid_search_min,
    parse_problem_config,
    resolve_problem,
    scalarize,
    scalarize_d1,
    scalarize_d2,
    scalarize_many,
    serialize_problem_config,
    solve,
)
from fuzzynewton.fuzzy_core import _grid

from helpers import assert_same_bits, traced_peak
from test_level_map_calls import LEVEL_FIELDS

CFG = ScalarizationConfig()


class TestFuzzyPolynomial:
    def test_example_levels_at_one(self):
        f = build_example_4_1()
        v = eval_fuzzy(f, 1.0, 11)
        assert v.lo[0] == pytest.approx(1.0)
        assert v.hi[0] == pytest.approx(5.0)
        assert v.lo[-1] == pytest.approx(3.0)

    def test_negative_x_flips_coefficient_roles(self):
        f = build_example_4_1()
        # at x = -1: x^2 term keeps (1,2,3), x^3 term contributes (-2,-1,0)
        v = eval_fuzzy(f, -1.0, 11)
        assert v.lo[0] == pytest.approx(1.0 - 2.0)
        assert v.hi[0] == pytest.approx(3.0 - 0.0)
        assert v.lo[-1] == pytest.approx(2.0 - 1.0)

    def test_analytic_derivatives_match_closed_form(self):
        f = build_example_4_1()
        for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
            assert scalarize_d1(f, x, CFG) == pytest.approx(
                8.0 * x + 6.0 * x**2, abs=1e-10
            )
            assert scalarize_d2(f, x, CFG) == pytest.approx(
                8.0 + 12.0 * x, abs=1e-10
            )

    def test_constant_and_linear_terms(self):
        f = build_fuzzy_polynomial(
            (TriangularFuzzy(1.0, 2.0, 3.0), TriangularFuzzy(0.0, 1.0, 2.0))
        )
        v = eval_fuzzy(f, 2.0, 11)
        assert v.lo[0] == pytest.approx(1.0)
        assert v.hi[0] == pytest.approx(3.0 + 4.0)
        assert scalarize_d1(f, 2.0, CFG) == pytest.approx(2.0)
        assert scalarize_d2(f, 2.0, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_needs_at_least_one_coefficient(self):
        with pytest.raises(ValueError):
            build_fuzzy_polynomial(())


@pytest.mark.parametrize("build", [build_example_4_1, build_max_return_fuzzy])
def test_levels_follow_an_alpha_array_changed_in_place(build):
    # coefficient cuts are kept only for the shared grid, never for an
    # alpha array of the caller's own
    f, fresh = build(), build()
    alphas = np.linspace(0.0, 1.0, 5)
    maps = [k for k in LEVEL_FIELDS if getattr(f, k) is not None]
    for k in maps:
        getattr(f, k)(0.5, alphas)
    alphas[:] = [1.0, 0.75, 0.5, 0.25, 0.0]
    for k in maps:
        np.testing.assert_array_equal(
            getattr(f, k)(0.5, alphas), getattr(fresh, k)(0.5, alphas.copy())
        )


X_COLUMN = np.array([[-1.5], [-0.3], [0.0], [0.7]])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_levels_on_alternating_shared_grids_match_a_fresh_function(name):
    # the alpha-side table is kept for the last shared grid only; going
    # back to a grid seen before must not serve the other grid's table
    def build():
        return resolve_problem(ProblemSpec(kind=name)).function

    f = build()
    maps = [k for k in LEVEL_FIELDS if getattr(f, k) is not None]
    for grid in (_grid(101), _grid(1001), _grid(101)):
        for x in (0.7, X_COLUMN):
            for k in maps:
                assert_same_bits(
                    getattr(f, k)(x, grid), getattr(build(), k)(x, grid)
                )


# Bounds on the tracemalloc peak of one level-map call on a 102-row
# x-column at 101 levels, one scalarize_many block, in arrays of that
# block's size: the maps read 4.72-4.73 (example_4_1), 2.62
# (max_return_crisp) and 4.17/3.83 (max_return_fuzzy's lo/hi).  Each
# bound is within one array of what the maps read, so a map that keeps
# one more block-sized temporary alive fails here: the grid oracle's
# page faults sit in these maps, and its block budget sits near a fault
# edge (see level_calculus._BLOCK_VALUES).
MAP_PEAK_BLOCKS = {
    "example_4_1": 5.5, "max_return_crisp": 3.5, "max_return_fuzzy": 4.5,
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_level_map_peak_in_one_block(name):
    f = resolve_problem(ProblemSpec(kind=name)).function
    grid = _grid(101)
    xs = np.linspace(0.3, 0.9, 102)[:, None]
    block_bytes = xs.size * grid.size * 8
    for k in LEVEL_FIELDS:
        level = getattr(f, k)
        if level is None:
            continue
        level(xs, grid)  # the alpha-side table, built once per grid
        blocks = traced_peak(level, xs, grid) / block_bytes
        assert blocks < MAP_PEAK_BLOCKS[name], (k, blocks)


def test_polynomial_maps_match_a_term_by_term_reference():
    coeffs = (
        TriangularFuzzy(-2.0, -1.5, 0.5),
        TriangularFuzzy(0.25, 1.0, 3.0),
        TriangularFuzzy(-4.0, -3.0, -2.5),
        TriangularFuzzy(0.5, 0.75, 2.0),
        TriangularFuzzy(-1.0, 0.125, 0.5),
    )
    f = build_fuzzy_polynomial(coeffs)
    a = _grid(101)

    def reference(order, lower, x):
        # d^n/dx^n of sum_i c_i x^i, one nonzero term at a time; a term
        # takes the lower cut where x^i >= 0 and the upper one elsewhere
        x = np.asarray(x, float)
        out = np.zeros(np.broadcast(x, a).shape)
        for i in range(order, len(coeffs)):
            c = coeffs[i]
            lo = (1.0 - a) * c.left + a * c.peak
            hi = (1.0 - a) * c.right + a * c.peak
            if not lower:
                lo, hi = hi, lo
            d = math.perm(i, order) * x ** (i - order)
            out = out + np.where(x**i >= 0.0, lo, hi) * d
        return out

    for order, prefix in enumerate(("level", "d1", "d2")):
        for side in ("lo", "hi"):
            level = getattr(f, f"{prefix}_{side}")
            for x in (-1.5, -0.3, 0.0, 0.7, X_COLUMN):
                want = reference(order, side == "lo", x)
                assert_same_bits(level(x, a), want)


class TestMaxReturnParams:
    def test_crisp_and_fuzzy_forms(self):
        crisp_p = MaxReturnParams(Va=0.00168, rho=1.0)
        assert not crisp_p.is_fuzzy
        fuzzy_p = MaxReturnParams(
            Va=TriangularFuzzy(0.00167, 0.00168, 0.00172), rho=1.0
        )
        assert fuzzy_p.is_fuzzy

    def test_nonpositive_va_rejected(self):
        with pytest.raises(SingularLevelError):
            MaxReturnParams(Va=0.0, rho=1.0)
        with pytest.raises(SingularLevelError):
            MaxReturnParams(Va=TriangularFuzzy(-0.001, 0.001, 0.002), rho=1.0)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ValueError):
            MaxReturnParams(Va=0.00168, rho=0.0)
        with pytest.raises(ValueError):
            MaxReturnParams(Va=0.00168, rho=TriangularFuzzy(-1.0, 0.5, 1.0))


class TestMaxReturnProblems:
    def test_crisp_levels_are_flat(self):
        f = build_max_return_crisp(MaxReturnParams(Va=0.00168, rho=1.0))
        v = eval_fuzzy(f, 0.7, 21)
        assert np.all(v.lo == v.lo[0])
        assert np.all(v.hi == v.lo)

    def test_crisp_analytic_derivatives_match_fd(self):
        f = build_max_return_crisp(MaxReturnParams(Va=0.00168, rho=1.0))
        bare = dataclasses.replace(
            f, d1_lo=None, d1_hi=None, d2_lo=None, d2_hi=None
        )
        for x in (0.3, 0.6989, 1.0):
            assert scalarize_d1(f, x, CFG) == pytest.approx(
                scalarize_d1(bare, x, CFG), rel=1e-5, abs=1e-5
            )

    def test_fuzzy_core_collapses_at_alpha_one(self):
        f = build_max_return_fuzzy()
        for x in (0.2, 0.7, 1.3):
            v = eval_fuzzy(f, x, 101)
            assert abs(v.hi[-1] - v.lo[-1]) <= 1e-12

    def test_fuzzy_brackets_the_crisp_objective(self):
        fuzzy = build_max_return_fuzzy()
        for x in (0.3, 0.7, 1.1):
            v = eval_fuzzy(fuzzy, x, 101)
            assert v.lo[0] <= v.lo[-1] + 1e-12
            assert v.hi[0] >= v.hi[-1] - 1e-12

    def test_fuzzy_rejects_nonpositive_va_support(self):
        # the weight 1/Va^2 needs the whole support above zero
        with pytest.raises(SingularLevelError):
            MaxReturnParams(Va=TriangularFuzzy(0.0, 1e-5, 2e-5), rho=1.0)
        with pytest.raises(SingularLevelError):
            MaxReturnParams(Va=TriangularFuzzy(-1e-5, 1e-5, 2e-5), rho=1.0)
        build_max_return_fuzzy(
            MaxReturnParams(Va=TriangularFuzzy(1e-5, 2e-5, 3e-5), rho=1.0)
        )

    def test_triangular_peaks_collapse_to_crisp(self):
        tri_params = MaxReturnParams(
            Va=TriangularFuzzy(0.00168, 0.00168, 0.00168),
            rho=TriangularFuzzy(1.0, 1.0, 1.0),
        )
        crisp_f = build_max_return_crisp(MaxReturnParams(Va=0.00168, rho=1.0))
        fuzzy_f = build_max_return_fuzzy(tri_params)
        for x in (0.4, 0.9):
            assert scalarize(fuzzy_f, x, CFG) == pytest.approx(
                scalarize(crisp_f, x, CFG), rel=1e-10
            )


class TestResolveProblem:
    def test_builtin_names(self):
        assert set(BUILTIN_NAMES) == {
            "example_4_1", "max_return_crisp", "max_return_fuzzy"
        }
        for name in BUILTIN_NAMES:
            resolved = resolve_problem(ProblemSpec(kind=name))
            assert resolved.x0 == 1.0
            assert resolved.eps == 1e-5
            assert resolved.bracket[0] < resolved.bracket[1]

    def test_fuzzy_builtin_recommends_wider_fd_step(self):
        fuzzy = resolve_problem(ProblemSpec(kind="max_return_fuzzy"))
        crisp = resolve_problem(ProblemSpec(kind="max_return_crisp"))
        assert fuzzy.scal.fd_step == 1e-4
        assert crisp.scal.fd_step == 1e-5

    def test_unknown_kind(self):
        with pytest.raises(ConfigFormatError):
            resolve_problem(ProblemSpec(kind="mystery"))
        with pytest.raises(ConfigFormatError):
            ProblemSpec(kind="fuzzy_polynomial")  # needs coefficients

    def test_overrides(self):
        spec = ProblemSpec(
            kind="example_4_1", x0=0.25, eps=1e-8, alpha_points=51
        )
        resolved = resolve_problem(spec)
        assert resolved.x0 == 0.25
        assert resolved.eps == 1e-8
        assert resolved.scal.alpha_points == 51

    def test_polynomial_domain_override(self):
        spec = ProblemSpec(
            kind="fuzzy_polynomial",
            coefficients=(
                TriangularFuzzy(0.0, 0.0, 0.0),
                TriangularFuzzy(0.0, 0.0, 0.0),
                TriangularFuzzy(1.0, 2.0, 3.0),
            ),
            domain=(-1.0, 1.0),
        )
        resolved = resolve_problem(spec)
        assert resolved.function.domain == (-1.0, 1.0)

    @pytest.mark.parametrize("kind", BUILTIN_NAMES)
    def test_domain_applies_to_every_kind(self, kind):
        spec = parse_problem_config(
            json.dumps({"kind": kind, "domain": [0.25, 1.0]})
        )
        for sense in ("minimize", "maximize"):
            resolved = resolve_problem(dataclasses.replace(spec, sense=sense))
            assert resolved.function.domain == (0.25, 1.0)
            assert resolved.bracket == (0.25, 1.0)
        with pytest.raises(DomainError):
            scalarize(resolved.function, 0.0, resolved.scal)

    def test_grid_size_is_checked_when_resolved(self):
        for text in ('{"kind": "example_4_1", "alpha_points": 11.9}',
                     '{"kind": "example_4_1", "alpha_points": 101.0}'):
            spec = parse_problem_config(text)
            with pytest.raises(ValueError, match="must be an integer"):
                resolve_problem(spec)
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_problem(ProblemSpec(kind="example_4_1", alpha_points=11.9))

    @pytest.mark.parametrize("kind", BUILTIN_NAMES)
    def test_reversed_domain_is_rejected_when_resolved(self, kind):
        spec = parse_problem_config(
            json.dumps({"kind": kind, "domain": [1, -1]})
        )
        with pytest.raises(ValueError, match="needs lo <= hi"):
            resolve_problem(spec)
        with pytest.raises(ValueError, match="needs lo <= hi"):
            resolve_problem(ProblemSpec(kind=kind, domain=(1.0, -1.0)))

    def test_polynomial_label_and_settings(self):
        spec = ProblemSpec(
            kind="fuzzy_polynomial",
            coefficients=(TriangularFuzzy(0.0, 1.0, 2.0),) * 3,
            sense="maximize", x0=0.5,
        )
        resolved = resolve_problem(spec)
        assert resolved.label == "-(fuzzy_polynomial(degree=2))"
        assert (resolved.x0, resolved.eps) == (0.5, 1e-5)
        assert (resolved.bracket, resolved.params) == (None, None)
        assert resolved.scal == ScalarizationConfig()

    @pytest.mark.parametrize("kind", BUILTIN_NAMES)
    def test_maximize_sense_negates_the_objective(self, kind):
        plain = resolve_problem(ProblemSpec(kind=kind))
        flipped = resolve_problem(ProblemSpec(kind=kind, sense="maximize"))
        assert flipped.label == f"-({plain.label})"
        for x in (0.25, 0.7, 1.0):
            assert scalarize(flipped.function, x, flipped.scal) == -scalarize(
                plain.function, x, plain.scal
            )


class TestConfigFiles:
    def test_round_trip(self):
        spec = ProblemSpec(
            kind="max_return_fuzzy",
            params=MaxReturnParams(
                Va=TriangularFuzzy(0.00167, 0.00168, 0.00172),
                rho=TriangularFuzzy(0.5, 1.5, 3.5),
            ),
            x0=1.0,
            eps=1e-5,
            alpha_points=101,
        )
        text = serialize_problem_config(spec)
        assert parse_problem_config(text) == spec
        # emitted text is stable under a parse/serialize cycle
        assert serialize_problem_config(parse_problem_config(text)) == text

    def test_parse_minimal(self):
        spec = parse_problem_config('{"kind": "example_4_1"}')
        assert spec.kind == "example_4_1"
        assert spec.x0 is None

    def test_parse_polynomial(self):
        text = json.dumps(
            {
                "kind": "fuzzy_polynomial",
                "coefficients": [[0, 0, 0], [1, 1, 1], [1, 2, 3]],
                "x0": 0.5,
            }
        )
        spec = parse_problem_config(text)
        assert len(spec.coefficients) == 3
        assert spec.coefficients[2] == TriangularFuzzy(1.0, 2.0, 3.0)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigFormatError):
            parse_problem_config('{"kind": "example_4_1", "woops": 1}')

    @pytest.mark.parametrize("config", [
        {"kind": "example_4_1", "params": {"Va": 0.00168, "rho": 1.0}},
        {"kind": "fuzzy_polynomial", "coefficients": [[1, 2, 3]],
         "params": {"Va": 0.00168, "rho": 1.0}},
        {"kind": "example_4_1", "coefficients": [[1, 2, 3]]},
        {"kind": "max_return_crisp", "coefficients": [[1, 2, 3]]},
        {"kind": "max_return_fuzzy", "coefficients": [[1, 2, 3]]},
    ])
    def test_parse_rejects_keys_the_kind_ignores(self, config):
        with pytest.raises(ConfigFormatError, match="takes no"):
            parse_problem_config(json.dumps(config))

    def test_parse_rejects_bad_json(self):
        with pytest.raises(ConfigFormatError):
            parse_problem_config("{not json")

    @pytest.mark.parametrize("config, message", [
        ({"x0": True}, "x0 must be a number, got True"),
        ({"x0": "1"}, "x0 must be a number, got '1'"),
        ({"x0": [1]}, "x0 must be a number, got [1]"),
        ({"x0": 10**400}, "x0 is out of a float's range"),
        ({"eps": {}}, "eps must be a number, got {}"),
        ({"domain": [[0], 1]}, "a domain bound must be a number, got [0]"),
        ({"domain": [0, 1, 2]}, "domain must be a [lo, hi] pair"),
        ({"kind": ["example_4_1"]}, "unknown problem kind ['example_4_1']"),
        ({"kind": "max_return_crisp", "params": {"Va": True, "rho": 1}},
         "Va must be a number, got True"),
        ({"kind": "max_return_crisp", "params": {"Va": 0.00168}},
         "params must be an object with keys 'Va' and 'rho'"),
        ({"kind": "fuzzy_polynomial", "coefficients": [["1", 2, 3]]},
         "an entry of a coefficient must be a number, got '1'"),
        ({"kind": "fuzzy_polynomial", "coefficients": {"a": [1, 2, 3]}},
         "coefficients must be a list of [left, peak, right] triples"),
    ])
    def test_a_number_is_a_json_int_or_float(self, config, message):
        # every number goes through one reader: not a bool, a string or
        # a container, each a ConfigFormatError naming the key
        with pytest.raises(ConfigFormatError) as err:
            parse_problem_config(json.dumps({"kind": "example_4_1", **config}))
        assert message in str(err.value)

    def test_null_is_absent_for_every_key(self):
        config = {key: None for key in
                  ("coefficients", "params", "domain", "sense", "x0", "eps",
                   "alpha_points")}
        spec = parse_problem_config(
            json.dumps({"kind": "example_4_1", **config})
        )
        assert spec == ProblemSpec(kind="example_4_1")
        with pytest.raises(ConfigFormatError, match="'kind' key"):
            parse_problem_config('{"kind": null}')

    def test_parse_rejects_bad_params(self):
        with pytest.raises(ConfigFormatError):
            parse_problem_config(
                '{"kind": "max_return_crisp", '
                '"params": {"Va": [1, 2], "rho": 1}}'
            )


class TestGridOracle:
    def test_matches_newton_on_example(self):
        resolved = resolve_problem(ProblemSpec(kind="example_4_1"))
        res = solve(
            resolved.function,
            NewtonConfig(x0=resolved.x0, eps=resolved.eps,
                         scal=resolved.scal),
        )
        xg = grid_search_min(
            resolved.function, resolved.bracket, resolved.scal
        )
        assert abs(res.xstar - xg) <= 1e-4

    def test_locates_known_parabola_vertex(self):
        f = build_fuzzy_polynomial(
            (
                TriangularFuzzy(0.0, 0.0, 0.0),
                TriangularFuzzy(-2.0, -2.0, -2.0),
                TriangularFuzzy(1.0, 1.0, 1.0),
            )
        )
        xg = grid_search_min(f, (0.0, 2.5), CFG, step=1e-4)
        assert xg == pytest.approx(1.0, abs=2e-4)

    def test_two_blocks_match_a_chunked_argmin(self):
        # the minimizer near 0.6993 lies past the first 20000 of 30001
        # points, and an argmin taken in 20000-point chunks finds what
        # grid_search_min finds
        f = build_max_return_fuzzy()
        a, step, n = 0.45, 1e-5, 30001
        best_x, best_v = None, math.inf
        for start in range(0, n, 20000):
            xs = a + step * np.arange(start, min(start + 20000, n))
            vals = scalarize_many(f, xs, CFG)
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_x, best_v = float(xs[i]), float(vals[i])
        assert best_x > a + 20000 * step
        assert grid_search_min(f, (a, 0.75), CFG) == best_x

    def test_grid_stays_in_a_bracket_of_no_whole_number_of_steps(self):
        # every grid point lies in [a, b], and b is the last; rounding
        # (b - a) / step to whole steps used to miss either
        f = build_example_4_1()
        # 1.61 steps rounded to 2 answered 0.06, past b
        assert grid_search_min(f, (-0.5, -0.05), CFG, step=0.28) == -0.05
        # 1.29 steps rounded to 1 answered -0.15, missing the lower F(b)
        assert grid_search_min(f, (-0.5, -0.05), CFG, step=0.35) == -0.05
        # 3.57 steps rounded to 4 raised DomainError at x = 1.12
        bounded = dataclasses.replace(f, domain=(0.0, 1.0))
        assert grid_search_min(bounded, (0.0, 1.0), CFG, step=0.28) == 0.0
        # (b - a) / step rounds to 126.00000000000001, and a + 126 * step
        # rounds to a few ulps past b
        a, b = -2.2886968657315765, 1.76790643234723
        bounded = dataclasses.replace(f, domain=(a, b))
        assert grid_search_min(bounded, (a, b), CFG,
                               step=0.03219526427046672) == a

    def test_reversed_bracket_or_bad_step_raises(self):
        f = build_example_4_1()
        with pytest.raises(ValueError, match="reversed"):
            grid_search_min(f, (1.0, 0.0), CFG)
        for step in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be positive"):
                grid_search_min(f, (0.0, 1.0), CFG, step=step)
        for bracket in (
            (-0.5, math.inf), (-math.inf, 0.5), (-math.inf, math.inf),
            (math.nan, 0.5),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                grid_search_min(f, bracket, CFG)
        # finite inputs whose point count (b - a) / step overflows
        for bracket, step in (((-1e308, 1e308), 1e-5), ((0.0, 1.0), 5e-324)):
            with pytest.raises(ValueError, match="has too many points"):
                grid_search_min(f, bracket, CFG, step=step)

    def test_nan_in_the_bracket_raises(self):
        # F = (x - 0.5)^2 per level, NaN below x = 0.2: argmin used to
        # pick the NaN, so the answer depended on where chunks began
        def level(x, a):
            x = np.asarray(x, float)
            return np.where(x < 0.2, np.nan, (x - 0.5) ** 2) + 0.0 * a

        f = FuzzyFunction(level_lo=level, level_hi=level)
        with pytest.raises(NumericError):
            grid_search_min(f, (0.0, 1.0), CFG, step=1e-4)
