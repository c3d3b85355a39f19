"""Level-map calls per operation, counted by wrapping a function's six
level fields with ``dataclasses.replace``, and level-pair fetches of an
unwrapped built-in, counted by wrapping ``level_calculus._levels``.  A
function whose ends are wrapped calls each end, so the end counts are
twice the fetches.

The count does not depend on the hardware, so it pins the work an
operation does: a change that evaluates more or fewer level maps shows
here even where wall times are too noisy to tell.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from fuzzynewton import TriangularFuzzy, cli
from fuzzynewton import level_calculus
from fuzzynewton.level_calculus import _block_rows
from fuzzynewton.newton_solver import (
    NewtonConfig,
    check_point,
    solve,
    verify_solution,
)
from fuzzynewton.problems import ProblemSpec, resolve_problem

from test_cli_golden import FILES

LEVEL_FIELDS = ("level_lo", "level_hi", "d1_lo", "d1_hi", "d2_lo", "d2_hi")


class Counter:
    def __init__(self):
        self.calls = 0

    def wrap(self, f):
        """f with each of its level maps counting its calls here."""

        def counted(level_map):
            def level(x, a):
                self.calls += 1
                return level_map(x, a)

            return level

        return dataclasses.replace(f, **{
            k: counted(getattr(f, k))
            for k in LEVEL_FIELDS if getattr(f, k) is not None
        })


def _builtin(name):
    resolved = resolve_problem(ProblemSpec(kind=name))
    return resolved.function, resolved.config


# (solve, verify_solution) at each built-in's recommended settings.
# solve ends with F' and F'' at xstar for its stationarity kind: with
# analytic derivatives, 2 calls each; by the stencil, a scalarize call
# pair per stencil point. Each finite-difference iterate fetches x and
# its stencil as one x-column, one call pair: max_return_fuzzy's 11
# iterations and its stationarity kind make 2 x (11 + 3). Fetching x
# and each other stencil point apart made 72.
# verify_solution: one x-column call per level map for each block of
# the column of xstar, its two other stencil points and the kept
# samples of the three sampling checks (3 + 74 or 75 rows, one block),
# plus F' and F'' with analytic derivatives (2 each). The level slopes
# and a finite-difference F' and F'' read the column's stencil rows.
# Fetching the stencil and each check apart made 14/14/12.
BUILTIN_CALLS = {
    "example_4_1": (34, 6),
    "max_return_crisp": (58, 6),
    "max_return_fuzzy": (28, 2),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_CALLS))
def test_solve_and_verify_calls(name):
    f, cfg = _builtin(name)
    counter = Counter()
    f = counter.wrap(f)
    result = solve(f, cfg)
    solve_calls, counter.calls = counter.calls, 0
    verify_solution(f, result, cfg)
    assert (solve_calls, counter.calls) == BUILTIN_CALLS[name]


# (solve, verify_solution) fetches of an unwrapped built-in, whose ends
# are the halves of one pair per order and, with analytic F' and F'',
# of one jet: a solve fetches the jet once per iterate and once for its
# stationarity kind, and a verification fetches its column and the jet.
# Fetching each order's pair apart made 17/29 and 3/3 for the two
# analytic kinds, three pair fetches per iterate.
BUILTIN_FETCHES = {
    "example_4_1": (6, 2),
    "max_return_crisp": (10, 2),
    "max_return_fuzzy": (14, 1),
}


def _count_fetches(monkeypatch, f):
    """A list that gets each level_calculus._levels call's pair from now
    on: the built-in f's own pairs or jet, not an adapter that calls
    each end."""
    pairs = {f._level_pair, f._d1_pair, f._d2_pair, f._jet} - {None}
    fetched = []
    levels = level_calculus._levels

    def counted(pair, x, alphas, *lead):
        assert pair in pairs
        fetched.append(pair)
        return levels(pair, x, alphas, *lead)

    monkeypatch.setattr(level_calculus, "_levels", counted)
    return fetched


@pytest.mark.parametrize("name", sorted(BUILTIN_FETCHES))
def test_solve_and_verify_fetch_each_pair_once(monkeypatch, name):
    f, cfg = _builtin(name)
    fetched = _count_fetches(monkeypatch, f)
    result = solve(f, cfg)
    solve_calls = len(fetched)
    fetched.clear()
    verify_solution(f, result, cfg)
    assert (solve_calls, len(fetched)) == BUILTIN_FETCHES[name]


@pytest.mark.parametrize("name, sense", [
    ("example_4_1", "minimize"), ("max_return_crisp", "minimize"),
    ("example_4_1", "maximize"),
])
def test_analytic_solve_fetches_its_jet_once_per_iteration(monkeypatch,
                                                           name, sense):
    # F, F' and F'' of an iterate from one jet fetch, and F' and F'' of
    # the stationarity kind at xstar from one more; negate flips the jet
    resolved = resolve_problem(ProblemSpec(kind=name, sense=sense, x0=-1.0))
    f, cfg = resolved.function, resolved.config
    assert f._jet is not None
    fetched = _count_fetches(monkeypatch, f)
    result = solve(f, cfg)
    assert result.status == "converged"
    assert fetched == [f._jet] * (result.iterations + 1)


def _fd_case(name, x0=None, **scal):
    """A built-in at its settings, x0 and scal replaced where given, with
    its analytic derivatives dropped: F' and F'' by the stencil."""
    resolved = resolve_problem(ProblemSpec(kind=name, x0=x0))
    cfg = resolved.config
    f = dataclasses.replace(resolved.function, d1_lo=None, d1_hi=None,
                            d2_lo=None, d2_hi=None)
    return f, dataclasses.replace(
        cfg, scal=dataclasses.replace(cfg.scal, **scal)
    )


# finite-difference solves: converged ones, the 100-iteration two-cycle,
# a grid of 1001 levels, and polynomial and crisp built-ins whose
# analytic derivatives are dropped
FD_SOLVES = {
    "max_return_fuzzy": lambda: _fd_case("max_return_fuzzy"),
    "max_return_fuzzy_x0_1.25": lambda: _fd_case("max_return_fuzzy", 1.25),
    "max_return_fuzzy_m1001": lambda: _fd_case("max_return_fuzzy",
                                               alpha_points=1001),
    "two_cycle": lambda: _fd_case("max_return_fuzzy", fd_step=1e-5),
    "example_4_1": lambda: _fd_case("example_4_1", fd_step=1e-5),
    "max_return_crisp": lambda: _fd_case("max_return_crisp"),
}


@pytest.mark.parametrize("name", sorted(FD_SOLVES))
def test_fd_solve_fetches_once_per_iteration(monkeypatch, name):
    # one level-pair fetch per iterate, x and its stencil as one column,
    # and three for the stationarity kind's F' and F'' at xstar, which
    # read each stencil point through scalarize
    f, cfg = FD_SOLVES[name]()
    counter = Counter()
    levels = level_calculus._levels

    def counted(pair, x, alphas):
        assert pair is f._level_pair
        counter.calls += 1
        return levels(pair, x, alphas)

    monkeypatch.setattr(level_calculus, "_levels", counted)
    result = solve(f, cfg)
    assert result.status in ("converged", "max-iter-exceeded")
    assert counter.calls == result.iterations + 3


def _column_rows(f, x, nbhd, samples):
    """Rows of check_point's column at x: x, two more stencil points and
    the samples of the three checks that lie in the domain and not
    within 1e-12 * max(1, |x|, nbhd) of x."""
    sampled = np.concatenate([
        np.linspace(x - nbhd, x + nbhd, samples),
        x + np.linspace(0.0, nbhd, samples + 2)[1:-1],
        x - np.linspace(0.0, nbhd, samples + 2)[1:-1],
    ])
    coincident = 1e-12 * max(1.0, abs(x), nbhd)
    return 3 + int(np.sum(f.contains(sampled)
                          & ~(np.abs(sampled - x) <= coincident)))


# verify_solution's calls at 25 and 101 samples per check: 1 and 3
# blocks of 102 rows. Each check fetching its own block made 14/14/12
# at both.
SAMPLE_CALLS = {
    "example_4_1": [6, 10],
    "max_return_crisp": [6, 10],
    "max_return_fuzzy": [2, 6],
}


@pytest.mark.parametrize("name", sorted(SAMPLE_CALLS))
def test_verify_calls_grow_by_blocks_of_the_column(name):
    # calls = analytic pairs + 2 x blocks of the column: the samples add
    # a level-map call pair per block of rows, not per sample or check
    f, cfg = _builtin(name)
    counter = Counter()
    counted = counter.wrap(f)
    result = solve(counted, cfg)
    analytic = 2 * (f.has_analytic_d1 + f.has_analytic_d2)
    calls = []
    for samples in (25, 101):
        counter.calls = 0
        verify_solution(counted, result, cfg, samples=samples)
        blocks = -(-_column_rows(f, result.xstar, 0.01, samples)
                   // _block_rows(cfg.scal.alpha_points))
        assert counter.calls == analytic + 2 * blocks
        calls.append(counter.calls)
    assert calls == SAMPLE_CALLS[name]


def test_verify_stops_fetching_once_every_check_is_decided():
    # At example_4_1's maximizer -4/3 with 300 samples per check, the
    # column is 903 rows, 9 blocks. Non-dominance reads its 300 rows,
    # and each comparability check is decided by its first sample, row
    # 303 and row 603, in the sixth block: analytic pairs + 2 x 6.
    f, _ = _builtin("example_4_1")
    counter = Counter()
    report = check_point(counter.wrap(f), -4.0 / 3.0, NewtonConfig(x0=0.0),
                         samples=300)
    assert (report.comp_plus.samples, report.comp_minus.samples) == (1, 1)
    assert counter.calls == 4 + 2 * 6


# TriangularFuzzy.cut calls of a freshly built function over a solve
# and a check_point at its answer: each coefficient or parameter is cut
# once, on the shared alpha grid. Cutting on every level-map call made
# 136 + 56 / 0 / 144 + 24.
CUT_CALLS = {
    "example_4_1": 4,
    "max_return_crisp": 0,
    "max_return_fuzzy": 2,
}


@pytest.mark.parametrize("name", sorted(CUT_CALLS))
def test_each_parameter_is_cut_once_per_grid(monkeypatch, name):
    f, cfg = _builtin(name)
    counter = Counter()
    cut = TriangularFuzzy.cut

    def counted(t, a):
        counter.calls += 1
        return cut(t, a)

    monkeypatch.setattr(TriangularFuzzy, "cut", counted)
    check_point(f, solve(f, cfg).xstar, cfg)
    assert counter.calls == CUT_CALLS[name]


def _cli_calls(monkeypatch, argv, code):
    """Level-map calls of one cli.main run, which must exit with code."""
    counter = Counter()

    def counted_resolve(spec):
        resolved = resolve_problem(spec)
        return dataclasses.replace(
            resolved, function=counter.wrap(resolved.function)
        )

    monkeypatch.setattr(cli, "resolve_problem", counted_resolve)
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        assert cli.main(argv) == code
    return counter.calls


# A `solve` report: the solve and the verification of BUILTIN_CALLS,
# plus the answer's fuzzy value and F(xstar) from one evaluation of
# xstar (2 calls). Evaluating them apart made 52/76/88, fetching the
# verification's stencil and each check apart 50/74/86, and fetching a
# finite-difference iterate's stencil points apart 42/66/76.
REPORT_CALLS = {
    "example_4_1": 42,
    "max_return_crisp": 66,
    "max_return_fuzzy": 32,
}


@pytest.mark.parametrize("name", sorted(REPORT_CALLS))
def test_solve_report_evaluates_the_answer_once(monkeypatch, name):
    calls = _cli_calls(monkeypatch, ["solve", "--problem", name], 0)
    assert calls == REPORT_CALLS[name]


def test_table_solves_without_verifying(monkeypatch, tmp_path):
    # The five-row reference sweep of the CLI golden test: a solve and
    # the fuzzy value at xstar per row. Verifying each row as well, and
    # evaluating F(xstar) apart, made 1028 calls, and fetching the fuzzy
    # row's stencil points apart 314. Each crisp row's stationarity kind
    # takes F' at xstar: 2 calls.
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(FILES["sweep.json"]))
    assert _cli_calls(monkeypatch, ["table", "--sweep", str(sweep)], 0) == 270
