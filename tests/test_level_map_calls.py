"""Level-map calls per operation, counted by wrapping a function's six
level fields with ``dataclasses.replace``.

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

import pytest

from fuzzynewton import TriangularFuzzy, cli
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
    cfg = NewtonConfig(x0=resolved.x0, eps=resolved.eps, scal=resolved.scal)
    return resolved.function, cfg


# (solve, verify_solution) at each built-in's recommended settings.
# solve ends with F' and F'' at xstar for its stationarity kind: with
# analytic derivatives, 2 calls each.
# verify_solution: the level slopes' stencil (4 calls), F'' and, with
# analytic derivatives, F' (2 each, else F at x: 2), and one x-column
# call per level map for each of the three sampling checks (6).
BUILTIN_CALLS = {
    "example_4_1": (34, 14),
    "max_return_crisp": (58, 14),
    "max_return_fuzzy": (72, 12),
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


@pytest.mark.parametrize("name", sorted(BUILTIN_CALLS))
def test_verify_calls_do_not_grow_with_samples(name):
    f, cfg = _builtin(name)
    counter = Counter()
    f = counter.wrap(f)
    result = solve(f, cfg)
    calls = []
    for samples in (25, 101):
        counter.calls = 0
        verify_solution(f, result, cfg, samples=samples)
        calls.append(counter.calls)
    assert calls == [BUILTIN_CALLS[name][1]] * 2


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
# xstar (2 calls). Evaluating them apart made 52/76/88.
REPORT_CALLS = {
    "example_4_1": 50,
    "max_return_crisp": 74,
    "max_return_fuzzy": 86,
}


@pytest.mark.parametrize("name", sorted(REPORT_CALLS))
def test_solve_report_evaluates_the_answer_once(monkeypatch, name):
    calls = _cli_calls(monkeypatch, ["solve", "--problem", name], 0)
    assert calls == REPORT_CALLS[name]


def test_table_solves_without_verifying(monkeypatch, tmp_path):
    # The five-row reference sweep of the CLI golden test: a solve and
    # the fuzzy value at xstar per row. Verifying each row as well, and
    # evaluating F(xstar) apart, made 1028 calls. Each crisp row's
    # stationarity kind takes F' at xstar: 2 calls.
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(FILES["sweep.json"]))
    assert _cli_calls(monkeypatch, ["table", "--sweep", str(sweep)], 0) == 314
