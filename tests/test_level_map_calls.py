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

from fuzzynewton import cli
from fuzzynewton.newton_solver import NewtonConfig, solve, verify_solution
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


def test_table_solves_without_verifying(monkeypatch, tmp_path):
    # The five-row reference sweep of the CLI golden test: a solve and
    # the fuzzy value at xstar per row. Verifying each row as well, and
    # evaluating F(xstar), made 1028 calls. Each crisp row's stationarity
    # kind takes F' at xstar: 2 calls.
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(FILES["sweep.json"]))
    counter = Counter()

    def counted_resolve(spec):
        resolved = resolve_problem(spec)
        return dataclasses.replace(
            resolved, function=counter.wrap(resolved.function)
        )

    monkeypatch.setattr(cli, "resolve_problem", counted_resolve)
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        assert cli.main(["table", "--sweep", str(sweep)]) == 0
    assert counter.calls == 314
