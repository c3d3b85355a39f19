"""Seeded inputs, references and timed ops for the four workloads.

A workload goes through three steps, kept apart so that each can be
timed, or left untimed, on its own:

1. ``make_specs`` draws plain-data instances from the seed. It imports
   neither numpy nor the package, so nothing of the program runs yet.
2. ``setup`` imports the package, builds the problems and warms up on a
   fixed, seed-independent set of calls. This is what ``setup_s`` times.
3. ``Bench.prepare`` computes every reference answer, writes the input
   files and returns the timed calls of one pass, each with its check.
   It is untimed, and each reference comes from another code path than
   the op it checks.

What sets an op's cost (family, polynomial degree, alpha grid, sample
count, start point, bracket width, audit offset) is laid out the same
way for every seed; the seed draws the problems themselves and the order
of the ops. So two seeds give nearly the same mix of work: which fuzzy
solves two-cycle, and so run 100 iterations, depends on the start point
far more than on the drawn parameters.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

WORKLOADS = ("newton_solve", "verify_audit", "grid_oracle", "cli_mix")
BUILTINS = ("example_4_1", "max_return_crisp", "max_return_fuzzy")

# Tolerances of tests/test_acceptance.py: Newton against the grid oracle,
# and the defuzzified value of a max-return solution.
X_TOL = 1e-4
MR_VALUE_TOL = 5e-4
# Polynomial values are closed-form; only rounding separates them.
POLY_VALUE_RTOL = 1e-9

GRID_STEP = 1e-5
SWEEP_ROWS = ((0.00168, 1.0), (0.00168, 1.5), (0.00169, 1.5), (0.00169, 2.0))
DEFAULT_FUZZY_VA = (0.00167, 0.00168, 0.00172)
DEFAULT_FUZZY_RHO = (0.5, 1.5, 3.5)
# Max-return instances, crisp and fuzzy alike, move Va by up to 0.3 %
# (a fuzzy Va as a whole) and rho by up to 5 % (each vertex of a fuzzy
# rho on its own) from their base values, and start from x0 in MR_X0.
VA_JITTER = 0.003
RHO_JITTER = 0.05
MR_X0 = (0.75, 1.3)
# From about a third of those start points the undamped iteration on the
# fuzzy F, at fd_step 1e-4, settles into a two-cycle across the band of
# extra curvature at the minimizer (see problems.FUZZY_MAX_RETURN_SCAL).
# That outcome is named and checked on its own (``two_cycle_around``);
# which start points give it depends on x0 far more than on Va and rho.
TWO_CYCLE = "two-cycle"
CYCLE_WIDTH = 2e-3         # the band is about 1.2e-3 wide
# Where the minimizer of every max-return instance lies; the second,
# higher local minimum near x = 0.566 stays outside.
MR_SEARCH = (0.66, 1.0)

# Family mix of newton_solve. Crisp solves form the tightest latency
# cluster, so with more than half the ops crisp the median falls inside
# it. The fuzzy two-cycles (about 5 % of the ops, 100 iterations each)
# are the slowest ops, so the 90th percentile falls inside the cluster of
# converged fuzzy (finite-difference) solves just below them.
NEWTON_MIX = (("poly", 96), ("crisp", 192), ("fuzzy", 48))
NEWTON_WIDE_GRID = 8       # 1 in 8 of each family uses 1001 alpha points
VERIFY_PER_PATH = 20       # per family and pass/fail path; 1 in 3 at 101 samples
GRID_PER_FAMILY = 34
# cli_mix: 10 cycles of 10 calls, plus the README's two-cycle in every
# fifth cycle, make 102 ops, so that 10 lie beyond the p90. Each cycle
# has one 5-row table (4 crisp rows, 1 fuzzy), in json and csv by turns.
# Calls that are mostly Newton iterations (tables, two-cycles) are kept
# few, so that a 25 s run makes enough passes for each op's best.
CLI_CYCLES = 10
CLI_TWO_CYCLE_EVERY = 5
FAMILIES = ("poly", "crisp", "fuzzy")


@dataclass
class Problem:
    """One seeded instance; ``f``/``cfg`` are built in setup, refs later."""

    family: str                      # "poly", "crisp" or "fuzzy"
    x0: float
    alpha_points: int = 101
    coeffs: tuple = ()               # poly: (left, peak, right) per power
    shape: dict = field(default_factory=dict)  # poly: F in powers of x - xmin
    xmin: float = math.nan           # poly: closed-form minimizer
    side: int = 1                    # poly: side of xmin holding x0
    va: Any = None                   # max-return parameters, float or triple
    rho: Any = None
    f: Any = None
    cfg: Any = None
    x_ref: float = math.nan
    value_ref: float = math.nan

    def dF(self, x: float) -> float:
        """Closed-form F'(x) of a polynomial instance."""
        t = x - self.xmin
        return sum(k * a * t ** (k - 1) for k, a in self.shape.items() if k)


def _draw_poly(rng: random.Random, degree: int, start: float,
               m: int = 101) -> Problem:
    """A fuzzy polynomial whose F has a known strict minimizer.

    F = sum_k a_k (x - xmin)^k with a_2 > 0; a cubic's inflection point
    and its local maximum lie on the side opposite x0, and a quartic is
    convex, so Newton from x0 converges to xmin. F's power coefficients
    s_i are split into triangles with (left + 2 peak + right) / 2 = s_i.
    ``start`` in [0, 1] places x0 at 0.2 to 1.0 from xmin.
    """
    xmin = rng.uniform(-1.5, 1.5)
    side = rng.choice((-1, 1))
    shape = {0: rng.uniform(-1.0, 1.0), 2: rng.uniform(1.0, 3.0)}
    if degree == 3:
        shape[3] = side * rng.uniform(0.2, 1.5)
    elif degree == 4:
        shape[4] = rng.uniform(0.2, 2.0)
    power = [0.0] * (degree + 1)
    for k, a in shape.items():
        for i in range(k + 1):
            power[i] += a * math.comb(k, i) * (-xmin) ** (k - i)
    coeffs = []
    for s in power:
        u, v = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        peak = (s - (v - u) / 2.0) / 2.0
        coeffs.append((peak - u, peak, peak + v))
    return Problem(
        "poly", x0=xmin + side * (0.2 + 0.8 * start), alpha_points=m,
        coeffs=tuple(coeffs), shape=shape, xmin=xmin, side=side,
    )


def _jitter(rng: random.Random, v: float, share: float) -> float:
    return v * (1.0 + rng.uniform(-share, share))


def _mr_x0(start: float) -> float:
    return MR_X0[0] + (MR_X0[1] - MR_X0[0]) * start


def _draw_crisp(rng: random.Random, row, x0: float, m: int = 101) -> Problem:
    va, rho = row
    return Problem("crisp", x0=x0, alpha_points=m,
                   va=_jitter(rng, va, VA_JITTER),
                   rho=_jitter(rng, rho, RHO_JITTER))


def _draw_fuzzy(rng: random.Random, x0: float, m: int = 101) -> Problem:
    scale = _jitter(rng, 1.0, VA_JITTER)
    return Problem(
        "fuzzy", x0=x0, alpha_points=m,
        va=tuple(scale * v for v in DEFAULT_FUZZY_VA),
        rho=tuple(_jitter(rng, v, RHO_JITTER) for v in DEFAULT_FUZZY_RHO),
    )


def _draw(rng: random.Random, family: str, i: int, n: int,
          m: int = 101) -> Problem:
    """The i-th of n problems of a family.

    What sets the cost of an op on it (polynomial degree, sweep row,
    start point) follows from i alone, so every seed has nearly the same
    mix of work; the seed draws the problem's own values.
    """
    start = (i + 0.5) / n
    if family == "poly":
        return _draw_poly(rng, (2, 3, 4)[i // 3 % 3], start, m)
    if family == "crisp":
        return _draw_crisp(rng, SWEEP_ROWS[i % 4], _mr_x0(start), m)
    return _draw_fuzzy(rng, _mr_x0(start), m)


def make_specs(workload: str, seed: int) -> dict:
    """Plain-data inputs of one workload, drawn from the seed alone.

    Returns ``problems`` and, per problem, the ``ops`` settings, in a
    seeded order; cli_mix returns its ``cycles`` instead.
    """
    rng = random.Random(f"{workload}:{seed}")
    items = []
    if workload == "newton_solve":
        for fam, n in NEWTON_MIX:
            items += [
                (_draw(rng, fam, i, n,
                       1001 if i % NEWTON_WIDE_GRID == 0 else 101), {})
                for i in range(n)
            ]
    elif workload == "verify_audit":
        n = VERIFY_PER_PATH
        items = [
            (_draw(rng, fam, i, n), {
                "path": path,
                "samples": 101 if i % 3 == 1 else 25,
                "offset": 0.05 + 0.25 * (i + 0.5) / n,
            })
            for fam in FAMILIES for path in ("pass", "fail") for i in range(n)
        ]
    elif workload == "grid_oracle":
        n = GRID_PER_FAMILY
        items = [
            (_draw(rng, fam, i, n), {
                "width": 0.05 + 0.35 * (i + 0.5) / n,
                "left_share": rng.uniform(0.2, 0.8),
            })
            for fam in FAMILIES for i in range(n)
        ]
    elif workload == "cli_mix":
        return {"cycles": [_draw_cli_cycle(rng, i) for i in range(CLI_CYCLES)]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return {"problems": [p for p, _ in items], "ops": [o for _, o in items]}


def _draw_cli_cycle(rng: random.Random, index: int) -> dict:
    """Parameters of one cycle of cli_mix calls; as in ``_draw``, the
    start points and degrees follow from the index."""
    start = (index + 0.5) / CLI_CYCLES
    table_x0 = _mr_x0(1.0 - start)
    return {
        "builtin_x0": 0.3 + 1.2 * start,
        "crisp_flags": _draw_crisp(rng, SWEEP_ROWS[index % 4], _mr_x0(start)),
        "fuzzy_flags": _draw_fuzzy(rng, _mr_x0(start)),
        "poly": _draw_poly(rng, (2, 3, 4)[index % 3], start),
        "crisp_config": _draw_crisp(rng, SWEEP_ROWS[(index + 1) % 4],
                                    _mr_x0(1.0 - start)),
        "table_x0": table_x0,
        "table_format": ("json", "csv")[index % 2],
        "sweep": [_draw_crisp(rng, row, table_x0) for row in SWEEP_ROWS]
        + [_draw_fuzzy(rng, table_x0)],
        "readme_two_cycle": index % CLI_TWO_CYCLE_EVERY == 0,
        "poly_fail_offset": rng.uniform(0.05, 0.3),
        "crisp_fail_offset": rng.uniform(0.03, 0.2),
    }


# ---------------------------------------------------------------- setup


@dataclass
class Op:
    """One timed call and the check of its result against a reference.

    ``check`` returns False when the result is wrong, True when it is the
    expected answer, or the name of a separately checked outcome
    (``TWO_CYCLE``) that the loop counts on its own.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    output_bytes: Optional[Callable[[Any], int]] = None


def _mr_params(fz, va, rho):
    def param(v):
        return fz.TriangularFuzzy(*v) if isinstance(v, tuple) else float(v)
    return fz.MaxReturnParams(Va=param(va), rho=param(rho))


def build(fz, p: Problem) -> None:
    """Resolve a problem through the library, as its users do."""
    if p.family == "poly":
        spec = fz.ProblemSpec(
            kind="fuzzy_polynomial",
            coefficients=tuple(fz.TriangularFuzzy(*c) for c in p.coeffs),
            x0=p.x0, alpha_points=p.alpha_points,
        )
    else:
        kind = "max_return_crisp" if p.family == "crisp" else "max_return_fuzzy"
        spec = fz.ProblemSpec(kind=kind, params=_mr_params(fz, p.va, p.rho),
                              x0=p.x0, alpha_points=p.alpha_points)
    resolved = fz.resolve_problem(spec)
    p.f = resolved.function
    p.cfg = fz.NewtonConfig(x0=resolved.x0, eps=resolved.eps,
                            scal=resolved.scal)


def call_cli(cli, argv) -> dict:
    """Run cli.main in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _warm_up(fz, cli, workload: str) -> None:
    """Fixed calls on the built-ins that load every path the ops take."""
    for name in BUILTINS:
        resolved = fz.resolve_problem(fz.ProblemSpec(kind=name))
        f, scal = resolved.function, resolved.scal
        cfg = fz.NewtonConfig(x0=resolved.x0, eps=resolved.eps, scal=scal)
        if workload == "newton_solve":
            res = fz.solve(f, cfg)
            fz.centroid(fz.eval_fuzzy(f, res.xstar, scal.alpha_points))
        elif workload == "verify_audit":
            fz.check_point(f, resolved.x0, cfg)
        elif workload == "grid_oracle":
            centre = 0.0 if name == "example_4_1" else 0.699
            fz.grid_search_min(f, (centre - 0.025, centre + 0.025), scal,
                               step=GRID_STEP)
        else:
            call_cli(cli, ["solve", "--problem", name, "--format", "json"])
    if workload == "cli_mix":
        call_cli(cli, ["check", "--problem", "example_4_1", "--xstar", "0"])


def setup(workload: str, specs: dict) -> "Bench":
    """Import the package, build the problems and warm up."""
    fz = importlib.import_module("fuzzynewton")
    cli = importlib.import_module("fuzzynewton.cli")
    for p in specs.get("problems", ()):
        build(fz, p)
    _warm_up(fz, cli, workload)
    return Bench(workload, specs, fz, cli)


# ------------------------------------------------------------ references


def _poly_value(p: Problem, x: float) -> float:
    """Closed-form centroid of a fuzzy polynomial's value at x.

    Each term c_i (.) x^i is a triangle scaled by x^i, so the value is
    the triangle (sum of the smaller ends, sum of peaks, sum of larger
    ends), whose centroid is (left + peak + right) / 3.
    """
    left = peak = right = 0.0
    for i, (lo, pk, hi) in enumerate(p.coeffs):
        t = x ** i
        left += min(lo * t, hi * t)
        peak += pk * t
        right += max(lo * t, hi * t)
    return (left + peak + right) / 3.0


def _levels_centroid(np, f, x: float, m: int = 2001) -> float:
    """Centroid straight from the level maps by an m-point trapezoid."""
    a = np.linspace(0.0, 1.0, m)
    w = np.full(m, 1.0 / (m - 1))
    w[0] = w[-1] = 0.5 / (m - 1)
    lo = np.broadcast_to(np.asarray(f.level_lo(x, a), float), a.shape)
    hi = np.broadcast_to(np.asarray(f.level_hi(x, a), float), a.shape)
    den = float(w @ (hi - lo))
    if den < 1e-14:
        return float(0.5 * (lo[-1] + hi[-1]))
    return float(w @ ((hi * hi - lo * lo) / 2.0)) / den


def _oracle_min(fz, f, scal) -> float:
    """Grid-oracle minimizer of a max-return F: 1e-3 scan, then 1e-5."""
    coarse = fz.grid_search_min(f, MR_SEARCH, scal, step=1e-3)
    return fz.grid_search_min(f, (coarse - 3e-3, coarse + 3e-3), scal,
                              step=GRID_STEP)


def two_cycle_around(xs, x_ref: float) -> bool:
    """Whether the iterates xs end in a two-cycle, x_{k+2} = x_k up to
    1 % of the jump, whose two points lie on either side of x_ref and at
    most CYCLE_WIDTH apart."""
    if len(xs) < 3:
        return False
    a, b, c = xs[-3:]
    jump = abs(c - b)
    return (abs(c - a) <= 0.01 * jump and jump <= CYCLE_WIDTH
            and min(b, c) < x_ref < max(b, c))


def _golden_min(fz, f, scal, lo: float, hi: float, tol: float = 1e-9):
    """Minimizer of F on [lo, hi] by golden-section search on scalarize."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = fz.scalarize(f, c, scal), fz.scalarize(f, d, scal)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = fz.scalarize(f, c, scal)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = fz.scalarize(f, d, scal)
    return 0.5 * (lo + hi)


def _newton_min(fz, p: Problem) -> float:
    """Newton's answer; NaN if it did not converge."""
    res = fz.solve(p.f, p.cfg)
    return res.xstar if res.status == "converged" else math.nan


def _newton_ref(fz, p: Problem) -> float:
    """Newton's answer, as a reference for the grid oracle.

    A fuzzy two-cycle has no Newton answer; then the minimum of F
    between its two points, found by golden section on ``scalarize``
    and checked to lie between them, stands in for it.
    """
    res = fz.solve(p.f, p.cfg)
    if res.status == "converged":
        return res.xstar
    if p.family == "fuzzy" and res.status == "max-iter-exceeded":
        xs = res.iterates()
        lo, hi = sorted(xs[-2:])
        if hi - lo <= CYCLE_WIDTH:
            x = _golden_min(fz, p.f, p.cfg.scal, lo - CYCLE_WIDTH,
                            hi + CYCLE_WIDTH)
            if two_cycle_around(xs, x):
                return x
    return math.nan


class Bench:
    """The built problems of one workload, their references and ops."""

    def __init__(self, workload, specs, fz, cli):
        self.workload = workload
        self.specs = specs
        self.fz = fz
        self.cli = cli
        self.problems = specs.get("problems", [])

    def prepare(self, tmpdir: str) -> list:
        """Compute every reference, write the input files (both untimed)
        and return the ops of one pass."""
        import numpy as np

        fz = self.fz
        w = self.workload
        for p in self.problems:
            if p.family == "poly":
                p.x_ref = p.xmin
            elif w == "grid_oracle":
                p.x_ref = _newton_ref(fz, p)  # Newton checks the oracle
            else:
                p.x_ref = _oracle_min(fz, p.f, p.cfg.scal)
            if w == "newton_solve":
                p.value_ref = (_poly_value(p, p.x_ref) if p.family == "poly"
                               else _levels_centroid(np, p.f, p.x_ref))
        if w == "newton_solve":
            return [self._solve_op(p) for p in self.problems]
        if w == "verify_audit":
            return [self._audit_op(p, a) for p, a in
                    zip(self.problems, self.specs["ops"])]
        if w == "grid_oracle":
            return [self._grid_op(p, b) for p, b in
                    zip(self.problems, self.specs["ops"])]
        return [op for i, cyc in enumerate(self.specs["cycles"])
                for op in self._cli_cycle(i, cyc, tmpdir)]

    # newton_solve: solve, then the fuzzy value and its centroid at xstar.
    def _solve_op(self, p: Problem) -> Op:
        fz = self.fz

        def run():
            res = fz.solve(p.f, p.cfg)
            value = fz.centroid(
                fz.eval_fuzzy(p.f, res.xstar, p.cfg.scal.alpha_points))
            return res, value

        def check(out):
            res, value = out
            if p.family == "poly":
                vtol = POLY_VALUE_RTOL * max(1.0, abs(p.value_ref))
            else:
                vtol = MR_VALUE_TOL
            if abs(value - p.value_ref) > vtol:
                return False
            if res.status == "converged":
                return abs(res.xstar - p.x_ref) <= X_TOL
            if p.family == "fuzzy" and res.status == "max-iter-exceeded":
                return two_cycle_around(res.iterates(), p.x_ref) and TWO_CYCLE
            return False

        return Op(f"solve:{p.family}:m{p.alpha_points}", run, check)

    # verify_audit: check_point at the Newton answer (pass by construction:
    # the minimizer of F is stationary and no neighbour is strictly below
    # it in every level) or on the side of it where F' is far from zero.
    # A fuzzy two-cycle has no Newton answer; its pass point is the
    # oracle's minimizer instead.
    def _audit_op(self, p: Problem, audit: dict) -> Op:
        fz = self.fz
        samples = audit["samples"]
        expect = audit["path"] == "pass"
        path = audit["path"]
        if expect:
            res = fz.solve(p.f, p.cfg)
            if res.status == "converged":
                x = res.xstar
                usable = abs(x - p.x_ref) <= X_TOL
            else:
                x = p.x_ref
                usable = (p.family == "fuzzy"
                          and res.status == "max-iter-exceeded"
                          and two_cycle_around(res.iterates(), x))
                path = "pass-at-oracle"
        elif p.family == "poly":
            x = p.xmin + p.side * audit["offset"]
            usable = abs(p.dF(x)) >= 0.1
        else:
            # F increases steeply to the right of the minimizer.
            x = p.x_ref + 0.6 * audit["offset"]
            usable = True
        cfg = fz.NewtonConfig(x0=x, eps=p.cfg.eps, scal=p.cfg.scal)

        def run():
            return fz.check_point(p.f, x, cfg, samples=samples)

        def check(rep):
            verdict = rep.stationary and not rep.non_dominance.dominated
            return usable and verdict == expect

        return Op(f"check:{p.family}:s{samples}:{path}", run, check)

    # grid_oracle: grid_search_min over a bracket around the minimizer.
    def _grid_op(self, p: Problem, bracket: dict) -> Op:
        fz = self.fz
        width = bracket["width"]
        lo = p.x_ref - bracket["left_share"] * width
        if math.isnan(lo):  # no reference answer: the op is counted failed
            lo = p.x0
        span = (lo, lo + width)

        def run():
            return fz.grid_search_min(p.f, span, p.cfg.scal, step=GRID_STEP)

        def check(x):
            return abs(x - p.x_ref) <= X_TOL

        npts = int(round(width / GRID_STEP)) + 1
        return Op(f"grid:{p.family}:{'2' if npts > 20000 else '1'}chunk",
                  run, check)

    # cli_mix: one cycle of in-process cli.main calls.
    def _cli_cycle(self, index: int, cyc: dict, tmpdir: str) -> list:
        fz = self.fz

        def path(name):
            return os.path.join(tmpdir, f"c{index}-{name}")

        crisp = cyc["crisp_flags"]
        build(fz, crisp)
        crisp_ref = _oracle_min(fz, crisp.f, crisp.cfg.scal)
        fuzzy = cyc["fuzzy_flags"]
        build(fz, fuzzy)
        fuzzy_ref = _oracle_min(fz, fuzzy.f, fuzzy.cfg.scal)

        poly = cyc["poly"]
        poly_cfg = path("poly.json")
        _write(poly_cfg, json.dumps({
            "kind": "fuzzy_polynomial",
            "coefficients": [list(c) for c in poly.coeffs],
            "x0": poly.x0, "alpha_points": 101,
        }))
        build(fz, poly)
        poly_newton = _newton_min(fz, poly)

        mr = cyc["crisp_config"]
        mr_cfg = path("crisp.json")
        _write(mr_cfg, json.dumps({
            "kind": "max_return_crisp",
            "params": {"Va": mr.va, "rho": mr.rho}, "x0": mr.x0,
        }))
        build(fz, mr)
        mr_ref = _oracle_min(fz, mr.f, mr.cfg.scal)
        mr_newton = _newton_min(fz, mr)

        sweep, sweep_refs, rows = path("sweep.json"), [], []
        for row in cyc["sweep"]:
            build(fz, row)
            sweep_refs.append((_oracle_min(fz, row.f, row.cfg.scal),
                               row.family == "fuzzy"))
            rows.append({"Va": _jsonable(row.va), "rho": _jsonable(row.rho)})
        _write(sweep, json.dumps(rows))

        poly_fail = poly.xmin + poly.side * cyc["poly_fail_offset"]
        mr_fail = mr_ref + cyc["crisp_fail_offset"]
        csv_out, json_out = path("solve.csv"), path("solve.json")
        table_x0 = repr(cyc["table_x0"])
        fmt = cyc["table_format"]
        read_table = _table_json if fmt == "json" else _table_csv
        ops = [
            self._cli_op("solve:builtin:text",
                         ["solve", "--problem", "example_4_1",
                          "--x0", repr(cyc["builtin_x0"])],
                         _expect(0, lambda r: _text_xstar(r["stdout"]), 0.0)),
            self._cli_op("solve:builtin:csv-out",
                         ["solve", "--problem", "max_return_crisp",
                          "--Va", repr(crisp.va), "--rho", repr(crisp.rho),
                          "--x0", repr(crisp.x0), "--format", "csv",
                          "--out", csv_out],
                         _expect(0, lambda r: _csv_xstar(_read(csv_out)),
                                 crisp_ref),
                         out_file=csv_out),
            self._cli_op("solve:builtin:json-out",
                         ["solve", "--problem", "max_return_fuzzy",
                          "--Va", _triangle_flag(fuzzy.va),
                          "--rho", _triangle_flag(fuzzy.rho),
                          "--x0", repr(fuzzy.x0), "--format", "json",
                          "--out", json_out],
                         lambda r: _fuzzy_solve_json(r["code"], _read(json_out),
                                                     fuzzy_ref),
                         out_file=json_out),
            self._cli_op("solve:config-poly:json",
                         ["solve", "--problem", poly_cfg, "--format", "json"],
                         _expect(0, lambda r: _json_xstar(r["stdout"]),
                                 poly.xmin)),
            self._cli_op("solve:config-crisp:text",
                         ["solve", "--problem", mr_cfg],
                         _expect(0, lambda r: _text_xstar(r["stdout"]), mr_ref)),
            self._cli_op(f"table:{fmt}",
                         ["table", "--sweep", sweep, "--x0", table_x0,
                          "--format", fmt],
                         lambda r: _table_rows(r["code"],
                                               read_table(r["stdout"]),
                                               sweep_refs)),
            self._cli_op("check:config-poly:pass",
                         ["check", "--problem", poly_cfg,
                          "--xstar", repr(poly_newton)],
                         _expect(0 if abs(poly_newton - poly.xmin) <= X_TOL
                                 else None)),
            self._cli_op("check:config-poly:fail",
                         ["check", "--problem", poly_cfg,
                          "--xstar", repr(poly_fail)],
                         _expect(3 if abs(poly.dF(poly_fail)) >= 0.1 else None)),
            self._cli_op("check:config-crisp:pass",
                         ["check", "--problem", mr_cfg,
                          "--xstar", repr(mr_newton)],
                         _expect(0 if abs(mr_newton - mr_ref) <= X_TOL
                                 else None)),
            self._cli_op("check:config-crisp:fail",
                         ["check", "--problem", mr_cfg,
                          "--xstar", repr(mr_fail)], _expect(3)),
        ]
        if cyc["readme_two_cycle"]:
            # README: at fd_step 1e-5 the fuzzy max-return solve two-cycles.
            ops.append(self._cli_op(
                "solve:two-cycle",
                ["solve", "--problem", "max_return_fuzzy", "--fd-step", "1e-5"],
                _expect(2, lambda r: "max-iter-exceeded" in r["stdout"], True)))
        return ops

    def _cli_op(self, kind, argv, check, out_file=None):
        """A cli.main call whose captured result ``check`` judges."""
        cli = self.cli

        def run():
            return call_cli(cli, argv)

        def output_bytes(r):
            size = len(r["stdout"].encode()) + len(r["stderr"].encode())
            if out_file is not None:
                size += os.path.getsize(out_file)
            return size

        return Op(f"cli:{kind}", run, check, output_bytes)


def _expect(code, read=None, ref=None):
    """Check of a CLI call expected to exit with ``code`` (None: unknown,
    the op is counted failed) whose output ``read`` must match ``ref``."""

    def check(r):
        if code is None or r["code"] != code:
            return False
        if read is None:
            return True
        got = read(r)
        if isinstance(ref, bool):
            return got is ref
        return got is not None and abs(got - ref) <= X_TOL

    return check


def _fuzzy_solve_json(code: int, text: str, x_ref: float):
    """A fuzzy solve converges to x_ref (exit 0) or two-cycles about it
    (exit 2, checked on the iterates of its trace)."""
    rep = json.loads(text)
    if code == 0 and rep["status"] == "converged":
        return abs(rep["xstar"] - x_ref) <= X_TOL
    if code == 2 and rep["status"] == "max-iter-exceeded":
        xs = [row["x_k"] for row in rep["trace"]] + [rep["xstar"]]
        return two_cycle_around(xs, x_ref) and TWO_CYCLE
    return False


def _table_rows(code: int, rows, refs):
    """Every table row converges to its oracle answer, or, for a fuzzy
    row, runs out of iterations within CYCLE_WIDTH of it."""
    if code != 0 or rows is None or len(rows) != len(refs):
        return False
    outcome = True
    for (status, xstar), (x_ref, fuzzy) in zip(rows, refs):
        if status == "converged":
            if abs(xstar - x_ref) > X_TOL:
                return False
        elif (fuzzy and status == "max-iter-exceeded"
              and abs(xstar - x_ref) <= CYCLE_WIDTH):
            outcome = TWO_CYCLE
        else:
            return False
    return outcome


def _triangle_flag(v) -> str:
    return ",".join(repr(x) for x in v)


def _jsonable(v):
    return list(v) if isinstance(v, tuple) else v


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _text_xstar(text: str) -> Optional[float]:
    if "status: converged" not in text:
        return None
    m = re.search(r"^xstar\s+=\s+(\S+)$", text, re.M)
    return float(m.group(1)) if m else None


def _csv_xstar(text: str) -> Optional[float]:
    rows = dict(r for r in csv.reader(io.StringIO(text)) if len(r) == 2)
    if rows.get("status") != "converged":
        return None
    return float(rows["xstar"])


def _json_xstar(text: str) -> Optional[float]:
    rep = json.loads(text)
    return rep["xstar"] if rep["status"] == "converged" else None


def _table_json(text: str) -> list:
    return [(r["status"], r["xstar"]) for r in json.loads(text)["rows"]]


def _table_csv(text: str) -> list:
    return [(r["status"], float(r["xstar"]))
            for r in csv.DictReader(io.StringIO(text))]
