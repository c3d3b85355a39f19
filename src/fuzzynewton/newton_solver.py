"""Scalarized Newton iteration with trace capture and diagnostics.

The solver drives x_{k+1} = x_k - F'(x_k)/F''(x_k) on the scalarized
objective F of a fuzzy-valued function, terminating on a small step, a
vanishing second derivative, an exhausted iteration budget, non-finite
values, or a step or finite-difference stencil out of the function's
domain.  Each of these outcomes is a status on the result, with the full
iteration trace.  Two cases raise instead: a start point outside the
domain (DomainError), and levels that do not form a fuzzy number at an
iterate (MalformedFunctionError).

The trace's fuzzy values are checked a block of iterates at a time, in
the level blocks of level_calculus's budget: one validity check per
block, when it fills and when the loop stops.  So a malformed iterate
raises only after the later iterations of its block have run.

No damping or line search is applied; divergence and cycling surface as
the max-iter status, with an end point labelled not-stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, NumericError
from .fuzzy_core import FuzzyNumber, _require_integer, _require_positive
from .level_calculus import (
    ComparabilityReport,
    FuzzyFunction,
    NonDominanceVerdict,
    ScalarizationConfig,
    _block_rows,
    _comparability,
    _first_witness,
    _fuzzy_numbers,
    _non_dominance,
    _Point,
    _require_in_domain,
)

__all__ = [
    "NewtonConfig",
    "IterationRecord",
    "SolveResult",
    "OrderEstimate",
    "VerificationReport",
    "solve",
    "estimate_convergence_order",
    "check_point",
    "verify_solution",
    "STATUS_CONVERGED",
    "STATUS_D2_NEAR_ZERO",
    "STATUS_MAX_ITER",
    "STATUS_NON_FINITE",
    "STATUS_LEFT_DOMAIN",
]

STATUS_CONVERGED = "converged"
STATUS_D2_NEAR_ZERO = "second-derivative-near-zero"
STATUS_MAX_ITER = "max-iter-exceeded"
STATUS_NON_FINITE = "non-finite"
STATUS_LEFT_DOMAIN = "left-domain"


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration settings: start point, step tolerance, guards."""

    x0: float
    eps: float = 1e-5
    max_iter: int = 100
    d2_floor: float = 1e-12
    scal: ScalarizationConfig = ScalarizationConfig()

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        _require_positive("eps", self.eps)
        object.__setattr__(self, "max_iter",
                           _require_integer("max_iter", self.max_iter, 1))
        _require_positive("d2_floor", self.d2_floor)


@dataclass(frozen=True)
class IterationRecord:
    """One Newton step: the iterate, derivatives, step, and fuzzy value."""

    k: int
    x_k: float
    F: float
    dF: float
    d2F: float
    step: float
    fuzzy_value: FuzzyNumber


@dataclass(frozen=True)
class SolveResult:
    status: str
    xstar: float
    trace: tuple[IterationRecord, ...]
    stationarity_kind: str

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def iterates(self) -> list[float]:
        """The visited points x_0, x_1, ..., ending with xstar."""
        return [r.x_k for r in self.trace] + [self.xstar]


def _stat_tol(eps: float, d2: float) -> float:
    """How small |F'| must be for a point to count as stationary."""
    return 10.0 * eps * max(1.0, abs(d2))


def _is_stationary(d1: float, stat_tol: float) -> bool:
    """Whether |F'| = |d1| is under stat_tol; a NaN d1 is not."""
    return abs(d1) < stat_tol


def _stationarity_kind(f, xstar, cfg) -> str:
    """local-min or local-max by the sign of F'' at a stationary xstar,
    not-stationary where |F'| reaches _stat_tol, inconclusive where F''
    is not a usable number."""
    try:
        point = _Point(f, xstar, cfg.scal)
        d1, d2 = point.d1(), point.d2()
    except (NumericError, DomainError):
        return "inconclusive"
    if not (math.isfinite(d1) and math.isfinite(d2)) or abs(d2) < cfg.d2_floor:
        return "inconclusive"
    if not _is_stationary(d1, _stat_tol(cfg.eps, d2)):
        return "not-stationary"
    return "local-min" if d2 > 0 else "local-max"


def _records(f: FuzzyFunction, steps) -> list[IterationRecord]:
    """The IterationRecords of steps (k, x_k, F, dF, d2F, step, lo, hi),
    whose level rows become fuzzy values as one block of _fuzzy_numbers."""
    if not steps:
        return []
    _, xs, *_, los, his = zip(*steps)
    values = _fuzzy_numbers(f, xs, los, his)
    return [IterationRecord(*step[:6], value)
            for step, value in zip(steps, values)]


def solve(f: FuzzyFunction, cfg: NewtonConfig) -> SolveResult:
    """Run the Newton iteration on the scalarization of f.

    Terminates with status converged when |x_{k+1} - x_k| < eps,
    second-derivative-near-zero when |F''| falls under d2_floor,
    max-iter-exceeded when the budget runs out, non-finite when any
    evaluation stops being a number, and left-domain when a step, or a
    finite-difference stencil point around an iterate, lands outside the
    domain of f.  xstar is the last finite iterate in the domain.  A
    start x0 outside the domain raises DomainError, and levels that do
    not form a fuzzy number at an iterate raise MalformedFunctionError.

    Each iterate is one fetch, decided once per solve: a built-in with
    analytic F' and F'' fetches F, F' and F'' from its jet, and a
    function without them fetches its _Point's column(); the trace has
    the bits of points and orders fetched one at a time.  A caller's own
    level derivatives, or wrapped ends, which have no jet, fetch each
    order apart.  The end point's stationarity kind takes F' and F'' as
    scalarize_d1 and scalarize_d2 do: one jet fetch, or a fetch per
    stencil point.

    The levels of each iterate are kept and checked in blocks of
    level_calculus._block_rows(m) iterates (102 at m = 101, 10 at
    m = 1001), when a block fills and when the loop stops.  The first
    malformed iterate of a block raises the error that eval_fuzzy gives
    there, with the same message, x and alpha, but the later iterations
    of its block run first: an exception one of them raises other than
    NumericError or DomainError (a level map's own error, or
    OneSidedStencilWarning under an error filter) comes out instead.
    """
    _require_in_domain(f, cfg.x0)
    xk = float(cfg.x0)
    rows = _block_rows(cfg.scal.alpha_points)
    trace: list[IterationRecord] = []
    # accepted steps with the level rows of x_k, up to one block
    pending: list[tuple] = []
    status = STATUS_MAX_ITER
    # one fetch per iterate: a built-in's jet, or x and its stencil where
    # F' or F'' reads it; a caller's own level derivatives fetch per order
    fetch = f._jet is not None or not (f.has_analytic_d1
                                       and f.has_analytic_d2)
    for k in range(cfg.max_iter):
        point = _Point(f, xk, cfg.scal)
        try:
            if fetch:
                point.fetch()
            fval = point.value()
            d1 = point.d1()
            d2 = point.d2()
        except NumericError:
            status = STATUS_NON_FINITE
            break
        except DomainError:
            status = STATUS_LEFT_DOMAIN
            break
        # F is finite once read; a difference of two F can overflow
        if not (math.isfinite(d1) and math.isfinite(d2)):
            status = STATUS_NON_FINITE
            break
        flat = abs(d2) < cfg.d2_floor
        step = math.nan if flat else -d1 / d2
        pending.append((k, xk, fval, d1, d2, step, *point.levels(xk)))
        if len(pending) == rows:
            trace += _records(f, pending)
            pending = []
        if flat:
            status = STATUS_D2_NEAR_ZERO
            break
        x_next = xk + step
        if not math.isfinite(x_next):
            status = STATUS_NON_FINITE
            break
        if not f.contains(x_next):
            status = STATUS_LEFT_DOMAIN
            break
        xk = x_next
        if abs(step) < cfg.eps:
            status = STATUS_CONVERGED
            break
    trace += _records(f, pending)
    # every exit leaves xk at the last iterate accepted
    return SolveResult(
        status=status,
        xstar=xk,
        trace=tuple(trace),
        stationarity_kind=_stationarity_kind(f, xk, cfg),
    )


@dataclass(frozen=True)
class OrderEstimate:
    """Fitted empirical convergence order and asymptotic constant."""

    order: float
    constant: float
    pairs_used: int


# Consecutive error pairs at the end of a trace that the order fit uses.
_TAIL_PAIRS = 4


def estimate_convergence_order(trace, xstar: float) -> OrderEstimate:
    """Least-squares fit of log e_{k+1} against log e_k on the trace tail.

    Errors e_k = |x_k - xstar| are taken from the trace records; zero
    errors and exact repeats are dropped.  The fit uses the last
    _TAIL_PAIRS consecutive pairs (the asymptotic regime); fewer than
    four usable iterates raise InsufficientDataError.
    """
    errors: list[float] = []
    for rec in trace:
        e = abs(rec.x_k - xstar)
        if e > 0.0 and (not errors or e != errors[-1]):
            errors.append(e)
    if len(errors) < 4:
        raise InsufficientDataError(
            f"need at least 4 iterates with distinct positive errors, "
            f"got {len(errors)}"
        )
    logs = np.log(errors)
    xs, ys = logs[:-1], logs[1:]
    n = min(_TAIL_PAIRS, xs.size)
    xs, ys = xs[-n:], ys[-n:]
    slope, intercept = np.polyfit(xs, ys, 1)
    return OrderEstimate(
        order=float(slope), constant=float(np.exp(intercept)), pairs_used=n
    )


@dataclass(frozen=True)
class VerificationReport:
    """Post-hoc checks at a converged iterate.

    level_d1_max is nan where no finite-difference stencil fits in the
    domain and F' and F'' are analytic (see check_point).
    """

    xstar: float
    d1: float
    d2: float
    stat_tol: float
    level_d1_max: float
    non_dominance: NonDominanceVerdict
    comp_plus: ComparabilityReport
    comp_minus: ComparabilityReport

    @property
    def stationary(self) -> bool:
        return _is_stationary(self.d1, self.stat_tol)

    @property
    def verdict(self) -> str:
        """"fail" when the point is not stationary or a sample dominates
        it, "inconclusive" when non-dominance compared no sample, and
        "pass" otherwise.

        Comparability, the paper's sufficient condition for non-dominance
        at a stationary point, is reported but left out: max_return_fuzzy's
        answer reads ``incomparable at lambda=0.000384615385`` and passes.
        """
        if not self.stationary or self.non_dominance.dominated:
            return "fail"
        if self.non_dominance.samples == 0:
            return "inconclusive"
        return "pass"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def lines(self) -> list[str]:
        """The report's one wording, ending with the verdict."""
        return [
            f"|F'(xstar)| = {abs(self.d1):.6g} "
            f"({'<' if self.stationary else '>='} tol {self.stat_tol:.6g})",
            f"F''(xstar) = {self.d2:.6g}",
            "max level derivative magnitude = "
            + (f"{self.level_d1_max:.6g}" if not math.isnan(self.level_d1_max)
               else "n/a (no finite-difference stencil fits in the domain)"),
            f"non-dominance: {self.non_dominance.describe()}",
            f"comparability (+): {self.comp_plus.describe()}",
            f"comparability (-): {self.comp_minus.describe()}",
            f"verdict: {self.verdict}",
        ]


# Half-width of the sampled neighbourhood and samples per check, for
# check_point and verify_solution.
_NBHD = 0.01
_SAMPLES = 25


def check_point(
    f: FuzzyFunction,
    x: float,
    cfg: NewtonConfig,
    nbhd: float = _NBHD,
    samples: int = _SAMPLES,
) -> VerificationReport:
    """Stationarity, level-derivative, non-dominance, and comparability
    checks at an arbitrary point.

    The stationarity tolerance is 10 * eps * max(1, |F''(x)|), the one
    that solve's stationarity kind uses.  Of cfg, only eps and scal are
    read; a non-finite x raises ValueError, naming it as the report's
    xstar.

    One fetch serves the whole verification: the column() of x's
    _Point, which a Newton iterate fetches too, and the kept samples of
    the three checks are one x-column, read in level_calculus's blocks
    with one call pair of the level maps and one validity check per
    block (one block at 25 samples and 101 levels).  The level slopes,
    and F' and F'' by the stencil, read its stencil rows; analytic F'
    and F'' take one jet fetch, or a call pair each without a jet.  No
    level outside the domain is read: an F'' by a one-sided stencil
    whose outer point lies outside it raises the DomainError that
    scalarize_d2 raises there.  F'' is taken before a sample row is
    checked, so non-finite levels at x raise NumericError there.  Before
    any level is fetched, a one-sided stencil warns, a domain too narrow
    for a stencil raises DomainError where F' or F'' needs one, and an
    nbhd or samples that is not valid, or an nbhd whose samples
    overflow, raises ValueError.  With analytic F' and F'' such a domain
    leaves only the level slopes unread: level_d1_max is nan, and
    lines() says it is not available.
    """
    if not math.isfinite(x):
        raise ValueError(f"xstar must be finite, got {x}")
    point = _Point(f, x, cfg.scal)
    try:
        # warns of a one-sided stencil, or raises where none fits, first
        point.stencil()
        fits = True
    except DomainError:
        # analytic F' and F'' need no stencil; the level slopes do
        if not (f.has_analytic_d1 and f.has_analytic_d2):
            raise
        fits = False
    column = point.column()
    checks = [
        _non_dominance(x, nbhd, samples),
        _comparability(x, +1.0, nbhd, samples),
        _comparability(x, -1.0, nbhd, samples),
    ]

    def derivatives(lo, hi):
        # F' and F'' raise NumericError before a sample row is read
        point.keep(column, lo, hi)
        slopes = point.level_d1_max() if fits else math.nan
        return slopes, point.d1(), point.d2()

    (non_dominance, comp_plus, comp_minus), (level_d1_max, d1, d2) = (
        _first_witness(f, x, checks, nbhd, cfg.scal.alpha_points,
                       column[1:], derivatives)
    )
    return VerificationReport(
        xstar=x,
        d1=d1,
        d2=d2,
        stat_tol=_stat_tol(cfg.eps, d2),
        level_d1_max=level_d1_max,
        non_dominance=non_dominance,
        comp_plus=comp_plus,
        comp_minus=comp_minus,
    )


def verify_solution(
    f: FuzzyFunction,
    result: SolveResult,
    cfg: NewtonConfig,
    nbhd: float = _NBHD,
    samples: int = _SAMPLES,
) -> VerificationReport:
    """Post-hoc verification at a converged iterate (see check_point)."""
    if result.status != STATUS_CONVERGED:
        raise ValueError(
            f"verification requires a converged result, got status "
            f"{result.status!r}"
        )
    return check_point(f, result.xstar, cfg, nbhd, samples)
