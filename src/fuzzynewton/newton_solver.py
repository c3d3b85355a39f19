"""Scalarized Newton iteration with trace capture and diagnostics.

The solver drives x_{k+1} = x_k - F'(x_k)/F''(x_k) on the scalarized
objective F of a fuzzy-valued function, terminating on a small step, a
vanishing second derivative, an exhausted iteration budget, non-finite
values, or a step or finite-difference stencil out of the function's
domain.  Each of these outcomes is a status on the result, with the full
iteration trace.  Two cases raise instead: a start point outside the
domain (DomainError), and levels that do not form a fuzzy number at an
iterate (MalformedFunctionError).

No damping or line search is applied; divergence and cycling surface as
the max-iter status, with an end point labelled not-stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, NumericError
from .fuzzy_core import FuzzyNumber
from .level_calculus import (
    ComparabilityReport,
    FuzzyFunction,
    NonDominanceVerdict,
    ScalarizationConfig,
    _Point,
    _require_in_domain,
    _require_integer,
    _require_positive,
    comparability_check,
    non_dominance_check,
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
    """
    _require_in_domain(f, cfg.x0)
    xk = float(cfg.x0)
    trace: list[IterationRecord] = []
    status = STATUS_MAX_ITER
    for k in range(cfg.max_iter):
        point = _Point(f, xk, cfg.scal)
        try:
            fval = point.value()
            d1 = point.d1()
            d2 = point.d2()
        except NumericError:
            status = STATUS_NON_FINITE
            break
        except DomainError:
            status = STATUS_LEFT_DOMAIN
            break
        if not all(math.isfinite(v) for v in (fval, d1, d2)):
            status = STATUS_NON_FINITE
            break
        fuzzy_value = point.fuzzy_value()
        if abs(d2) < cfg.d2_floor:
            trace.append(
                IterationRecord(k, xk, fval, d1, d2, math.nan, fuzzy_value)
            )
            status = STATUS_D2_NEAR_ZERO
            break
        step = -d1 / d2
        trace.append(IterationRecord(k, xk, fval, d1, d2, step, fuzzy_value))
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
    """Post-hoc checks at a converged iterate."""

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
            f"max level derivative magnitude = {self.level_d1_max:.6g}",
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
    that solve's stationarity kind uses.
    """
    point = _Point(f, x, cfg.scal)
    # the level slopes first: they fetch the stencil levels d1 and d2 reuse
    level_d1_max = point.level_d1_max()
    d1, d2 = point.d1(), point.d2()
    m = cfg.scal.alpha_points
    return VerificationReport(
        xstar=x,
        d1=d1,
        d2=d2,
        stat_tol=_stat_tol(cfg.eps, d2),
        level_d1_max=level_d1_max,
        non_dominance=non_dominance_check(f, x, nbhd, samples, m),
        comp_plus=comparability_check(f, x, +1.0, nbhd, samples, m),
        comp_minus=comparability_check(f, x, -1.0, nbhd, samples, m),
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
