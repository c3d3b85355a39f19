"""Fuzzy-valued functions of one real variable and their scalarization.

A FuzzyFunction exposes a fuzzy-valued map through its level functions
lo(x, alpha) and hi(x, alpha).  The scalarization

    F(x) = integral over [0, 1] of (lo(x, a) + hi(x, a)) da

is computed by fixed-grid quadrature (trapezoid or Simpson), and its first
and second derivatives come either from user-supplied analytic level
derivatives (integrated with the same rule) or from central finite
differences applied to F itself.

All level values pass through one evaluator: ``_levels`` fetches one
level pair, a callable (x, alpha) -> (lo, hi), at a scalar x or on an
x-column by alpha grid, or a jet (below) at x; ``_integrate`` applies
the quadrature weights, cached per grid size and rule, a row at a time
or a block in one stacked call, and returns the values untested;
``_finite`` tests them, raising NumericError on a non-finite value; and
``_Point`` shares the levels fetched near one point among F, its
derivatives, the fuzzy value and the level slopes.  The Newton solver,
the verifier, the grid oracle and the centroid all read values through
it.  A Newton
iterate is one fetch on both derivative paths: ``_Point.fetch`` takes
the jet of a function with analytic F' and F'' at float(x), or else the
point's ``column()``, which a verification reads too, and integrates it
in one stacked call.  F at a point whose levels a _Point does not
keep comes from ``scalarize``, with a _Point of its own: a stencil point
outside the domain, and the stencil points of a solve's stationarity
kind and of the public ``scalarize_d1`` and ``scalarize_d2``.  A float
x takes a path of its own through it, with the same level map calls and
the same bits as row 0 of an x-column: ``_levels`` takes the grid's
shape without np.broadcast, ``_integrate`` takes the one row's 1-D dot,
``_Point`` tests it with math.isfinite, and ``crisp_lift`` adds a
0.0 * alpha row kept per shared grid.  A fuzzy value of f is built
only by ``_fuzzy_numbers``, which checks a block of level rows with one
call of fuzzy_core's validity kernel: one row for eval_fuzzy, a block
of iterates for a solve.

A FuzzyFunction derives one level pair per derivative order from its
two end fields.  A function built by ``crisp_lift``, ``negate`` or a
built-in of ``problems`` computes both ends in one call: its end fields
are the halves of one pair, made by ``_from_pairs``, each of which
computes the pair and returns its own end when called alone, and the
derived pair is that pair.  For any other two ends, a caller's own maps
or ends wrapped with dataclasses.replace, the pair calls lo and then hi.
Analytic derivatives come in both orders or none, and a function with
them has a private jet, one call for the level, d1 and d2 rows at a
float x, with the bits of each pair.  A built-in (and its negation, and
a crisp lift with both derivatives) has a jet fused from its pairs,
which the FuzzyFunction takes while its three derived pairs are the
ones the jet was built from; any other function's jet, a caller's own
maps' or wrapped ends', calls its three pairs and writes their rows
into one preallocated block (``_stacked``).

The alpha grid of each size is one object, fuzzy_core's ``_grid``: built
and validated once, read-only, and passed to every level map and every
fuzzy value.  So a FuzzyNumber on it skips the grid check, and the
built-in level maps keep what they derive from alpha alone in one table
for the last grid they saw, found by identity (fuzzy_core's
``_per_grid``), as crisp_lift keeps its row; an alpha array of a
caller's own gets a fresh table each time.

The neighbourhood checks (comparability and non-dominance) are read
by one scanner, ``_first_witness``, from one x-column: the point, any
other points whose levels the caller wants (a verification's: the rest
of its _Point's ``column()``), then each check's samples in the domain.
Each check reads the rows between two of one list of row bounds.  The
column is fetched in scalarize_many's blocks, one at a time, with one
fetch of the level pair, one call of fuzzy_core's row-wise invariant
kernel and one row-wise order kernel per block: whether each row is
below x0 and whether x0 is below it, of which each check reads its own
slice with its witness test, fuzzy_core's _below or _unrelated.  So a
verification is one fetch: its point's column and all three checks
take one fetch per block of 102 rows at 101 levels.  Verdicts,
witnesses and errors are those of taking the samples one at a time in
order and the checks one after another; a check that finds no sample in
the domain is inconclusive.

Level callables must accept numpy arrays for the alpha argument and
broadcast; accepting array x as well is optional but enables the fast
vectorized paths.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidLevelError, MalformedFunctionError, NumericError
from .fuzzy_core import (
    _ALPHA_POINTS,
    FuzzyNumber,
    _accepted_numbers,
    _below,
    _grid,
    _invalid_rows,
    _leq,
    _per_grid,
    _require_integer,
    _require_positive,
    _unrelated,
    _validate_levels,
)

__all__ = [
    "FuzzyFunction",
    "ScalarizationConfig",
    "ComparabilityReport",
    "NonDominanceVerdict",
    "OneSidedStencilWarning",
    "crisp_lift",
    "negate",
    "eval_fuzzy",
    "scalarize",
    "scalarize_many",
    "scalarize_d1",
    "scalarize_d2",
    "comparability_check",
    "non_dominance_check",
]

LevelMap = Callable[[float, np.ndarray], np.ndarray]
LevelPair = Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]]


class OneSidedStencilWarning(UserWarning):
    """A finite-difference stencil was shrunk to one-sided form at a
    domain boundary; the derivative estimate is first-order accurate."""


@dataclass(frozen=True, eq=False)
class FuzzyFunction:
    """A fuzzy-valued function given by its alpha-level endpoint maps.

    ``level_lo`` and ``level_hi`` evaluate the lower and upper level
    endpoints at (x, alpha).  Analytic level derivatives in x of orders
    1 and 2 are optional, as lo/hi pairs, but both orders or none: d1
    without d2, d2 without d1, or one end of a pair raises ValueError.
    Without them, scalarized derivatives fall back to finite
    differences.  ``domain`` is a closed real interval, possibly
    unbounded.

    Each order's two ends are read as one level pair, and a function
    with analytic derivatives gets a jet, which fetches the three orders
    at once (see ``_from_pairs``), both derived here, so that
    ``dataclasses.replace`` derives them anew.
    """

    level_lo: LevelMap
    level_hi: LevelMap
    d1_lo: Optional[LevelMap] = None
    d1_hi: Optional[LevelMap] = None
    d2_lo: Optional[LevelMap] = None
    d2_hi: Optional[LevelMap] = None
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = ""

    @property
    def has_analytic_d1(self) -> bool:
        return self.d1_lo is not None

    # analytic derivatives come in both orders or none
    has_analytic_d2 = has_analytic_d1

    def __post_init__(self):
        if not self.domain[0] <= self.domain[1]:
            raise ValueError(f"domain {self.domain} needs lo <= hi")
        derivatives = (self.d1_lo, self.d1_hi, self.d2_lo, self.d2_hi)
        if derivatives.count(None) not in (0, 4):
            raise ValueError("analytic derivatives come in both orders: "
                             "d1_lo, d1_hi, d2_lo and d2_hi go together")
        pairs = (_pair(self.level_lo, self.level_hi),
                 _pair(self.d1_lo, self.d1_hi), _pair(self.d2_lo, self.d2_hi))
        for name, pair in zip(("_level_pair", "_d1_pair", "_d2_pair"), pairs):
            object.__setattr__(self, name, pair)
        jet = None
        if self.d1_lo is not None:
            # the jet _from_pairs fused from these very pairs, else the
            # pairs stacked
            fused, jet = getattr(self.level_lo, "fused", (None, None))
            if jet is None or fused != pairs:
                jet = functools.partial(_stacked, pairs)
        object.__setattr__(self, "_jet", jet)

    def contains(self, x):
        """Whether x lies in the closed domain, elementwise; NaN does not."""
        return (self.domain[0] <= x) & (x <= self.domain[1])


class _Half:
    """One end of a level pair as a level map: it computes the pair and
    returns its lo end (end 0) or its hi end (end 1).  The halves that
    _from_pairs makes share ``fused``: the level, d1 and d2 pairs and
    the jet fused from them, None where none was given."""

    __slots__ = ("pair", "end", "fused")

    def __init__(self, pair: LevelPair, end: int, fused: tuple):
        self.pair, self.end, self.fused = pair, end, fused

    def __call__(self, x, a):
        return self.pair(x, a)[self.end]


def _pair(lo: Optional[LevelMap], hi: Optional[LevelMap]) -> Optional[LevelPair]:
    """The level pair of two end maps: the pair whose lo and hi halves
    they are, or else one that calls lo and then hi."""
    if lo is None:
        return None
    if (type(lo) is _Half and type(hi) is _Half and lo.pair is hi.pair
            and lo.end == 0 and hi.end == 1):
        return lo.pair
    return lambda x, a: (lo(x, a), hi(x, a))


def _stacked(pairs, x: float, a):
    """The jet of the level, d1 and d2 pairs called one after another:
    each end's three rows, broadcast against the alpha grid as they are
    written into one (2, 3, m) float block, whose halves are lo and hi.
    It is the jet of a function with analytic F' and F'' that has no
    jet fused from its pairs: a caller's own maps, or ends wrapped with
    dataclasses.replace."""
    lo, hi = np.empty((2, 3) + np.shape(a))
    for k, pair in enumerate(pairs):
        lo[k], hi[k] = pair(x, a)
    return lo, hi


def _from_pairs(level: LevelPair, d1: Optional[LevelPair] = None,
                d2: Optional[LevelPair] = None,
                jet: Optional[LevelPair] = None, **fields) -> FuzzyFunction:
    """The FuzzyFunction of a level pair per order, d1 and d2 optional.

    Its end fields are the halves of each pair, so an end called alone
    gives that end's values; the FuzzyFunction reads the pair itself.

    A jet is one callable (x, alpha) -> (lo, hi) for all three orders at
    a float x: the rows of lo and hi on their leading axis, of length 3,
    have the bits of the level, d1 and d2 pairs' lo and hi.  The halves
    carry it with the pairs, and the FuzzyFunction takes it as its
    ``_jet`` while its three derived pairs are these, so that a _Point
    fetches F, F' and F'' in one fused call; with any other ends, or no
    jet given, it stacks its pairs (``_stacked``).  A function without
    d1 and d2 has no jet.
    """
    fused = (level, d1, d2), jet
    ends = []
    for pair in (level, d1, d2):
        ends += (None, None) if pair is None else (
            _Half(pair, 0, fused), _Half(pair, 1, fused)
        )
    # the six end fields, in order
    return FuzzyFunction(*ends, **fields)


@dataclass(frozen=True)
class ScalarizationConfig:
    """Quadrature and finite-difference settings for the scalarization."""

    alpha_points: int = _ALPHA_POINTS
    quadrature: str = "simpson"
    fd_step: float = 1e-5

    def __post_init__(self):
        # a plain int, so that a numpy integer reads the shared grid
        m = _require_integer("alpha_points", self.alpha_points, 3)
        object.__setattr__(self, "alpha_points", m)
        if self.quadrature not in ("trapezoid", "simpson"):
            raise ValueError(
                f"quadrature must be 'trapezoid' or 'simpson', got "
                f"{self.quadrature!r}"
            )
        if self.quadrature == "simpson" and self.alpha_points % 2 == 0:
            raise ValueError("simpson quadrature needs an odd alpha_points")
        _require_positive("fd_step", self.fd_step)


@functools.lru_cache(maxsize=32)
def _quad_weights(m: int, quadrature: str) -> np.ndarray:
    """The trapezoid or Simpson weights of the m-point alpha grid.

    Built once per (m, quadrature) and shared read-only.
    """
    h = 1.0 / (m - 1)
    if quadrature == "trapezoid":
        w = np.full(m, h)
        w[0] = w[-1] = h / 2.0
    else:
        w = np.ones(m)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    w.flags.writeable = False
    return w


# 0.0 * alpha for the last shared grid seen, one row for every crisp
# lift: a value of the grid alone, so sharing it changes no result
_zeros = _per_grid(lambda a: 0.0 * a)


def crisp_lift(
    g: Callable,
    d1: Optional[Callable] = None,
    d2: Optional[Callable] = None,
    domain: tuple[float, float] = (-math.inf, math.inf),
    name: str = "",
) -> FuzzyFunction:
    """Embed a real function as a fuzzy one with degenerate levels lo = hi.

    Each order is one level pair that computes g(x) (or d1, d2) once
    and returns its row as both ends.  The row ignores alpha apart from
    broadcasting against it: it adds 0.0 * alpha, a row kept for the last
    shared grid seen.  With d1 and d2, a jet (see ``_from_pairs``) takes
    the three values at x as a column and adds the row to it in one
    addition, returning the (3, m) block as both ends.
    """
    maps = (g, d1, d2)

    def lift(fn):
        if fn is None:
            return None

        def pair(x, a):
            row = np.asarray(fn(x)) + _zeros(a)
            return row, row

        return pair

    pairs = [lift(fn) for fn in maps]

    def jet(x, a):
        rows = np.array([fn(x) for fn in maps], float)[:, None] + _zeros(a)
        return rows, rows

    return _from_pairs(*pairs, jet, domain=domain, name=name)


def negate(f: FuzzyFunction) -> FuzzyFunction:
    """Pointwise fuzzy negation: levels swap roles and change sign.

    Each order is one level pair, (-hi, -lo) from one call of f's pair,
    so negating a built-in computes its levels once per fetch; f's jet
    is flipped the same way into the negation's jet.
    """

    def flip(pair):
        if pair is None:
            return None

        def flipped(x, a):
            lo, hi = pair(x, a)
            return -np.asarray(hi), -np.asarray(lo)

        return flipped

    return _from_pairs(
        *map(flip, (f._level_pair, f._d1_pair, f._d2_pair, f._jet)),
        domain=f.domain, name=f"-({f.name})" if f.name else "",
    )


def _require_in_domain(f: FuzzyFunction, x: float) -> None:
    if not f.contains(x):
        raise DomainError(
            f"x={x} outside the function domain [{f.domain[0]}, {f.domain[1]}]"
        )


# What a level map written for a scalar x only raises on an x column.
_SCALAR_ONLY = (TypeError, ValueError)

# Level values per block of every many-point fetch (scalarize_many and the
# neighbourhood checks) and of the iterates whose fuzzy values a solve
# checks at once: a block takes max(1, 10302 // m) points, 102 at m = 101,
# so a 101-sample check and its point are one block, and so is a solve of
# up to 102 iterations.  Larger
# blocks cost page faults, not arithmetic.  Per grid_oracle pass (seed 1,
# getrusage of the process), 20000-point blocks made ~375k minor faults,
# as each 16 MB array is above glibc's 128 KiB mmap threshold and is
# mapped, faulted in and zeroed; 8192-12288 values made 1.3k-8.3k (10302:
# 1.7k-8.3k, the count moving with the process's heap) and 16384 made
# 5.6k.  With two more block-sized temporaries in max_return_fuzzy's
# level maps, 10752 and 12288 made 24k-26k and 16384 made 457k, nearly
# all in those maps, so tests/test_problems.py bounds each map's peak.
# As the maps are (no np.where block for a polynomial term whose rows
# share a sign, the return-risk sums in place), one script's passes read
# 7.0k, 10.0k, 7.9k and 141k faults at 8192, 10302, 12288 and 16384
# values, against 9.5k, 10.9k, 8.6k and 338k with one block more per
# map, so 16384 stays past the edge.  Row blocks of 1024-4096 read no
# faster than 20000 (2-core Xeon).
_BLOCK_VALUES = 10302


def _block_rows(m: int) -> int:
    """Points per block of the _BLOCK_VALUES budget at m levels."""
    return max(1, _BLOCK_VALUES // m)


def _blocks(xs: np.ndarray, m: int):
    """(start, block) over xs in blocks of _block_rows(m) points, start
    being the index in xs of the block's first point."""
    rows = _block_rows(m)
    return ((i, xs[i:i + rows]) for i in range(0, xs.size, rows))


def _levels(pair: LevelPair, x, alphas: np.ndarray, lead: tuple = ()):
    """A level pair at x on the alpha grid, as two float arrays.

    A scalar x gives arrays shaped like ``alphas``; an x column of shape
    (n, 1) gives (n, m) arrays.  A float x (np.float64 included) takes
    that shape without np.broadcast.  A jet's fetch passes lead=(3,):
    its arrays have a row per order in front of that shape.
    """
    if isinstance(x, float):
        shape = lead + alphas.shape
    else:
        shape = lead + np.broadcast(x, alphas).shape

    def shaped(values):
        values = np.asarray(values, float)
        return values if values.shape == shape else np.broadcast_to(values, shape)

    lo, hi = pair(x, alphas)
    return shaped(lo), shaped(hi)


def _levels_each(f: FuzzyFunction, xs: np.ndarray, alphas: np.ndarray):
    """The levels of f at each x in xs, as two (n, m) arrays: one fetch
    of its level pair, or one per point for maps that take a scalar x
    only."""
    try:
        return _levels(f._level_pair, xs[:, None], alphas)
    except _SCALAR_ONLY:
        pairs = [_levels(f._level_pair, float(x), alphas) for x in xs]
        return tuple(np.array(ends) for ends in zip(*pairs))


def _integrate(lo: np.ndarray, hi: np.ndarray, w: np.ndarray):
    """Quadrature of lo + hi over alpha, one value per row.

    Every row is integrated by one dot of its own, at every shape: a
    single row is the 1-D ``(lo + hi) @ w``, and numpy's matmul takes
    each (1, m) @ (m, 1) item of a block to that same vector dot, where
    a 2-D ``@`` would hand the block to BLAS gemv, which rounds each row
    by its place in the block.  So F has the same bits from scalarize,
    from scalarize_many at any block size, in the grid oracle and from
    a _Point's stacked block, and F' and F'' from a jet's three rows
    have the bits of each order's pair integrated alone.

    The values are returned untested: scalarize_many tests a block's by
    _finite, and a _Point tests each value by math.isfinite as it reads
    it.
    """
    if lo.ndim == 1:
        return (lo + hi) @ w
    return np.matmul((lo + hi)[..., None, :], w[:, None])[..., 0, 0]


def _finite(values, x):
    """values, once every one is finite: values at the points x, or one
    value at the point x.

    Raises NumericError naming the first x whose value is not finite;
    with positive weights, a non-finite level value makes it so.  A
    _Point tests its floats by math.isfinite, at a fraction of the cost
    of numpy's test of one value, and calls this only to word the error.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = np.ravel(x)[np.argmin(np.ravel(finite))]
        raise NumericError(f"non-finite level values at x={bad}")
    return values


def _fuzzy_numbers(f: FuzzyFunction, xs, lo, hi) -> list[FuzzyNumber]:
    """The fuzzy values of f at the points xs from their level rows lo
    and hi, on the shared grid of their length: the one way a value of f
    becomes a FuzzyNumber.

    One _invalid_rows call decides the whole block.  The first row it
    rejects raises MalformedFunctionError naming that x, worded by
    _validate_levels; otherwise each value holds read-only rows of one
    copy of the block, and no row is checked again.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    alphas = _grid(lo.shape[-1])
    bad = _invalid_rows(lo, hi)
    if bad.any():
        r = int(np.argmax(bad))
        try:
            _validate_levels(alphas, lo[r], hi[r])
        except InvalidLevelError as err:
            raise MalformedFunctionError(
                f"levels of {f.name or 'fuzzy function'} are invalid at "
                f"x={xs[r]:.9g}: {err}",
                x=xs[r],
                alpha=err.alpha,
            ) from err
    return _accepted_numbers(alphas, lo, hi)


def _stencil(f: FuzzyFunction, x: float, h: float):
    """Finite-difference stencil at x with step h.

    Returns the three abscissae, the pair (j, i, denom) with
    F'(x) ~ (F[j] - F[i]) / denom, and the side a one-sided stencil is
    shifted to at a domain boundary, None where the domain allows a
    central one.  A one-sided stencil's outer point may lie outside the
    domain; where neither side fits, raises DomainError.
    """
    if f.contains(x - h) and f.contains(x + h):
        return (x - h, x, x + h), (2, 0, 2.0 * h), None
    if f.contains(x + h):
        return (x, x + h, x + 2.0 * h), (1, 0, h), "right"
    if f.contains(x - h):
        return (x - 2.0 * h, x - h, x), (2, 1, h), "left"
    raise DomainError(
        f"domain too narrow for a finite-difference stencil around x={x}"
    )


def _outside_stacklevel() -> int:
    """The stacklevel at which a warnings.warn call in this function's
    caller names the first frame outside this package, at any depth."""
    package = __name__.rpartition(".")[0]
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get(
        "__name__", ""
    ).startswith(package + "."):
        frame, level = frame.f_back, level + 1
    return level


class _Point:
    """F, its derivatives, the fuzzy value and the level slopes of f at x.

    Levels fetched at a point are kept for the life of the object, so the
    finite-difference stencil around x, the fuzzy value at x and the
    level slopes share one evaluation per point.  ``fetch`` takes in one
    fetch what F, F' and F'' read near x, which is how the Newton solver
    reads each iterate: the three orders at x of f's jet where f has
    analytic F' and F'', else the levels of ``column()``.  Analytic F'
    and F'' read the jet's fetch, made when they are first read if
    ``fetch`` has not made it.  F at a point whose levels are not kept
    comes from ``scalarize``: a stencil point outside the domain, which
    raises DomainError there, and every point of a _Point that did not
    fetch its column, as the stationarity kind of a solve and the public
    scalarize_d1 and scalarize_d2 read theirs.

    The levels and values are kept by point, so a 0-d array x is taken
    as its float; any other x is kept as given, and errors name it so.
    """

    def __init__(self, f: FuzzyFunction, x: float, cfg: ScalarizationConfig):
        if isinstance(x, np.ndarray):
            x = float(x)
        _require_in_domain(f, x)
        self.f, self.x, self.cfg = f, x, cfg
        self.h = cfg.fd_step * max(1.0, abs(x))
        self.alphas = _grid(cfg.alpha_points)
        self.w = _quad_weights(cfg.alpha_points, cfg.quadrature)
        self._levels: dict = {}
        # F per point and the jet's F' and F'', each tested when read
        self._values: dict = {}
        self._orders = None
        self._fd = None

    def keep(self, points, lo, hi) -> None:
        """Keep rows lo[i] and hi[i], fetched elsewhere, as the levels at
        points[i]; they must not be written."""
        for p, row_lo, row_hi in zip(points, lo, hi):
            self._levels.setdefault(p, (row_lo, row_hi))

    def column(self) -> list:
        """The points whose levels a fetch near x takes, as one x-column:
        x first, then its other stencil points that lie in the domain, or
        x alone where the domain is too narrow for a stencil."""
        try:
            points = _stencil(self.f, self.x, self.h)[0]
        except DomainError:
            return [self.x]
        return [self.x] + [p for p in points
                           if p != self.x and self.f.contains(p)]

    def fetch(self) -> None:
        """Fetch and keep the jet's three orders at float(x) through
        _levels, where f has a jet, or else the levels of column()
        through _levels_each, and integrate the block with one stacked
        call of _integrate.

        F, F' and F'' then read kept values, each row integrated by its
        own dot, so they have the bits of points and orders fetched one
        at a time.  Each value is tested for finiteness when it is read,
        so what they raise or warn comes in the same order as without
        the fetch: F(x) is tested when value() reads it, a one-sided
        stencil warns when F' or F'' first reads it, a stencil point
        outside the domain raises DomainError when F reads it, and a
        domain too narrow for a stencil leaves a finite-difference F' to
        raise DomainError.  Only a level map's own error, at a stencil
        point or in a higher order of the jet, comes earlier, before
        F(x)'s NumericError.  Rows and values kept before are kept.

        A column's x rows are kept as copies of their own, so that
        levels(x), which a solve keeps past the point, holds no view of
        the whole column; a jet's are views of its (3, m) blocks, which
        a solve keeps for at most a block of iterates.
        """
        if self.f._jet is not None:
            lo, hi = _levels(self.f._jet, float(self.x), self.alphas, (3,))
            F, *self._orders = _integrate(lo, hi, self.w).tolist()
            self._levels.setdefault(self.x, (lo[0], hi[0]))
            self._values.setdefault(self.x, F)
            return
        column = self.column()
        lo, hi = _levels_each(self.f, np.array(column), self.alphas)
        self._levels.setdefault(self.x, (lo[0].copy(), hi[0].copy()))
        self.keep(column[1:], lo[1:], hi[1:])
        for p, value in zip(column, _integrate(lo, hi, self.w).tolist()):
            self._values.setdefault(p, value)

    def levels(self, p: float):
        if p not in self._levels:
            self._levels[p] = _levels(self.f._level_pair, p, self.alphas)
        return self._levels[p]

    def F(self, p: float) -> float:
        if p not in self._values:
            if p in self._levels:
                value = float(_integrate(*self._levels[p], self.w))
            else:
                value = scalarize(self.f, p, self.cfg)
            self._values[p] = value
        value = self._values[p]
        # _finite words the error
        return value if math.isfinite(value) else _finite(value, p)

    def value(self) -> float:
        self.levels(self.x)
        return self.F(self.x)

    def fuzzy_value(self) -> FuzzyNumber:
        lo, hi = self.levels(self.x)
        return _fuzzy_numbers(self.f, [self.x], [lo], [hi])[0]

    def stencil(self):
        """The stencil's abscissae and (j, i, denom), as _stencil gives
        them; the first read of a one-sided stencil warns."""
        if self._fd is None:
            points, first, side = _stencil(self.f, self.x, self.h)
            if side is not None:
                warnings.warn(
                    f"stencil shrunk to one-sided ({side}) at the domain "
                    f"boundary",
                    OneSidedStencilWarning,
                    stacklevel=_outside_stacklevel(),
                )
            self._fd = points, first
        return self._fd

    def _analytic(self, order: int) -> float:
        """F' (order 1) or F'' (order 2) from the jet's fetch."""
        if self._orders is None:
            self.fetch()
        value = self._orders[order - 1]
        return value if math.isfinite(value) else _finite(value, self.x)

    def d1(self) -> float:
        if self.f.has_analytic_d1:
            return self._analytic(1)
        points, (j, i, denom) = self.stencil()
        return (self.F(points[j]) - self.F(points[i])) / denom

    def d2(self) -> float:
        if self.f.has_analytic_d2:
            return self._analytic(2)
        fa, fb, fc = (self.F(p) for p in self.stencil()[0])
        return (fa - 2.0 * fb + fc) / (self.h * self.h)

    def level_d1_max(self) -> float:
        """Largest |d/dx| of a level endpoint, by the stencil's first
        difference."""
        points, (j, i, denom) = self.stencil()
        lo_j, hi_j = self.levels(points[j])
        lo_i, hi_i = self.levels(points[i])
        dlo = (lo_j - lo_i) / denom
        dhi = (hi_j - hi_i) / denom
        return float(max(np.max(np.abs(dlo)), np.max(np.abs(dhi))))


def eval_fuzzy(f: FuzzyFunction, x: float, m: int = _ALPHA_POINTS) -> FuzzyNumber:
    """The fuzzy value of f at x sampled on the uniform m-point grid.

    Raises MalformedFunctionError when the level maps violate the
    fuzzy-number invariants at some (x, alpha).
    """
    _require_in_domain(f, x)
    alphas = _grid(m)
    lo, hi = _levels(f._level_pair, x, alphas)
    return _fuzzy_numbers(f, [x], [lo], [hi])[0]


def scalarize(f: FuzzyFunction, x: float, cfg: ScalarizationConfig) -> float:
    """Quadrature approximation of the level-sum integral at one point."""
    return _Point(f, x, cfg).value()


def scalarize_many(f: FuzzyFunction, xs, cfg: ScalarizationConfig) -> np.ndarray:
    """F at each x of a 1-D array, 10302 level values (_BLOCK_VALUES) of
    points at a time: 102 points at 101 levels, and at least one point.

    A block is one x-column fetch of the level pair, or one fetch per
    point for maps that take a scalar x only, with the same values.  One
    block's levels are alive at a time, so memory stays that of one
    block.
    Raises DomainError naming the first x outside the domain, and
    NumericError when a value is not finite, as scalarize does.
    """
    xs = np.atleast_1d(np.asarray(xs, float))
    inside = f.contains(xs)
    if not np.all(inside):
        _require_in_domain(f, float(xs[np.argmin(inside)]))
    alphas = _grid(cfg.alpha_points)
    w = _quad_weights(cfg.alpha_points, cfg.quadrature)
    values = np.empty(xs.size)
    for start, block in _blocks(xs, alphas.size):
        values[start:start + block.size] = _finite(
            _integrate(*_levels_each(f, block, alphas), w), block
        )
    return values


def scalarize_d1(f: FuzzyFunction, x: float, cfg: ScalarizationConfig) -> float:
    """First derivative of the scalarized F at x.

    Integrates analytic level derivatives when available, otherwise a
    central difference of F with step fd_step * max(1, |x|).
    """
    return _Point(f, x, cfg).d1()


def scalarize_d2(f: FuzzyFunction, x: float, cfg: ScalarizationConfig) -> float:
    """Second derivative of the scalarized F at x (analytic or FD)."""
    return _Point(f, x, cfg).d2()


def _first_witness(
    f: FuzzyFunction, x0: float, checks, reach: float, m: int,
    lead=(), on_lead: Callable = lambda lo, hi: None,
) -> tuple[list, object]:
    """For each check (xs, is_witness, report), report(i, used): i the
    index in xs of its first sample x with is_witness(f(x) <= f(x0),
    f(x0) <= f(x)) in the fuzzy-max order, or None, and used the number
    of samples it compared; and what on_lead returned.

    Samples outside the domain are skipped, and so are samples within
    1e-12 * max(1, |x0|, reach) of x0, reach being how far the samples
    go: rounding can land one a few ulps off x0, which is x0 for all
    practical purposes, not evidence.

    x0, the points of lead (a verification's: the rest of its _Point's
    column()) and each check's kept samples, in that order, make one
    x-column, whose one layout is a list of row bounds: check c reads
    rows bounds[c] to bounds[c + 1].  The column is fetched in
    scalarize_many's blocks with one _invalid_rows call per block.  Once
    the rows of x0 and lead are in, on_lead gets copies of them, before
    a sample row is read.  One order kernel per block, fuzzy_core's _leq
    in each direction against x0's row, covers the whole block; each
    check not yet decided then reads its own slice of the two masks,
    its rows in this block, with its is_witness: the first row that is
    a witness or breaks an invariant decides, and a broken row raises
    MalformedFunctionError, as when the samples are taken one at a time
    and the checks one after another.  So does a broken x0, whatever
    the samples; lead rows are not checked.  Fetching stops once every
    check is decided.
    """
    _require_in_domain(f, x0)
    alphas = _grid(m)
    coincident = 1e-12 * max(1.0, abs(x0), reach)
    # masks, not indices: 1 byte per sample, not 8
    kept = [
        ~(np.abs(xs - x0) <= coincident) & f.contains(xs)
        for xs, *_ in checks
    ]
    head = 1 + len(lead)
    # check c reads rows bounds[c] to bounds[c + 1] of points
    bounds = np.cumsum([head, *map(np.count_nonzero, kept)]).tolist()
    points = np.empty(bounds[-1])
    points[:head] = x0, *lead
    for (xs, *_), k, first, end in zip(checks, kept, bounds, bounds[1:]):
        points[first:end] = xs[k]
    found = [None if a < b else (None, 0) for a, b in zip(bounds, bounds[1:])]
    # copies of the rows of x0 (the base of every order) and lead
    base = np.empty((2, head, m))
    for start, block in _blocks(points, m):
        lo, hi = _levels_each(f, block, alphas)
        bad = _invalid_rows(lo, hi)
        stop = start + block.size
        if start < head:
            # the slices of base end at row head
            base[:, start:stop] = lo[:head - start], hi[:head - start]
            if start == 0:
                x0_bad = bad[0]
            if stop >= head:
                measured = on_lead(*base)
                if x0_bad:
                    # raises: x0's row breaks an invariant
                    _fuzzy_numbers(f, [x0], base[0, :1], base[1, :1])
        le, ge = _leq(lo, hi, *base[:, 0]), _leq(*base[:, 0], lo, hi)
        for c, (first, end) in enumerate(zip(bounds, bounds[1:])):
            # check c's rows of this block are a to b
            a, b = max(first, start) - start, min(end, stop) - start
            if found[c] is not None or a >= b:
                continue
            hits = np.flatnonzero(bad[a:b] | checks[c][1](le[a:b], ge[a:b]))
            if hits.size:
                r = a + int(hits[0])
                if bad[r]:
                    # raises: row r breaks an invariant
                    _fuzzy_numbers(
                        f, [float(block[r])], lo[r:r + 1], hi[r:r + 1]
                    )
                # row start + r of points is check c's i-th kept sample
                i = start + r - first
                found[c] = int(np.flatnonzero(kept[c])[i]), i + 1
            elif end <= stop:
                found[c] = None, end - first
        # no view of this block may outlive it into the next fetch
        del lo, hi, bad
        if stop >= head and None not in found:
            break
    return [report(*hit) for (*_, report), hit in zip(checks, found)], measured


def _require_finite_samples(x0: float, nbhd: float, samples: int,
                            farthest: Callable[[], float]) -> None:
    """ValueError naming nbhd, before any level is fetched, where samples
    around a finite x0 overflow.  farthest() is a Python float, which
    overflows to inf without numpy's warning, infinite exactly where a
    sample overflows."""
    if samples and math.isfinite(x0) and math.isinf(farthest()):
        raise ValueError(
            f"nbhd={nbhd} takes the samples around x={x0} past the "
            f"largest float"
        )


def _comparability(x0: float, directions, delta: float, samples: int):
    """The samples, witness test and report of comparability_check, one
    check per direction d of directions, all on one grid of lambdas."""
    _require_positive("nbhd", delta)
    _require_integer("samples", samples, 0)
    lams = np.linspace(0.0, delta, samples + 2)[1:-1]

    def check(d):
        if not (math.isfinite(d) and d):
            raise ValueError(
                f"direction d must be finite and nonzero, got {d}"
            )
        # the last sample is the farthest from x0
        _require_finite_samples(x0, delta, samples,
                                lambda: x0 + float(lams[-1]) * d)

        def report(i, used):
            return ComparabilityReport(
                direction=d, delta=delta, samples=used,
                witness=None if i is None else float(lams[i]),
            )

        return x0 + lams * d, _unrelated, report

    return [check(d) for d in directions]


def _non_dominance(xstar: float, eps_nbhd: float, samples: int):
    """The samples, witness test and verdict of non_dominance_check."""
    _require_positive("nbhd", eps_nbhd)
    _require_integer("samples", samples, 0)
    lo, hi = xstar - eps_nbhd, xstar + eps_nbhd
    # linspace steps by hi - lo
    _require_finite_samples(xstar, eps_nbhd, samples, lambda: hi - lo)
    # with no sample, no span to step by: one that overflows would warn
    grid = np.linspace(lo, hi, samples) if samples else np.empty(0)

    def verdict(i, used):
        return NonDominanceVerdict(
            samples=used, dominator=None if i is None else float(grid[i]),
        )

    return grid, _below, verdict


# How a check that compared no sample describes itself.
_NO_SAMPLE = "inconclusive (0 samples in the domain)"


@dataclass(frozen=True)
class ComparabilityReport:
    """Outcome of sampling comparability along one direction."""

    direction: float
    delta: float
    samples: int
    witness: Optional[float] = None

    @property
    def ok(self) -> bool:
        """No witness among at least one sample; none is inconclusive."""
        return self.witness is None and self.samples > 0

    def describe(self) -> str:
        if self.samples == 0:
            return _NO_SAMPLE
        if self.ok:
            return (
                f"comparable along d={self.direction:+g} for {self.samples} "
                f"samples in (0, {self.delta:g})"
            )
        return (
            f"incomparable at lambda={self.witness:.9g} along "
            f"d={self.direction:+g}"
        )


def comparability_check(
    f: FuzzyFunction,
    x0: float,
    d: float,
    delta: float,
    samples: int,
    m: int = _ALPHA_POINTS,
) -> ComparabilityReport:
    """Sample lambda in (0, delta) and test whether f(x0 + lambda d) and
    f(x0) are comparable at every sampled lambda.

    Returns the first violating lambda as a witness on failure.  Sampled
    points falling outside the domain are skipped; with none left, the
    report is not ok.  A delta that is not positive and finite, a
    direction d that is not finite and nonzero, or a sample count that is
    not a non-negative integer, raises ValueError, and so does a delta
    whose samples around a finite x0 overflow.
    """
    (report,), _ = _first_witness(
        f, x0, _comparability(x0, (d,), delta, samples), delta, m
    )
    return report


@dataclass(frozen=True)
class NonDominanceVerdict:
    """Outcome of a sampled search for dominating neighbors."""

    samples: int
    dominator: Optional[float] = None

    @property
    def dominated(self) -> bool:
        return self.dominator is not None

    def describe(self) -> str:
        if self.dominated:
            return f"dominated-by {self.dominator:.9g}"
        if self.samples == 0:
            return _NO_SAMPLE
        return f"no-dominator-found ({self.samples} samples)"


def non_dominance_check(
    f: FuzzyFunction,
    xstar: float,
    eps_nbhd: float,
    samples: int,
    m: int = _ALPHA_POINTS,
) -> NonDominanceVerdict:
    """Search [xstar - eps, xstar + eps] for a point whose fuzzy value is
    strictly below f(xstar) in the fuzzy-max order.

    A sampling check, not a proof; the verdict records how many points
    were examined, and with none it describes itself as inconclusive.
    An eps that is not positive and finite, or a sample count that is not
    a non-negative integer, raises ValueError, and so does an eps whose
    samples around a finite xstar overflow.
    """
    (verdict,), _ = _first_witness(
        f, xstar, [_non_dominance(xstar, eps_nbhd, samples)], eps_nbhd, m
    )
    return verdict
