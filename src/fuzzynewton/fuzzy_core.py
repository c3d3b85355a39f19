"""Fuzzy numbers as alpha-level intervals on a uniform grid.

A fuzzy number is represented by its alpha-cuts sampled on a uniform grid
0 = alpha_1 < ... < alpha_M = 1.  Every operation works endpoint-wise on
the sampled intervals: addition and scalar multiplication follow the
standard extension-principle rules, multiplication and division take the
min/max over the four endpoint products, and the square is the dependent
image of t -> t**2 so that levels straddling zero stay valid.

The module also provides the fuzzy-max partial order, the sup-of-level
distances metric, and the Hukuhara difference (which may fail to exist;
nonexistence is reported as a value, not an exception).  The level
invariants and the order are each defined once, as private kernels over
level arrays of any leading shape, so that a block of many samples is
validated and compared at once; FuzzyNumber and leq/lt/comparable call
the same kernels.  One kernel, _invalid_rows, decides in a few numpy
calls whether each row is a fuzzy number; only a row it rejects is
worded, by _level_faults, which finds the first fault at the lowest
alpha.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    InvalidLevelError,
    SingularLevelError,
)

__all__ = [
    "Interval",
    "TriangularFuzzy",
    "FuzzyNumber",
    "HukuharaNonexistence",
    "uniform_alphas",
    "alpha_cut",
    "discretize",
    "crisp",
    "add",
    "scalar_mul",
    "mul",
    "div",
    "square",
    "reciprocal",
    "leq",
    "lt",
    "comparable",
    "distance",
    "hukuhara_diff",
    "levels_equal",
    "triangular_to_record",
]

# Absolute slack used when validating level ordering and nestedness; scaled
# by the magnitude of the data so exact constructions never trip it while
# floating-point dust from long arithmetic chains is tolerated.
EQUALITY_TOL = 1e-12

# Levels of the default alpha grid, for sampling, quadrature and checks.
_ALPHA_POINTS = 101


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi], one alpha-level of a fuzzy number."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidLevelError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise InvalidLevelError(
                f"interval lower end {self.lo} exceeds upper end {self.hi}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class TriangularFuzzy:
    """Triangular fuzzy number (left, peak, right) with exact alpha-cuts."""

    left: float
    peak: float
    right: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.left, self.peak, self.right))):
            raise InvalidLevelError(
                f"triangular vertices must be finite, got "
                f"({self.left}, {self.peak}, {self.right})"
            )
        if not (self.left <= self.peak <= self.right):
            raise InvalidLevelError(
                f"triangular shape requires left <= peak <= right, got "
                f"({self.left}, {self.peak}, {self.right})"
            )

    def cut(self, alpha):
        """Endpoints (lo, hi) of the alpha-cut, for a float or an array:
        [(1-a)*left + a*peak, (1-a)*right + a*peak]."""
        return (
            (1.0 - alpha) * self.left + alpha * self.peak,
            (1.0 - alpha) * self.right + alpha * self.peak,
        )


def alpha_cut(t: TriangularFuzzy, alpha: float) -> Interval:
    """Exact alpha-cut of t as an Interval.

    Raises DomainError if alpha lies outside [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return Interval(*t.cut(alpha))


def uniform_alphas(m: int) -> np.ndarray:
    """The uniform membership grid 0 = a_1 < ... < a_m = 1."""
    if m < 2:
        raise InvalidLevelError(f"grid needs at least 2 levels, got {m}")
    return np.linspace(0.0, 1.0, m)


# typed, so that m = 5.0 is not served the grid of 5 but rejected as
# uniform_alphas rejects it
@functools.lru_cache(maxsize=32, typed=True)
def _grid(m: int) -> np.ndarray:
    """The uniform m-point grid, validated once and shared by every
    caller: a read-only view of a read-only base, so no holder can make
    it writeable again."""
    # a copy owns its memory, where linspace may return a view
    base = uniform_alphas(m).copy()
    _validate_grid(base)
    base.flags.writeable = False
    return base.view()


def _is_grid(alphas) -> bool:
    """Whether alphas is the very object _grid returns for its size."""
    return (
        isinstance(alphas, np.ndarray)
        and not alphas.flags.writeable
        and alphas.ndim == 1
        and alphas.size >= 2
        and alphas is _grid(alphas.size)
    )


class FuzzyNumber:
    """A fuzzy number sampled on a uniform alpha-grid.

    Holds three parallel immutable arrays: ``alphas`` (the grid),
    ``lo`` (lower level endpoints, nondecreasing in alpha) and ``hi``
    (upper endpoints, nonincreasing in alpha).  Construction validates
    per-level ordering, nestedness, and grid uniformity; the shared
    grid of ``_grid`` is taken as it is, since it was validated when it
    was built and cannot be written.
    """

    __slots__ = ("alphas", "lo", "hi")

    def __init__(self, alphas, lo, hi):
        # Copy so freezing the arrays never flips flags on caller data.
        if not _is_grid(alphas):
            alphas = np.array(alphas, dtype=float, copy=True)
            _validate_grid(alphas)
            alphas.flags.writeable = False
        lo = np.array(lo, dtype=float, copy=True)
        hi = np.array(hi, dtype=float, copy=True)
        if lo.shape != alphas.shape or hi.shape != alphas.shape:
            raise InvalidLevelError(
                "alphas, lo, hi must be one-dimensional and equally long"
            )
        _validate_levels(alphas, lo, hi)
        for arr in (lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyNumber is immutable")

    @property
    def m(self) -> int:
        """Number of grid levels."""
        return self.alphas.size

    def support(self) -> Interval:
        """The 0-level interval."""
        return Interval(float(self.lo[0]), float(self.hi[0]))

    def core(self) -> Interval:
        """The 1-level interval."""
        return Interval(float(self.lo[-1]), float(self.hi[-1]))

    def __repr__(self):
        s, c = self.support(), self.core()
        return (
            f"FuzzyNumber(m={self.m}, support=[{s.lo:.6g}, {s.hi:.6g}], "
            f"core=[{c.lo:.6g}, {c.hi:.6g}])"
        )

    def __eq__(self, other):
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        try:
            return levels_equal(self, other)
        except GridMismatchError:
            return False

    def __hash__(self):
        # equality is tolerant, so only the grid size can be hashed
        return hash(self.m)


def _validate_grid(alphas: np.ndarray) -> None:
    if alphas.ndim != 1 or alphas.size < 2:
        raise InvalidLevelError("alpha grid must be 1-d with at least 2 points")
    if alphas[0] != 0.0 or alphas[-1] != 1.0:
        raise InvalidLevelError("alpha grid must start at 0 and end at 1")
    step = 1.0 / (alphas.size - 1)
    if not np.allclose(np.diff(alphas), step, rtol=0.0, atol=1e-12):
        raise InvalidLevelError("alpha grid must be uniform")


def _slack(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The tolerance of each row of levels shaped (..., m), as (..., 1):
    EQUALITY_TOL scaled by the row's largest endpoint magnitude, or 1.
    It is not finite exactly when the row holds a NaN or an infinity."""
    scale = np.maximum(np.abs(lo), np.abs(hi)).max(axis=-1, keepdims=True)
    return EQUALITY_TOL * np.maximum(1.0, scale)


def _breaks(lo: np.ndarray, hi: np.ndarray, tol: np.ndarray) -> tuple:
    """The masks of the invariants that tol bounds, for levels shaped
    (..., m): lo > hi, a lower endpoint that decreases and an upper one
    that increases from one level to the next, each beyond tol.  The
    nestedness masks are one level shorter."""
    return (
        lo > hi + tol,
        lo[..., 1:] - lo[..., :-1] < -tol,
        hi[..., 1:] - hi[..., :-1] > tol,
    )


# What each mask of _level_faults reports, and the offset from a mask
# index to the level index it is reported at.
_FAULTS = (
    ("level endpoints must be finite (alpha={a:.6g})", 0),
    ("level ordering lo <= hi fails at alpha={a:.6g} ({lo} > {hi})", 0),
    ("nestedness fails: lower endpoints decrease at alpha={a:.6g}", 1),
    ("nestedness fails: upper endpoints increase at alpha={a:.6g}", 1),
)


def _invalid_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows of levels shaped (..., m) are not fuzzy numbers.

    The one kernel that decides validity, for a FuzzyNumber and for a
    block of sampled levels alike.  A row is finite exactly when its
    _slack is, so finiteness is read from that one value per row and not
    from each endpoint.
    """
    # inf - inf gives nan only in rows whose slack is not finite
    with np.errstate(invalid="ignore"):
        tol = _slack(lo, hi)
        order, lower, upper = _breaks(lo, hi, tol)
        return (
            ~np.isfinite(tol[..., 0])
            | order.any(axis=-1)
            | (lower | upper).any(axis=-1)
        )


def _level_faults(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """One mask per entry of _FAULTS, to word a row that _invalid_rows
    rejects: a non-finite endpoint, then the masks of _breaks."""
    with np.errstate(invalid="ignore"):
        return (
            ~(np.isfinite(lo) & np.isfinite(hi)),
            *_breaks(lo, hi, _slack(lo, hi)),
        )


def _validate_levels(alphas, lo, hi) -> None:
    """Raise InvalidLevelError unless the levels form a fuzzy number.

    _invalid_rows decides; only a row it rejects is worded, from
    _level_faults, at the lowest alpha whose level breaks an invariant.
    At one alpha, ordering is reported before the lower and then the
    upper nestedness; non-finite endpoints are reported first.
    """
    if not _invalid_rows(lo, hi):
        return
    # (not the non-finite kind, level index, rank) of each kind's first
    # violation; the smallest is reported
    _, i, rank = min(
        (rank > 0, int(np.argmax(bad)) + offset, rank)
        for rank, ((_, offset), bad) in enumerate(
            zip(_FAULTS, _level_faults(lo, hi))
        )
        if bad.any()
    )
    raise InvalidLevelError(
        _FAULTS[rank][0].format(a=alphas[i], lo=lo[i], hi=hi[i]),
        alpha=float(alphas[i]),
    )


def _require_same_grid(a: FuzzyNumber, b: FuzzyNumber) -> None:
    if a.m != b.m or not np.array_equal(a.alphas, b.alphas):
        raise GridMismatchError(
            f"operands use different alpha grids ({a.m} vs {b.m} levels)"
        )


def discretize(t: TriangularFuzzy, m: int = _ALPHA_POINTS) -> FuzzyNumber:
    """Sample a triangular fuzzy number onto the uniform m-point grid."""
    alphas = _grid(m)
    return FuzzyNumber(alphas, *t.cut(alphas))


def crisp(value: float, m: int = _ALPHA_POINTS) -> FuzzyNumber:
    """A real number embedded as a fuzzy number (all levels degenerate)."""
    alphas = _grid(m)
    v = np.full(m, float(value))
    return FuzzyNumber(alphas, v, v.copy())


def add(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Level-wise sum [aL + bL, aU + bU]."""
    _require_same_grid(a, b)
    return FuzzyNumber(a.alphas, a.lo + b.lo, a.hi + b.hi)


def scalar_mul(lam: float, a: FuzzyNumber) -> FuzzyNumber:
    """Scale by a real; negative scalars swap the level endpoints."""
    if lam >= 0.0:
        return FuzzyNumber(a.alphas, lam * a.lo, lam * a.hi)
    return FuzzyNumber(a.alphas, lam * a.hi, lam * a.lo)


def _endpoint_hull(op, a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Levels spanning op over the four endpoint pairs of a and b."""
    ends = np.stack([op(p, q) for p in (a.lo, a.hi) for q in (b.lo, b.hi)])
    return FuzzyNumber(a.alphas, ends.min(axis=0), ends.max(axis=0))


def _require_zero_free(a: FuzzyNumber, what: str) -> None:
    """Raise SingularLevelError at the first level of a that holds 0."""
    contains_zero = (a.lo <= 0.0) & (a.hi >= 0.0)
    if np.any(contains_zero):
        i = int(np.argmax(contains_zero))
        raise SingularLevelError(
            f"{what} contains 0 at alpha={a.alphas[i]:.6g}",
            alpha=float(a.alphas[i]),
        )


def mul(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Level-wise interval product: min/max over the four endpoint products."""
    _require_same_grid(a, b)
    return _endpoint_hull(np.multiply, a, b)


def div(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Level-wise interval quotient; every level of b must exclude 0."""
    _require_same_grid(a, b)
    _require_zero_free(b, "divisor level")
    return _endpoint_hull(np.divide, a, b)


def _square_lo(lo, hi):
    """Lower end of the dependent square (see square) of levels [lo, hi]:
    lo^2 where lo >= 0, else min(hi, 0)^2, which is hi^2 where hi <= 0
    and 0 where the level straddles 0.  fmin, unlike minimum, gives 0
    for a NaN hi, so that a NaN hi never reaches the square; one array
    is squared in place."""
    t = np.where(lo >= 0.0, lo, np.fmin(hi, 0.0))
    t *= t
    return t


def square(a: FuzzyNumber) -> FuzzyNumber:
    """Dependent square: the image of each level through t -> t**2.

    Levels entirely nonnegative map to [L^2, U^2]; entirely nonpositive
    to [U^2, L^2]; levels straddling zero to [0, max(L^2, U^2)].
    """
    hi = np.maximum(a.lo * a.lo, a.hi * a.hi)
    return FuzzyNumber(a.alphas, _square_lo(a.lo, a.hi), hi)


def reciprocal(a: FuzzyNumber) -> FuzzyNumber:
    """Level-wise reciprocal [1/U, 1/L]; every level must exclude 0."""
    _require_zero_free(a, "level")
    return FuzzyNumber(a.alphas, 1.0 / a.hi, 1.0 / a.lo)


def _leq(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Fuzzy-max order a <= b on levels shaped (..., m), row by row: both
    endpoints ordered at every grid alpha."""
    return np.all(a_lo <= b_lo, axis=-1) & np.all(a_hi <= b_hi, axis=-1)


def _lt(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Strict fuzzy-max order, row by row: _leq plus strictness at some
    grid alpha."""
    strict = np.any(a_lo < b_lo, axis=-1) | np.any(a_hi < b_hi, axis=-1)
    return _leq(a_lo, a_hi, b_lo, b_hi) & strict


def _comparable(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """Related in at least one direction of the fuzzy-max order, row by
    row."""
    return _leq(a_lo, a_hi, b_lo, b_hi) | _leq(b_lo, b_hi, a_lo, a_hi)


def leq(a: FuzzyNumber, b: FuzzyNumber) -> bool:
    """Fuzzy-max order: both endpoints ordered at every grid alpha."""
    _require_same_grid(a, b)
    return bool(_leq(a.lo, a.hi, b.lo, b.hi))


def lt(a: FuzzyNumber, b: FuzzyNumber) -> bool:
    """Strict fuzzy-max order: leq plus strictness at some grid alpha."""
    _require_same_grid(a, b)
    return bool(_lt(a.lo, a.hi, b.lo, b.hi))


def comparable(a: FuzzyNumber, b: FuzzyNumber) -> bool:
    """Related in at least one direction of the fuzzy-max order."""
    _require_same_grid(a, b)
    return bool(_comparable(a.lo, a.hi, b.lo, b.hi))


def distance(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """Sup over the grid of the larger endpoint deviation per level."""
    _require_same_grid(a, b)
    return float(
        np.max(np.maximum(np.abs(a.lo - b.lo), np.abs(a.hi - b.hi)))
    )


@dataclass(frozen=True)
class HukuharaNonexistence:
    """Verdict returned when the Hukuhara difference does not exist.

    Cites the first grid alpha at which the candidate levels violate
    the fuzzy-number invariants.
    """

    alpha: float
    reason: str

    def __bool__(self):
        return False


def hukuhara_diff(
    a: FuzzyNumber, b: FuzzyNumber
) -> FuzzyNumber | HukuharaNonexistence:
    """The fuzzy number c with c + b = a, when it exists.

    The candidate has levels [aL - bL, aU - bU]; it is returned only if
    those levels form a valid fuzzy number, otherwise a
    HukuharaNonexistence verdict cites the first violated alpha.
    """
    _require_same_grid(a, b)
    try:
        return FuzzyNumber(a.alphas, a.lo - b.lo, a.hi - b.hi)
    except InvalidLevelError as err:
        return HukuharaNonexistence(err.alpha, str(err))


def levels_equal(a: FuzzyNumber, b: FuzzyNumber, tol: float = EQUALITY_TOL) -> bool:
    """Level-wise equality within tol on a shared grid: distance <= tol."""
    return bool(distance(a, b) <= tol)


def triangular_to_record(t: TriangularFuzzy) -> list:
    """[left, peak, right] list form, as problems._triangular reads it."""
    return [t.left, t.peak, t.right]
