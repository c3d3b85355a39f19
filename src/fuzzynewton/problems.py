"""Built-in optimization problems and a declarative problem format.

Three built-ins are registered:

- ``example_4_1``: the fuzzy cubic objective x^3 (.) (0,1,2) (+) x^2 (.)
  (1,2,3), assembled by sign-aware fuzzy-polynomial composition with
  analytic level derivatives.
- ``max_return_crisp``: a crisp return-risk tradeoff in one variable,
  embedded as a degenerate fuzzy function with analytic derivatives.
- ``max_return_fuzzy``: the same tradeoff with triangular-fuzzy risk
  bound and weight, its levels composed by interval arithmetic at each
  alpha (no analytic derivatives; the solver differentiates the
  scalarization by finite differences).

User-defined fuzzy-polynomial objectives use the same machinery through
``build_fuzzy_polynomial`` and the JSON problem-config format.

Each kind writes each derivative order as one level pair (see
``level_calculus._from_pairs``), which computes both level ends in one
call: the x-side work they share is done once.  What a builder derives
from alpha alone, the coefficient cuts or the return-risk bounds with
their weights rho_L/V_U^2 and rho_U/V_L^2, is tabled by ``_per_grid``
once per shared alpha grid; the level pairs do only the x-side work on
each call.

The return-risk maps do that work on a float x as a Python float (see
``_x``): they only add and multiply x, which round alike in Python and
in numpy, and a 0-d array costs about 1 us per operation.  The fuzzy
pair takes the alpha table, c(x), the residual end c - V_L and the
linear part once for both ends; the crisp pairs compute g(x) (or g',
g'') once and return its row as both ends.

A polynomial pair runs one loop for a float x and for an x-column (a
block of scalarize_many).  It takes the powers once per call as numpy's
``x**i``: for a float x these are 0-d and then become Python floats, so
the sign test and the derivative factor run in Python; Python's
``x**2`` calls ``pow``, which can differ from numpy's square in the
last bit, and raises OverflowError where numpy returns inf.  One
helper, ``_term_cut``, picks each term's coefficient cuts for both ends
(for the lower end cL where x^i >= 0, else cU, and the other for the
upper end): a Python test for a float, one pair of cuts for a column
whose rows share that sign, broadcast over the column in one pass, and
np.where only for a mixed-sign column.  Each term's factor is taken
once for both ends, and the derivative pairs read x^(i-n) from the same
powers.

The analytic kinds, a polynomial and the crisp return-risk tradeoff,
also write a jet (``level_calculus._from_pairs``): the level, d1 and d2
pairs from one call, with their bits, which a Newton iterate fetches
once.  A polynomial's jet takes the powers of a float x once, reads each
term's two cuts as one row pair of the (terms, 2, m) cut table and adds
its product into every order it counts for, i >= n, in the pairs' order.

The return-risk maps scale and shift their residual square in place.
A term's product and each sum have the operands of the plain formulas,
in another order, so every level keeps its bits: per element, each end
runs the operations of its own map as first written, in the same
order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigFormatError, InvalidLevelError, SingularLevelError
from .fuzzy_core import (
    TriangularFuzzy, _per_grid, _require_positive, _square_lo, triangular_to_record,
)
from .level_calculus import (
    FuzzyFunction, ScalarizationConfig, _from_pairs, _stacked, crisp_lift,
    negate, scalarize_many,
)
from .newton_solver import NewtonConfig

__all__ = [
    "MaxReturnParams",
    "ProblemSpec",
    "ResolvedProblem",
    "BUILTIN_NAMES",
    "build_example_4_1",
    "build_max_return_crisp",
    "build_max_return_fuzzy",
    "build_fuzzy_polynomial",
    "resolve_problem",
    "parse_problem_config",
    "serialize_problem_config",
    "grid_search_min",
]

# Return-risk model constants: expected-return line and the quadratic
# risk response entering the penalty term.
LIN1 = -0.06667
LIN0 = -1.1167
C2 = 0.1256
C1 = -0.1589
C0 = 0.05139

ParamValue = Union[int, float, TriangularFuzzy]


def _as_triangular(v: ParamValue) -> TriangularFuzzy:
    if isinstance(v, TriangularFuzzy):
        return v
    v = float(v)
    return TriangularFuzzy(v, v, v)


@dataclass(frozen=True)
class MaxReturnParams:
    """Risk bound Va and penalty weight rho, each crisp or triangular."""

    Va: ParamValue
    rho: ParamValue

    def __post_init__(self):
        if _as_triangular(self.Va).left <= 0.0:
            raise SingularLevelError(
                "every level of Va must be strictly positive", alpha=0.0
            )
        if _as_triangular(self.rho).left <= 0.0:
            raise ValueError("every level of rho must be strictly positive")

    @property
    def is_fuzzy(self) -> bool:
        return any(isinstance(v, TriangularFuzzy) for v in vars(self).values())


DEFAULT_FUZZY_PARAMS = MaxReturnParams(
    Va=TriangularFuzzy(0.00167, 0.00168, 0.00172),
    rho=TriangularFuzzy(0.5, 1.5, 3.5),
)
DEFAULT_CRISP_PARAMS = MaxReturnParams(Va=0.00168, rho=1.0)


def _term_cut(power, cl, cu):
    """The cuts a polynomial term multiplies for its lower and upper
    end, in that order: cl and cu where x^i = power is >= 0, else cu and
    cl (a NaN power included).  A float power gives one pair of cuts; a
    column's rows each take one pair for the whole term, so a column
    whose rows share a sign broadcasts that pair, and only a mixed-sign
    column selects per row with np.where, one block per end, each made
    as it is read."""
    if isinstance(power, float):
        return (cl, cu) if power >= 0.0 else (cu, cl)
    # count_nonzero is one pass
    pos = power >= 0.0
    n = np.count_nonzero(pos)
    if n == pos.size:
        return cl, cu
    if n == 0:
        return cu, cl
    return (np.where(pos, *ends) for ends in ((cl, cu), (cu, cl)))


def build_fuzzy_polynomial(
    coeffs: Sequence[TriangularFuzzy], name: str = ""
) -> FuzzyFunction:
    """Levels of sum_i c_i (.) x^i with sign-aware scalar multiplication.

    ``coeffs[i]`` multiplies x**i.  Each term contributes
    [cL * x^i, cU * x^i] when x^i >= 0 and the swapped pair otherwise,
    so level endpoints are piecewise-polynomial in x with the only
    breakpoints at x = 0 (odd powers).  Analytic level derivatives are
    assembled term-wise.
    """
    if len(coeffs) < 1:
        raise ValueError("need at least one coefficient")
    coeffs = tuple(coeffs)

    @_per_grid
    def cuts(a):
        """Each term's (lower, upper) cuts on the grid a: one (terms, 2,
        m) block, which the jet reads, and its rows as (cl, cu) views,
        which the pairs read without making a view per call."""
        block = np.array([c.cut(a) for c in coeffs])
        return block, [tuple(row) for row in block]

    def level_pair(order: int):
        """Both endpoints of the n-th x-derivative, n = order:
        d^n/dx^n x^i = i!/(i-n)! * x^(i-n), so only terms i >= n count."""

        def levels(x, a):
            scalar = isinstance(x, float)
            x = np.asarray(x, float)
            # numpy's powers; a float x's are 0-d, then Python floats
            powers = [float(x**i) if scalar else x**i
                      for i in range(len(coeffs))]
            shape = np.shape(a) if scalar else np.broadcast(x, a).shape
            lo, hi = np.zeros(shape), np.zeros(shape)
            for i, (cl, cu) in enumerate(cuts(a)[1][order:], order):
                factor = math.perm(i, order) * powers[i - order]
                # the upper end's cut is read once the lower end's term
                # is summed, so one np.where block is alive at a time
                cut = iter(_term_cut(powers[i], cl, cu))
                lo += next(cut) * factor
                hi += next(cut) * factor
            return lo, hi

        return levels

    pairs = [level_pair(order) for order in range(3)]

    def jet(x, a):
        """The three orders' pairs as (3, ...) blocks.  For a float x the
        powers are taken once, each term's two cuts are one (2, m) row
        pair, swapped as _term_cut swaps them, and each order's row pair
        sums its terms i >= n from zeros in order, as its pair does; any
        other x stacks the pairs."""
        if not isinstance(x, float):
            return _stacked(pairs, x, a)
        x = np.asarray(x, float)
        powers = [float(x**i) for i in range(len(coeffs))]
        table = cuts(a)[0]
        # order n's row pair (lo, hi) is out[n]
        out = np.zeros((3, 2) + np.shape(a))
        rows = list(out)
        for i, power in enumerate(powers):
            cut = table[i] if power >= 0.0 else table[i, ::-1]
            for n, row in zip(range(i + 1), rows):
                row += cut * (math.perm(i, n) * powers[i - n])
        return out[:, 0], out[:, 1]

    return _from_pairs(
        *pairs, jet,
        name=name or f"fuzzy_polynomial(degree={len(coeffs) - 1})",
    )


EXAMPLE_4_1_COEFFS = (
    TriangularFuzzy(0.0, 0.0, 0.0),
    TriangularFuzzy(0.0, 0.0, 0.0),
    TriangularFuzzy(1.0, 2.0, 3.0),
    TriangularFuzzy(0.0, 1.0, 2.0),
)


def build_example_4_1() -> FuzzyFunction:
    """The built-in fuzzy cubic: x^3 times (0,1,2) plus x^2 times (1,2,3)."""
    return build_fuzzy_polynomial(EXAMPLE_4_1_COEFFS, name="example_4_1")


def _x(x):
    """x as the return-risk maps compute with it: a float stays as it is,
    anything else becomes a float array."""
    return x if isinstance(x, float) else np.asarray(x, float)


def _c_poly(x):
    return (C2 * x + C1) * x + C0


def _c_poly_d1(x):
    return 2.0 * C2 * x + C1


def build_max_return_crisp(
    p: MaxReturnParams = DEFAULT_CRISP_PARAMS,
) -> FuzzyFunction:
    """Crisp return-risk objective as a degenerate fuzzy function.

    g(x) = LIN1*x + LIN0 + (rho/Va^2) * (c(x) - Va)^2 with analytic
    first and second derivatives.  Triangular parameters collapse to
    their peaks.
    """
    va = _as_triangular(p.Va).peak
    # where Va * Va underflows to 0, k is inf, as in the fuzzy levels
    k = np.divide(_as_triangular(p.rho).peak, va * va)

    def g(x):
        x = _x(x)
        r = _c_poly(x) - va
        return LIN1 * x + LIN0 + k * r * r

    def g1(x):
        x = _x(x)
        r = _c_poly(x) - va
        return LIN1 + 2.0 * k * r * _c_poly_d1(x)

    def g2(x):
        x = _x(x)
        r = _c_poly(x) - va
        cp = _c_poly_d1(x)
        return 2.0 * k * (cp * cp + r * (2.0 * C2))

    return crisp_lift(g, g1, g2, name="max_return_crisp")


def build_max_return_fuzzy(
    p: MaxReturnParams = DEFAULT_FUZZY_PARAMS,
) -> FuzzyFunction:
    """Fuzzy return-risk objective with interval-composed levels.

    At each alpha the residual interval r = [c(x) - V_U, c(x) - V_L] is
    squared dependently (image of t -> t^2), the weight interval
    k = [rho_L / V_U^2, rho_U / V_L^2] multiplies it, and the linear
    part shifts the product.  Both level endpoints are piecewise smooth
    in x; no analytic derivatives are supplied, so the solver uses
    finite differences on the scalarization.
    """
    va, rho = _as_triangular(p.Va), _as_triangular(p.rho)

    @_per_grid
    def table(a):
        (vl, vu), (rho_l, rho_u) = va.cut(a), rho.cut(a)
        return vl, vu, rho_l / (vu * vu), rho_u / (vl * vl)

    def levels(x, a):
        vl, vu, k_lo, k_hi = table(a)
        x = _x(x)
        c = _c_poly(x)
        ru = c - vl
        line = LIN1 * x + LIN0
        lo = _square_lo(c - vu, ru)
        lo *= k_lo
        lo += line
        # max(rl^2, ru^2) of the residual [rl, ru] = [c - vu, c - vl] is
        # the square of max(-rl, ru), and -rl = vu - c exactly; this needs
        # rl <= ru bit for bit, which holds as TriangularFuzzy.cut rounds
        # monotonically, so that vl <= vu
        hi = np.maximum(vu - c, ru)
        hi *= hi
        hi *= k_hi
        hi += line
        return lo, hi

    return _from_pairs(levels, name="max_return_fuzzy")


@dataclass(frozen=True)
class ResolvedProblem:
    """A ready-to-solve problem: its function and the NewtonConfig to
    solve it with."""

    function: FuzzyFunction
    config: NewtonConfig
    bracket: Optional[tuple[float, float]] = None
    params: Optional[MaxReturnParams] = None

    @property
    def label(self) -> str:
        return self.function.name

    # perfbench's reads: it rebuilds config from these three, and they
    # go once it reads config itself (ROADMAP item 1)
    x0 = property(lambda self: self.config.x0)
    eps = property(lambda self: self.config.eps)
    scal = property(lambda self: self.config.scal)


# Every kind starts Newton from 1.0 at NewtonConfig's step tolerance.
_RECOMMENDED = NewtonConfig(x0=1.0)

# The fuzzy return-risk levels are piecewise smooth: near the minimizer
# the scalarized objective carries a band of extra curvature roughly 1e-3
# wide (the residual midpoint sweeps the alpha grid there).  From the
# default x0 = 1, an undamped Newton step computed from 1e-5 finite
# differences bounces across that band indefinitely, while a 1e-4 step
# converges; hence the larger recommended step for this problem only.
# Neither step converges from every start (x0 = 0.9, 1.2 and 1.25
# two-cycle at 1e-4; ROADMAP item 4).
FUZZY_MAX_RETURN_SCAL = ScalarizationConfig(fd_step=1e-4)

# Each problem kind: its builder from params and coefficients, its
# default params (None for a kind that takes none), its bracket (None
# for a kind that has none) and its recommended NewtonConfig.  Every
# kind but the last is a built-in.
_KINDS = {
    "example_4_1": (
        lambda params, coeffs: build_example_4_1(), None,
        (-0.5, 0.5), _RECOMMENDED,
    ),
    "max_return_crisp": (
        lambda params, coeffs: build_max_return_crisp(params),
        DEFAULT_CRISP_PARAMS, (0.0, 1.5), _RECOMMENDED,
    ),
    "max_return_fuzzy": (
        lambda params, coeffs: build_max_return_fuzzy(params),
        DEFAULT_FUZZY_PARAMS, (0.0, 1.5),
        dataclasses.replace(_RECOMMENDED, scal=FUZZY_MAX_RETURN_SCAL),
    ),
    "fuzzy_polynomial": (
        lambda params, coeffs: build_fuzzy_polynomial(coeffs), None,
        None, _RECOMMENDED,
    ),
}
BUILTIN_NAMES = tuple(_KINDS)[:-1]


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative problem definition matching the JSON config format.

    Every value with a config codec is read as a config's is, whether
    it comes from a config or from Python: lists become tuples, numbers
    floats, and a value of the wrong form is a ConfigFormatError.
    """

    kind: str
    coefficients: Optional[tuple[TriangularFuzzy, ...]] = None
    params: Optional[MaxReturnParams] = None
    domain: Optional[tuple[float, float]] = None
    sense: str = "minimize"
    x0: Optional[float] = None
    eps: Optional[float] = None
    alpha_points: Optional[int] = None

    def __post_init__(self):
        # every key with a codec is read here, from a config or from
        # Python alike, so a spec holds one form of each value
        for key, (read, _) in _CODECS.items():
            if getattr(self, key) is not None:
                object.__setattr__(self, key, read(getattr(self, key)))
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ConfigFormatError(f"unknown problem kind {self.kind!r}")
        if self.kind == "fuzzy_polynomial" and not self.coefficients:
            raise ConfigFormatError(
                "fuzzy_polynomial needs at least one coefficient"
            )
        if self.kind != "fuzzy_polynomial" and self.coefficients is not None:
            raise ConfigFormatError(f"{self.kind} takes no coefficients")
        if self.params is not None and _KINDS[self.kind][1] is None:
            raise ConfigFormatError(f"{self.kind} takes no params")
        if self.sense not in ("minimize", "maximize"):
            raise ConfigFormatError(
                f"sense must be 'minimize' or 'maximize', got {self.sense!r}"
            )


def resolve_problem(spec: ProblemSpec) -> ResolvedProblem:
    """Materialize a ProblemSpec into its function and the NewtonConfig
    to solve it with: the kind's recommended config with the spec's x0,
    eps and alpha_points in place of its own, where the spec gives them.

    The solver minimizes, so a "maximize" sense resolves to the negated
    function.
    """
    build, default, bracket, config = _KINDS[spec.kind]
    params = spec.params or default
    fn = build(params, spec.coefficients)
    if spec.domain is not None:
        fn = dataclasses.replace(fn, domain=spec.domain)
        bracket = spec.domain
    if spec.sense == "maximize":
        fn = negate(fn)
    if spec.alpha_points is not None:
        config = dataclasses.replace(config, scal=dataclasses.replace(
            config.scal, alpha_points=spec.alpha_points))
    return ResolvedProblem(fn, dataclasses.replace(config, **{
        key: getattr(spec, key) for key in ("x0", "eps")
        if getattr(spec, key) is not None
    }), bracket, params)


def _number(v, what: str) -> float:
    """A number from outside as a float: an int or a float, numpy's
    included, not a bool, a string or a container.  Ranges are checked
    where the value is used."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ConfigFormatError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as err:
        raise ConfigFormatError(f"{what} is out of a float's range") from err


def _items(v, what: str, n: Optional[int] = None) -> Sequence:
    """v if it is a list (a JSON array) or a tuple, of n items when n is
    given."""
    if not isinstance(v, (list, tuple)) or n not in (None, len(v)):
        raise ConfigFormatError(f"{what}, got {v!r}")
    return v


def _vertices(what: str, *vertices: float) -> TriangularFuzzy:
    """TriangularFuzzy(*vertices), with what named in its error."""
    try:
        return TriangularFuzzy(*vertices)
    except InvalidLevelError as err:
        raise InvalidLevelError(f"{what}: {err}") from err


def _triangular(v, what: str) -> TriangularFuzzy:
    """A [left, peak, right] list of numbers as a TriangularFuzzy; a
    TriangularFuzzy as it is."""
    if isinstance(v, TriangularFuzzy):
        return v
    triple = _items(v, f"{what} must be a [left, peak, right] triple", 3)
    return _vertices(what, *(_number(e, f"an entry of {what}") for e in triple))


def _param_from_json(v, name: str) -> ParamValue:
    """A crisp parameter is a number, a fuzzy one a triple; either must
    make a valid TriangularFuzzy."""
    if isinstance(v, list):
        return _triangular(v, name)
    v = _number(v, name)
    _vertices(name, v, v, v)
    return v


def _params_from_json(data) -> MaxReturnParams:
    """MaxReturnParams from a {"Va": ..., "rho": ...} object; a
    MaxReturnParams as it is."""
    if isinstance(data, MaxReturnParams):
        return data
    if not isinstance(data, dict) or set(data) != {"Va", "rho"}:
        raise ConfigFormatError(
            "params must be an object with keys 'Va' and 'rho'"
        )
    return MaxReturnParams(
        **{name: _param_from_json(v, name) for name, v in data.items()}
    )


def _params_to_json(p: MaxReturnParams) -> dict:
    return {name: triangular_to_record(v) if isinstance(v, TriangularFuzzy)
            else v for name, v in vars(p).items()}


# The reader and the writer of each config key whose JSON value is not
# the ProblemSpec field as it is, or that must be a number.
# ProblemSpec.__post_init__ runs each reader, in this order, on a value
# from a config or from Python; a reader takes its own output as it is.
# Every other key is passed as given, for ProblemSpec, resolve_problem or
# ScalarizationConfig to check.
_AS_IS = (lambda v: v, lambda v: v)
_CODECS = {
    "coefficients": (
        lambda v: tuple(_triangular(c, "a coefficient") for c in _items(
            v, "coefficients must be a list of [left, peak, right] triples"
        )),
        lambda cs: [triangular_to_record(c) for c in cs],
    ),
    "params": (_params_from_json, _params_to_json),
    "domain": (
        lambda v: tuple(_number(b, "a domain bound") for b in
                        _items(v, "domain must be a [lo, hi] pair", 2)),
        list,
    ),
    "x0": (lambda v: _number(v, "x0"), _AS_IS[1]),
    "eps": (lambda v: _number(v, "eps"), _AS_IS[1]),
}


def parse_problem_config(text: str) -> ProblemSpec:
    """Parse the JSON problem-config format into a ProblemSpec.

    A key whose value is null is taken as absent.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigFormatError(f"config is not valid JSON: {err}") from err
    if not isinstance(data, dict) or data.get("kind") is None:
        raise ConfigFormatError("config must be an object with a 'kind' key")
    unknown = set(data) - {f.name for f in dataclasses.fields(ProblemSpec)}
    if unknown:
        raise ConfigFormatError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    return ProblemSpec(**{
        key: value for key, value in data.items() if value is not None
    })


def serialize_problem_config(spec: ProblemSpec) -> str:
    """Emit the JSON form; parse(serialize(spec)) reproduces spec exactly."""
    data = {
        f.name: _CODECS.get(f.name, _AS_IS)[1](getattr(spec, f.name))
        for f in dataclasses.fields(ProblemSpec)
        if getattr(spec, f.name) is not None
    }
    return json.dumps(data, indent=2, sort_keys=True)


def grid_search_min(
    f: FuzzyFunction,
    bracket: tuple[float, float],
    cfg: ScalarizationConfig,
    step: float = 1e-5,
) -> float:
    """Brute-force minimizer of the scalarized F over a bracket.

    Evaluates F with one scalarize_many call, which bounds memory by
    taking 80.5 KiB of levels at a time, on the grid a, a + step, ...
    that ends at b, and returns the first grid point with the smallest
    value.
    This is the independent oracle the Newton answers are checked
    against.  A non-finite F raises NumericError; a bracket that is not
    finite or is reversed, a step that is not positive and finite, or a
    point count that overflows raises ValueError.
    """
    a, b = bracket
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bracket {bracket} must be finite")
    if not a <= b:
        raise ValueError(f"bracket {bracket} is reversed")
    _require_positive("step", step)
    count = (b - a) / step
    if not math.isfinite(count):
        raise ValueError(
            f"bracket {bracket} at step {step} has too many points"
        )
    # the points a + step * i short of b, clipped as rounding can pass b
    xs = np.append(np.minimum(a + step * np.arange(math.ceil(count)), b), b)
    return float(xs[np.argmin(scalarize_many(f, xs, cfg))])
