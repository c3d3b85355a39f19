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

What a builder derives from alpha alone, the coefficient cuts or the
return-risk bounds with their weights rho_L/V_U^2 and rho_U/V_L^2, is
tabled by ``_per_grid`` once per shared alpha grid; the level maps do
only the x-side work on each call.

The return-risk maps do that work on a float x as a Python float (see
``_x``): they only add and multiply x, which round alike in Python and
in numpy, and a 0-d array costs about 1 us per operation.  The
polynomial maps take every x as an array: Python's ``x**2`` calls
``pow``, which can differ from numpy's square in the last bit, and
raises OverflowError where numpy returns inf.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigFormatError, InvalidLevelError, SingularLevelError
from .fuzzy_core import TriangularFuzzy, _is_grid, _square_lo, triangular_to_record
from .level_calculus import (
    FuzzyFunction, ScalarizationConfig, _require_positive, crisp_lift, negate,
    scalarize_many,
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


def _per_grid(table):
    """a -> table(a), the data a builder derives from an alpha array alone,
    kept for the last shared alpha grid seen (matched by identity); an
    alpha array of the caller's own gets a fresh table on every call."""
    last = (None, None)

    def at(a):
        nonlocal last
        grid, kept = last
        if a is grid:
            return kept
        kept = table(np.asarray(a, float))
        if _is_grid(a):
            last = a, kept
        return kept

    return at


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
    cuts = _per_grid(lambda a: [c.cut(a) for c in coeffs])

    def level_map(order: int, lower: bool):
        """The lower or upper endpoint of the n-th x-derivative, n = order:
        d^n/dx^n x^i = i!/(i-n)! * x^(i-n), so only terms i >= n count."""

        def level(x, a):
            x = np.asarray(x, float)
            out = np.zeros(np.broadcast(x, a).shape)
            for i, (cl, cu) in enumerate(cuts(a)[order:], order):
                if not lower:
                    cl, cu = cu, cl
                xi = x**i
                xp = xi if order == 0 else x**(i - order)
                factor = math.perm(i, order)
                # in place: one new array per term, not two
                term = np.where(xi >= 0.0, cl, cu)
                term *= factor * xp
                out += term
            return out

        return level

    return FuzzyFunction(
        **{f"{prefix}_{side}": level_map(order, side == "lo")
           for order, prefix in enumerate(("level", "d1", "d2"))
           for side in ("lo", "hi")},
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

    def level_lo(x, a):
        vl, vu, k_lo, _ = table(a)
        x = _x(x)
        c = _c_poly(x)
        return LIN1 * x + LIN0 + k_lo * _square_lo(c - vu, c - vl)

    def level_hi(x, a):
        vl, vu, _, k_hi = table(a)
        x = _x(x)
        c = _c_poly(x)
        # max(rl^2, ru^2) of the residual [rl, ru] = [c - vu, c - vl] is
        # the square of max(-rl, ru), and -rl = vu - c exactly; this needs
        # rl <= ru bit for bit, which holds as TriangularFuzzy.cut rounds
        # monotonically, so that vl <= vu
        r = np.maximum(vu - c, c - vl)
        return LIN1 * x + LIN0 + k_hi * (r * r)

    return FuzzyFunction(
        level_lo=level_lo,
        level_hi=level_hi,
        name="max_return_fuzzy",
    )


@dataclass(frozen=True)
class ResolvedProblem:
    """A ready-to-solve problem: function plus recommended settings."""

    function: FuzzyFunction
    x0: float = 1.0
    eps: float = NewtonConfig.eps
    scal: ScalarizationConfig = ScalarizationConfig()
    bracket: Optional[tuple[float, float]] = None
    params: Optional[MaxReturnParams] = None

    @property
    def label(self) -> str:
        return self.function.name


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
# default params (None for a kind that takes none), its recommended
# settings and its bracket (None for a kind that has none).  Every kind
# but the last is a built-in.
_KINDS = {
    "example_4_1": (
        lambda params, coeffs: build_example_4_1(), None,
        ScalarizationConfig(), (-0.5, 0.5),
    ),
    "max_return_crisp": (
        lambda params, coeffs: build_max_return_crisp(params),
        DEFAULT_CRISP_PARAMS, ScalarizationConfig(), (0.0, 1.5),
    ),
    "max_return_fuzzy": (
        lambda params, coeffs: build_max_return_fuzzy(params),
        DEFAULT_FUZZY_PARAMS, FUZZY_MAX_RETURN_SCAL, (0.0, 1.5),
    ),
    "fuzzy_polynomial": (
        lambda params, coeffs: build_fuzzy_polynomial(coeffs), None,
        ScalarizationConfig(), None,
    ),
}
BUILTIN_NAMES = tuple(_KINDS)[:-1]


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative problem definition matching the JSON config format."""

    kind: str
    coefficients: Optional[tuple[TriangularFuzzy, ...]] = None
    params: Optional[MaxReturnParams] = None
    domain: Optional[tuple[float, float]] = None
    sense: str = "minimize"
    x0: Optional[float] = None
    eps: Optional[float] = None
    alpha_points: Optional[int] = None

    def __post_init__(self):
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
    """Materialize a ProblemSpec into a function plus solver settings.

    The solver minimizes, so a "maximize" sense resolves to the negated
    function.
    """
    build, default, scal, bracket = _KINDS[spec.kind]
    params = spec.params or default
    fn = build(params, spec.coefficients)
    if spec.domain is not None:
        fn = dataclasses.replace(fn, domain=spec.domain)
        bracket = spec.domain
    if spec.sense == "maximize":
        fn = negate(fn)
    if spec.alpha_points is not None:
        scal = dataclasses.replace(scal, alpha_points=spec.alpha_points)
    return ResolvedProblem(
        function=fn, scal=scal, bracket=bracket, params=params,
        **{key: float(getattr(spec, key)) for key in ("x0", "eps")
           if getattr(spec, key) is not None},
    )


def _number(v, what: str) -> float:
    """A number from outside as a float: a JSON int or float, not a bool,
    a string or a container.  Ranges are checked where the value is used."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigFormatError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as err:
        raise ConfigFormatError(f"{what} is out of a float's range") from err


def _items(v, what: str, n: Optional[int] = None) -> list:
    """v if it is a JSON list, of n items when n is given."""
    if not isinstance(v, list) or n not in (None, len(v)):
        raise ConfigFormatError(f"{what}, got {v!r}")
    return v


def _vertices(what: str, *vertices: float) -> TriangularFuzzy:
    """TriangularFuzzy(*vertices), with what named in its error."""
    try:
        return TriangularFuzzy(*vertices)
    except InvalidLevelError as err:
        raise InvalidLevelError(f"{what}: {err}") from err


def _triangular(v, what: str) -> TriangularFuzzy:
    """A [left, peak, right] list of numbers as a TriangularFuzzy."""
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
    """MaxReturnParams from a {"Va": ..., "rho": ...} object."""
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
# the ProblemSpec field as it is; every other key is passed as given,
# for ProblemSpec, resolve_problem or ScalarizationConfig to check.
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
    **{key: (lambda v, key=key: _number(v, key), lambda v: v)
       for key in ("x0", "eps")},
}
_AS_IS = (lambda v: v, lambda v: v)


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
        key: _CODECS.get(key, _AS_IS)[0](value)
        for key, value in data.items() if value is not None
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
