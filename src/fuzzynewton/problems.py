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
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigFormatError, SingularLevelError
from .fuzzy_core import TriangularFuzzy, _square_lo, triangular_from_record, triangular_to_record
from .level_calculus import FuzzyFunction, ScalarizationConfig, crisp_lift, negate, scalarize_many

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

Scalar = Union[int, float]
ParamValue = Union[Scalar, TriangularFuzzy]


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
        return isinstance(self.Va, TriangularFuzzy) or isinstance(
            self.rho, TriangularFuzzy
        )


DEFAULT_FUZZY_PARAMS = MaxReturnParams(
    Va=TriangularFuzzy(0.00167, 0.00168, 0.00172),
    rho=TriangularFuzzy(0.5, 1.5, 3.5),
)
DEFAULT_CRISP_PARAMS = MaxReturnParams(Va=0.00168, rho=1.0)


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

    def level_map(order: int, lower: bool):
        """The lower or upper endpoint of the n-th x-derivative, n = order:
        d^n/dx^n x^i = i!/(i-n)! * x^(i-n), and 0 for n > i."""
        terms = [(c, i, math.perm(i, order), max(i - order, 0))
                 for i, c in enumerate(coeffs)]

        def level(x, a):
            x = np.asarray(x, float)
            a = np.asarray(a, float)
            out = np.zeros(np.broadcast(x, a).shape)
            for c, i, factor, power in terms:
                cl, cu = c.cut(a)
                if not lower:
                    cl, cu = cu, cl
                out = out + np.where(x**i >= 0.0, cl, cu) * (factor * x**power)
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
    k = _as_triangular(p.rho).peak / (va * va)

    def g(x):
        x = np.asarray(x, float)
        r = _c_poly(x) - va
        return LIN1 * x + LIN0 + k * r * r

    def g1(x):
        x = np.asarray(x, float)
        r = _c_poly(x) - va
        return LIN1 + 2.0 * k * r * _c_poly_d1(x)

    def g2(x):
        x = np.asarray(x, float)
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
    va = _as_triangular(p.Va)
    rho = _as_triangular(p.rho)

    def _pieces(x, a):
        x = np.asarray(x, float)
        a = np.asarray(a, float)
        vl, vu = va.cut(a)
        rl_w, ru_w = rho.cut(a)
        c = _c_poly(x)
        rl = c - vu
        ru = c - vl
        return x, vl, vu, rl_w, ru_w, rl, ru

    def level_lo(x, a):
        x, vl, vu, rl_w, _, rl, ru = _pieces(x, a)
        s_lo = _square_lo(rl, ru)
        k_lo = rl_w / (vu * vu)
        return LIN1 * x + LIN0 + k_lo * s_lo

    def level_hi(x, a):
        x, vl, _, _, ru_w, rl, ru = _pieces(x, a)
        s_hi = np.maximum(rl * rl, ru * ru)
        k_hi = ru_w / (vl * vl)
        return LIN1 * x + LIN0 + k_hi * s_hi

    return FuzzyFunction(
        level_lo=level_lo,
        level_hi=level_hi,
        name="max_return_fuzzy",
    )


@dataclass(frozen=True)
class ResolvedProblem:
    """A ready-to-solve problem: function plus recommended settings."""

    label: str
    function: FuzzyFunction
    x0: float = 1.0
    eps: float = 1e-5
    scal: ScalarizationConfig = ScalarizationConfig()
    bracket: Optional[tuple[float, float]] = None
    params: Optional[MaxReturnParams] = None


# The fuzzy return-risk levels are piecewise smooth: near the minimizer
# the scalarized objective carries a band of extra curvature roughly 1e-3
# wide (the residual midpoint sweeps the alpha grid there).  An undamped
# Newton step computed from 1e-5 finite differences bounces across that
# band indefinitely, while a 1e-4 step averages over it and the iteration
# contracts; hence the larger recommended step for this problem only.
FUZZY_MAX_RETURN_SCAL = ScalarizationConfig(fd_step=1e-4)

BUILTIN_NAMES = ("example_4_1", "max_return_crisp", "max_return_fuzzy")

# Points per scalarize_many call in grid_search_min: 20000 x 101 levels
# is 16 MB per float64 array.
_GRID_CHUNK = 20000


def _resolve_builtin(
    name: str, params: Optional[MaxReturnParams]
) -> ResolvedProblem:
    if name == "example_4_1":
        return ResolvedProblem(
            label=name, function=build_example_4_1(), bracket=(-0.5, 0.5)
        )
    if name == "max_return_crisp":
        p = params or DEFAULT_CRISP_PARAMS
        return ResolvedProblem(
            label=name,
            function=build_max_return_crisp(p),
            bracket=(0.0, 1.5),
            params=p,
        )
    # max_return_fuzzy, the one kind left that ProblemSpec admits
    p = params or DEFAULT_FUZZY_PARAMS
    return ResolvedProblem(
        label=name,
        function=build_max_return_fuzzy(p),
        scal=FUZZY_MAX_RETURN_SCAL,
        bracket=(0.0, 1.5),
        params=p,
    )


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
        if self.kind not in BUILTIN_NAMES + ("fuzzy_polynomial",):
            raise ConfigFormatError(f"unknown problem kind {self.kind!r}")
        if self.kind == "fuzzy_polynomial" and not self.coefficients:
            raise ConfigFormatError(
                "fuzzy_polynomial needs at least one coefficient"
            )
        if self.kind != "fuzzy_polynomial" and self.coefficients is not None:
            raise ConfigFormatError(f"{self.kind} takes no coefficients")
        if self.params is not None and not self.kind.startswith("max_return"):
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
    if spec.kind == "fuzzy_polynomial":
        fn = build_fuzzy_polynomial(spec.coefficients)
        base = ResolvedProblem(label=fn.name, function=fn)
    else:
        base = _resolve_builtin(spec.kind, spec.params)
    if spec.domain is not None:
        fn = dataclasses.replace(base.function, domain=spec.domain)
        base = dataclasses.replace(base, function=fn, bracket=spec.domain)
    if spec.sense == "maximize":
        fn = negate(base.function)
        base = dataclasses.replace(base, label=fn.name, function=fn)
    scal = base.scal
    if spec.alpha_points is not None:
        scal = dataclasses.replace(scal, alpha_points=spec.alpha_points)
    return dataclasses.replace(
        base,
        x0=base.x0 if spec.x0 is None else float(spec.x0),
        eps=base.eps if spec.eps is None else float(spec.eps),
        scal=scal,
    )


# The optional numeric config keys and their types.
_OPTIONAL_NUMBERS = (("x0", float), ("eps", float), ("alpha_points", int))


def _param_from_json(v) -> ParamValue:
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, (list, tuple)) and len(v) == 3:
        return triangular_from_record(v)
    raise ConfigFormatError(
        f"parameter must be a number or a [left, peak, right] triple, "
        f"got {v!r}"
    )


def _param_to_json(v: ParamValue):
    if isinstance(v, TriangularFuzzy):
        return triangular_to_record(v)
    return v


def _params_from_json(data) -> MaxReturnParams:
    """MaxReturnParams from a {"Va": ..., "rho": ...} object."""
    if not isinstance(data, dict) or set(data) - {"Va", "rho"}:
        raise ConfigFormatError(
            "params must be an object with keys 'Va' and 'rho'"
        )
    return MaxReturnParams(
        Va=_param_from_json(data.get("Va")),
        rho=_param_from_json(data.get("rho")),
    )


def _params_to_json(p: MaxReturnParams) -> dict:
    return {"Va": _param_to_json(p.Va), "rho": _param_to_json(p.rho)}


def parse_problem_config(text: str) -> ProblemSpec:
    """Parse the JSON problem-config format into a ProblemSpec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigFormatError(f"config is not valid JSON: {err}") from err
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigFormatError("config must be an object with a 'kind' key")
    unknown = set(data) - {f.name for f in dataclasses.fields(ProblemSpec)}
    if unknown:
        raise ConfigFormatError(
            f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    coefficients = None
    if data.get("coefficients") is not None:
        try:
            coefficients = tuple(
                triangular_from_record(c) for c in data["coefficients"]
            )
        except (TypeError, ValueError) as err:
            raise ConfigFormatError(
                f"coefficients must be [left, peak, right] triples: {err}"
            ) from err
    params = data.get("params")
    domain = None
    if data.get("domain") is not None:
        d = data["domain"]
        if not (isinstance(d, (list, tuple)) and len(d) == 2):
            raise ConfigFormatError("domain must be a [lo, hi] pair")
        domain = (float(d[0]), float(d[1]))
    return ProblemSpec(
        kind=data["kind"],
        coefficients=coefficients,
        params=None if params is None else _params_from_json(params),
        domain=domain,
        sense=data.get("sense", "minimize"),
        **{key: cast(data[key]) for key, cast in _OPTIONAL_NUMBERS
           if data.get(key) is not None},
    )


def serialize_problem_config(spec: ProblemSpec) -> str:
    """Emit the JSON form; parse(serialize(spec)) reproduces spec exactly."""
    data: dict = {"kind": spec.kind, "sense": spec.sense}
    if spec.coefficients is not None:
        data["coefficients"] = [
            triangular_to_record(c) for c in spec.coefficients
        ]
    if spec.params is not None:
        data["params"] = _params_to_json(spec.params)
    if spec.domain is not None:
        data["domain"] = list(spec.domain)
    for key, _ in _OPTIONAL_NUMBERS:
        value = getattr(spec, key)
        if value is not None:
            data[key] = value
    return json.dumps(data, indent=2, sort_keys=True)


def grid_search_min(
    f: FuzzyFunction,
    bracket: tuple[float, float],
    cfg: ScalarizationConfig,
    step: float = 1e-5,
) -> float:
    """Brute-force minimizer of the scalarized F over a bracket.

    Evaluates F on a uniform grid of the given step, _GRID_CHUNK points
    at a time to bound memory, and returns the grid point with the
    smallest value.  This is the independent oracle the Newton answers
    are checked against; a non-finite F raises NumericError.
    """
    a, b = bracket
    n = int(round((b - a) / step)) + 1
    best_x, best_v = a, math.inf
    for start in range(0, n, _GRID_CHUNK):
        stop = min(start + _GRID_CHUNK, n)
        xs = a + step * np.arange(start, stop)
        vals = scalarize_many(f, xs, cfg)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v = float(vals[i])
            best_x = float(xs[i])
    return best_x
