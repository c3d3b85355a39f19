"""Command-line front end: solve, table, and check subcommands.

``solve`` runs the Newton iteration on one problem and prints the full
iteration trace plus a summary; ``table`` sweeps a list of (Va, rho)
instances and prints one row per instance; ``check`` audits an arbitrary
point for stationarity and non-dominance.

One function applies every flag a command has to its problem: the
parameter flags over the problem's params, then one resolve, then the
scalarization and iteration flags over the problem's own settings.

A point's verification has one wording, ``VerificationReport.lines()``,
which ends with the verdict: ``check`` prints it, and a converged
``solve`` prints it under ``verification:`` in text and writes its
fields, the verdict included, in csv and json.

Exit codes: 0 success/converged, 1 usage or input errors (one ``error:``
line on stderr, an out-of-memory one included), 2 a solve ended in a
non-convergence status, 3 a check failed or was inconclusive (no
neighbourhood sample in the domain).  Reports go to stdout (or --out);
all formats carry the same numeric content, with text rounded to 6
significant digits and csv/json at full precision.  numpy's
floating-point warnings are off while a command runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
import time
from typing import Optional

import numpy as np

from .defuzzify import centroid
from .errors import FuzzyNewtonError, InsufficientDataError, MalformedFunctionError, NumericError
from .level_calculus import _Point
from .newton_solver import (
    STATUS_CONVERGED,
    STATUS_NON_FINITE,
    NewtonConfig,
    SolveResult,
    VerificationReport,
    check_point,
    estimate_convergence_order,
    solve,
    verify_solution,
)
from .problems import (
    _KINDS,
    BUILTIN_NAMES,
    MaxReturnParams,
    ProblemSpec,
    ResolvedProblem,
    _param_from_json,
    _params_from_json,
    _params_to_json,
    parse_problem_config,
    resolve_problem,
)

__all__ = ["main", "entrypoint"]

TRACE_COLUMNS = ("k", "x_k", "x_next", "f_lo0", "f_lo1", "f_hi1", "f_hi0")
# The solver settings the reports echo, and the outcome keys of a solve
# report in the order the csv report lists them.
CONFIG_KEYS = ("x0", "eps", "max_iter", "alpha_points", "quadrature", "fd_step")
# The keys read from the answer's fuzzy value, null where a non-finite
# solve ended at a point whose levels cannot be evaluated.
ANSWER_KEYS = (
    "F_xstar",
    "value",
    "fvalue_support_lo",
    "fvalue_core_mid",
    "fvalue_support_hi",
)
SUMMARY_KEYS = (
    "status",
    "stationarity_kind",
    "iterations",
    "xstar",
    *ANSWER_KEYS,
    "convergence_order",
    "wall_time_s",
)
TABLE_COLUMNS = ("Va", "rho", "xstar", "value", "status", "iterations")


class _NegativeNumber:
    """argparse's test of whether an argument is a negative number, and so
    a flag's value, not an option: one that _param_flag reads, a float in
    any form that float() takes or a comma list of them.  argparse's own
    test takes only -5, -.5 and -0.5, so "--x0 -1e-3", "--xstar -inf",
    "--x0 -1_000" or "--rho -1,2,3" would read the value as an unknown
    option."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            _param_flag(text)
        except argparse.ArgumentTypeError:
            return False
        return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every subparser is a _Parser too
        self._negative_number_matcher = _NegativeNumber

    # argparse exits with code 2 on bad flags; route that into exit 1.
    def error(self, message):
        raise ValueError(message)


def _fmt6(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _param_flag(text: str):
    """A parameter flag, a number or 'left,peak,right', as the JSON value
    that the reader of a config's params takes."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or left,peak,right, got {text!r}"
        ) from None
    return values if len(values) > 1 else values[0]


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--alpha-grid", type=int, default=None)
    p.add_argument("--quadrature", choices=("trapezoid", "simpson"),
                   default=None)
    p.add_argument("--fd-step", type=float, default=None)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    p.add_argument("--out", default=None)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process: a parse leaves no state on it,
    and its usage and help read the streams when they are printed."""
    parser = _Parser(prog="fuzzynewton", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser("solve", help="run the Newton iteration")
    p_solve.add_argument("--problem", required=True,
                         help="builtin name or path to a JSON config file")
    p_solve.add_argument("--Va", type=_param_flag, default=None)
    p_solve.add_argument("--rho", type=_param_flag, default=None)
    _add_solver_flags(p_solve)
    _add_output_flags(p_solve)

    p_table = sub.add_parser("table", help="solve a sweep of instances")
    p_table.add_argument("--sweep", required=True,
                         help="JSON file: list of {Va, rho} rows")
    _add_solver_flags(p_table)
    _add_output_flags(p_table)

    p_check = sub.add_parser("check", help="audit a point")
    p_check.add_argument("--problem", required=True)
    p_check.add_argument("--xstar", type=float, required=True)
    p_check.add_argument("--nbhd", type=float, default=None)
    p_check.add_argument("--samples", type=int, default=None)
    return parser


def _read_spec(problem_arg: str) -> ProblemSpec:
    """The spec that --problem names, a built-in or a config file."""
    if problem_arg in BUILTIN_NAMES:
        return ProblemSpec(kind=problem_arg)
    try:
        with open(problem_arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ValueError(
            f"unknown problem {problem_arg!r} (not a builtin "
            f"{'/'.join(BUILTIN_NAMES)} and not a readable config file: "
            f"{err})"
        ) from err
    return parse_problem_config(text)


def _given(**values) -> dict:
    """The keyword arguments whose value is not None."""
    return {key: value for key, value in values.items() if value is not None}


def _problem(spec: ProblemSpec, args) -> tuple[ResolvedProblem, NewtonConfig]:
    """spec resolved under the flags of args, and its NewtonConfig.  A
    flag the command lacks reads as not given.

    --Va and --rho go over the spec's params, or its kind's defaults.
    --alpha-grid wins over the spec's alpha_points and is set with
    --quadrature and --fd-step in one step, so the grid is checked only
    against the rule it is used with.  --x0, --eps and --max-iter go over
    the problem's own values."""
    flag = vars(args).get
    given = _given(Va=flag("Va"), rho=flag("rho"))
    if given:
        params = spec.params or _KINDS[spec.kind][1]
        if params is None:
            raise ValueError(
                "--Va/--rho only apply to the max-return problems"
            )
        spec = dataclasses.replace(spec, params=dataclasses.replace(params, **{
            name: _param_from_json(value, f"--{name}")
            for name, value in given.items()
        }))
    resolved = resolve_problem(dataclasses.replace(spec, alpha_points=None))
    grid = flag("alpha_grid")
    scal = dataclasses.replace(resolved.scal, **_given(
        alpha_points=spec.alpha_points if grid is None else grid,
        quadrature=flag("quadrature"), fd_step=flag("fd_step"),
    ))
    return dataclasses.replace(resolved, scal=scal), NewtonConfig(**{
        "x0": resolved.x0, "eps": resolved.eps, "scal": scal,
        **_given(x0=flag("x0"), eps=flag("eps"), max_iter=flag("max_iter")),
    })


def _trace_rows(result: SolveResult) -> list[dict]:
    rows = []
    for rec in result.trace:
        lo, hi = rec.fuzzy_value.lo, rec.fuzzy_value.hi
        values = (rec.x_k, rec.x_k + rec.step, lo[0], lo[-1], hi[-1], hi[0])
        rows.append(dict(zip(TRACE_COLUMNS, (rec.k, *map(float, values)))))
    return rows


def _verification_dict(rep: VerificationReport) -> dict:
    return {
        "d1": float(rep.d1),
        "d2": float(rep.d2),
        "stat_tol": float(rep.stat_tol),
        "stationary": rep.stationary,
        "level_d1_max": float(rep.level_d1_max),
        "non_dominance": rep.non_dominance.describe(),
        "comparability_plus": rep.comp_plus.describe(),
        "comparability_minus": rep.comp_minus.describe(),
        "verdict": rep.verdict,
    }


def _solve_summary(
    resolved: ResolvedProblem, cfg: NewtonConfig
) -> tuple[SolveResult, dict]:
    """Solve; return the result and a summary with the answer's fuzzy
    value, its centroid and F, from one evaluation of the answer."""
    t0 = time.perf_counter()
    result = solve(resolved.function, cfg)
    wall = time.perf_counter() - t0
    point = _Point(resolved.function, result.xstar, cfg.scal)
    try:
        fval = point.fuzzy_value()
        answer = map(float, (
            point.value(),
            centroid(fval),
            fval.lo[0],
            0.5 * (fval.lo[-1] + fval.hi[-1]),
            fval.hi[0],
        ))
    except (NumericError, MalformedFunctionError):
        if result.status != STATUS_NON_FINITE:
            raise
        answer = [None] * len(ANSWER_KEYS)
    return result, {
        "status": result.status,
        "stationarity_kind": result.stationarity_kind,
        "iterations": result.iterations,
        "xstar": float(result.xstar),
        **dict(zip(ANSWER_KEYS, answer)),
        "wall_time_s": wall,
    }


def _solve_report(resolved: ResolvedProblem, cfg: NewtonConfig) -> dict:
    """The solve summary plus the convergence order, the trace, the
    settings and, for a converged solve, the VerificationReport."""
    result, summary = _solve_summary(resolved, cfg)
    f = resolved.function
    verification = None
    if result.status == STATUS_CONVERGED:
        verification = verify_solution(f, result, cfg)
    try:
        order = float(
            estimate_convergence_order(result.trace, result.xstar).order
        )
    except InsufficientDataError:
        order = None
    # the NewtonConfig fields, with the scalarization's in place of scal
    params = resolved.params
    config = {
        **vars(cfg), **vars(cfg.scal),
        "params": None if params is None else _params_to_json(params),
    }
    del config["scal"]
    return {
        **summary,
        "problem": resolved.label,
        "config": config,
        "convergence_order": order,
        "trace": _trace_rows(result),
        "verification": verification,
    }


def _text_row(cells, width: int) -> str:
    """One line of a fixed-width text table."""
    return "".join(c.rjust(width) for c in cells).lstrip() + "\n"


def _render_json(payload: dict) -> str:
    # a solve report's VerificationReport is written as its fields
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=_verification_dict) + "\n"


def _render_solve_text(rep: dict) -> str:
    out = io.StringIO()
    cfg = rep["config"]
    out.write(f"problem: {rep['problem']}\n")
    out.write(
        "config: "
        + " ".join(f"{key}={_fmt6(cfg[key])}" for key in CONFIG_KEYS)
        + "\n"
    )
    if cfg["params"] is not None:
        out.write(
            f"params: Va={cfg['params']['Va']} rho={cfg['params']['rho']}\n"
        )
    out.write(_text_row(TRACE_COLUMNS, 13))
    for row in rep["trace"]:
        out.write(_text_row([_fmt6(row[c]) for c in TRACE_COLUMNS], 13))
    out.write(
        f"status: {rep['status']} ({rep['stationarity_kind']}) "
        f"in {rep['iterations']} iterations\n"
    )
    out.write(f"xstar     = {_fmt6(rep['xstar'])}\n")
    out.write(f"F(xstar)  = {_fmt6(rep['F_xstar'])}\n")
    out.write(
        f"value     = {_fmt6(rep['value'])} (defuzzified); fuzzy value "
        f"({_fmt6(rep['fvalue_support_lo'])}, "
        f"{_fmt6(rep['fvalue_core_mid'])}, "
        f"{_fmt6(rep['fvalue_support_hi'])})\n"
    )
    if rep["convergence_order"] is not None:
        out.write(
            f"estimated convergence order = {_fmt6(rep['convergence_order'])}\n"
        )
    if rep["verification"] is not None:
        out.write("verification:\n")
        out.writelines(f"  {line}\n" for line in rep["verification"].lines())
    out.write(f"wall_time_s: {rep['wall_time_s']:.6g}\n")
    return out.getvalue()


def _render_solve_csv(rep: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    # csv writes a float as its repr and None as an empty cell
    cfg = rep["config"]
    params = cfg["params"] or {}
    writer.writerow(["problem", rep["problem"]])
    writer.writerows([key, cfg[key]] for key in CONFIG_KEYS)
    writer.writerows(
        [f"params_{name}", json.dumps(params[name]) if params else ""]
        for name in ("Va", "rho")
    )
    writer.writerows([key, rep[key]] for key in SUMMARY_KEYS)
    if rep["verification"] is not None:
        writer.writerows(
            [f"verification_{key}", value] for key, value
            in _verification_dict(rep["verification"]).items()
        )
    writer.writerow([])
    writer.writerow(TRACE_COLUMNS)
    writer.writerows([row[c] for c in TRACE_COLUMNS] for row in rep["trace"])
    return out.getvalue()


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_solve(args) -> int:
    rep = _solve_report(*_problem(_read_spec(args.problem), args))
    if args.format == "json":
        text = _render_json(rep)
    elif args.format == "csv":
        text = _render_solve_csv(rep)
    else:
        text = _render_solve_text(rep)
    _emit(text, args.out)
    return 0 if rep["status"] == STATUS_CONVERGED else 2


def _sweep_rows(path: str) -> list[MaxReturnParams]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read sweep file: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"sweep file is not valid JSON: {err}") from err
    if not isinstance(data, list):
        raise ValueError("sweep file must hold a JSON list of rows")
    rows = []
    for i, item in enumerate(data):
        try:
            rows.append(_params_from_json(item))
        except (FuzzyNewtonError, ValueError) as err:
            raise ValueError(f"sweep row {i} is malformed: {err}") from err
    return rows


def _cmd_table(args) -> int:
    rows = _sweep_rows(args.sweep)
    results = []
    for params in rows:
        kind = (
            "max_return_fuzzy" if params.is_fuzzy else "max_return_crisp"
        )
        _, summary = _solve_summary(
            *_problem(ProblemSpec(kind=kind, params=params), args)
        )
        results.append(
            {
                **_params_to_json(params),
                **{key: summary[key] for key in TABLE_COLUMNS[2:]},
            }
        )
    if args.format == "json":
        text = _render_json({"rows": results})
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(
            [json.dumps(row["Va"]), json.dumps(row["rho"])]
            + [row[key] for key in TABLE_COLUMNS[2:]]
            for row in results
        )
        text = out.getvalue()
    else:
        text = _text_row(TABLE_COLUMNS, 22) + "".join(
            _text_row([str(row["Va"]), str(row["rho"])]
                      + [_fmt6(row[key]) for key in TABLE_COLUMNS[2:]], 22)
            for row in results
        )
    _emit(text, args.out)
    return 0


def _cmd_check(args) -> int:
    resolved, cfg = _problem(_read_spec(args.problem), args)
    report = check_point(resolved.function, args.xstar, cfg,
                         **_given(nbhd=args.nbhd, samples=args.samples))
    sys.stdout.writelines(f"{line}\n" for line in report.lines())
    return 0 if report.ok else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("a subcommand is required\n")
            return 1
        # every non-finite value is reported as an error, a status or a
        # null answer, so numpy's warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            if args.command == "solve":
                return _cmd_solve(args)
            if args.command == "table":
                return _cmd_table(args)
            return _cmd_check(args)
    except (FuzzyNewtonError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except MemoryError as err:
        sys.stderr.write(f"error: out of memory: {err}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
