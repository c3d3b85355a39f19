"""Command-line front end: solve, table, and check subcommands.

``solve`` runs the Newton iteration on one problem and prints the full
iteration trace plus a summary; ``table`` sweeps a list of (Va, rho)
instances and prints one row per instance; ``check`` audits an arbitrary
point for stationarity and non-dominance.

Exit codes: 0 success/converged, 1 usage or input errors, 2 a solve
ended in a non-convergence status, 3 a check failed or was inconclusive
(no neighbourhood sample in the domain).  Reports go to
stdout (or --out); all formats carry the same numeric content, with text
rounded to 6 significant digits and csv/json at full precision.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from typing import Optional

from .defuzzify import centroid
from .errors import FuzzyNewtonError, InsufficientDataError
from .fuzzy_core import triangular_from_record
from .level_calculus import eval_fuzzy, scalarize
from .newton_solver import (
    STATUS_CONVERGED,
    NewtonConfig,
    SolveResult,
    VerificationReport,
    check_point,
    estimate_convergence_order,
    solve,
    verify_solution,
)
from .problems import (
    BUILTIN_NAMES,
    MaxReturnParams,
    ProblemSpec,
    ResolvedProblem,
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
SUMMARY_KEYS = (
    "status",
    "stationarity_kind",
    "iterations",
    "xstar",
    "F_xstar",
    "value",
    "fvalue_support_lo",
    "fvalue_core_mid",
    "fvalue_support_hi",
    "convergence_order",
    "wall_time_s",
)
TABLE_COLUMNS = ("Va", "rho", "xstar", "value", "status", "iterations")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route that into exit 1.
    def error(self, message):
        raise _UsageError(message)


def _fmt6(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _param_flag(text: str):
    """Parse a parameter flag: plain number or 'left,peak,right'."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) == 3:
        return triangular_from_record(parts)
    raise _UsageError(
        f"parameter must be a number or 'left,peak,right', got {text!r}"
    )


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


def _build_parser() -> _Parser:
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


def _load_resolved(problem_arg: str, va, rho) -> ResolvedProblem:
    if problem_arg in BUILTIN_NAMES:
        spec = ProblemSpec(kind=problem_arg)
    else:
        try:
            with open(problem_arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise _UsageError(
                f"unknown problem {problem_arg!r} (not a builtin "
                f"{'/'.join(BUILTIN_NAMES)} and not a readable config file: "
                f"{err})"
            ) from err
        spec = parse_problem_config(text)
    resolved = resolve_problem(spec)
    if va is None and rho is None:
        return resolved
    if resolved.params is None:
        raise _UsageError("--Va/--rho only apply to the max-return problems")
    # resolved.params holds the problem's own defaults where spec has none
    params = dataclasses.replace(resolved.params, **_given(Va=va, rho=rho))
    return resolve_problem(dataclasses.replace(spec, params=params))


def _given(**values) -> dict:
    """The keyword arguments whose value is not None."""
    return {key: value for key, value in values.items() if value is not None}


def _configs_from_args(args, resolved: ResolvedProblem) -> NewtonConfig:
    scal = dataclasses.replace(
        resolved.scal,
        **_given(
            alpha_points=args.alpha_grid,
            quadrature=args.quadrature,
            fd_step=args.fd_step,
        ),
    )
    return NewtonConfig(
        x0=resolved.x0 if args.x0 is None else args.x0,
        eps=resolved.eps if args.eps is None else args.eps,
        scal=scal,
        **_given(max_iter=args.max_iter),
    )


def _trace_rows(result: SolveResult) -> list[dict]:
    rows = []
    for rec in result.trace:
        fv = rec.fuzzy_value
        rows.append(
            {
                "k": rec.k,
                "x_k": float(rec.x_k),
                "x_next": float(rec.x_k + rec.step),
                "f_lo0": float(fv.lo[0]),
                "f_lo1": float(fv.lo[-1]),
                "f_hi1": float(fv.hi[-1]),
                "f_hi0": float(fv.hi[0]),
            }
        )
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
    }


def _solve_summary(
    resolved: ResolvedProblem, cfg: NewtonConfig
) -> tuple[SolveResult, dict]:
    """Solve; return the result and a summary with the answer's fuzzy
    value and centroid."""
    t0 = time.perf_counter()
    result = solve(resolved.function, cfg)
    wall = time.perf_counter() - t0
    fval = eval_fuzzy(resolved.function, result.xstar, cfg.scal.alpha_points)
    return result, {
        "status": result.status,
        "stationarity_kind": result.stationarity_kind,
        "iterations": result.iterations,
        "xstar": float(result.xstar),
        "value": float(centroid(fval)),
        "fvalue_support_lo": float(fval.lo[0]),
        "fvalue_core_mid": float(0.5 * (fval.lo[-1] + fval.hi[-1])),
        "fvalue_support_hi": float(fval.hi[0]),
        "wall_time_s": wall,
    }


def _solve_report(resolved: ResolvedProblem, cfg: NewtonConfig) -> dict:
    """The solve summary plus F(xstar), the convergence order, the trace,
    the settings and, for a converged solve, the verification."""
    result, summary = _solve_summary(resolved, cfg)
    f = resolved.function
    verification = None
    if result.status == STATUS_CONVERGED:
        verification = _verification_dict(verify_solution(f, result, cfg))
    try:
        order = float(
            estimate_convergence_order(result.trace, result.xstar).order
        )
    except InsufficientDataError:
        order = None
    params = resolved.params
    return {
        **summary,
        "problem": resolved.label,
        "config": {
            "x0": float(cfg.x0),
            "eps": float(cfg.eps),
            "max_iter": cfg.max_iter,
            "d2_floor": float(cfg.d2_floor),
            "alpha_points": cfg.scal.alpha_points,
            "quadrature": cfg.scal.quadrature,
            "fd_step": float(cfg.scal.fd_step),
            "params": None if params is None else _params_to_json(params),
        },
        "F_xstar": float(scalarize(f, result.xstar, cfg.scal)),
        "convergence_order": order,
        "trace": _trace_rows(result),
        "verification": verification,
    }


def _text_row(cells, width: int) -> str:
    """One line of a fixed-width text table."""
    return "".join(c.rjust(width) for c in cells).lstrip() + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        ver = rep["verification"]
        out.write("verification:\n")
        out.write(
            f"  |F'(xstar)| = {_fmt6(abs(ver['d1']))} "
            f"(tol {_fmt6(ver['stat_tol'])}, "
            f"{'ok' if ver['stationary'] else 'FAILED'})\n"
        )
        out.write(f"  max level derivative = {_fmt6(ver['level_d1_max'])}\n")
        out.write(f"  non-dominance: {ver['non_dominance']}\n")
        out.write(f"  comparability (+): {ver['comparability_plus']}\n")
        out.write(f"  comparability (-): {ver['comparability_minus']}\n")
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
    resolved = _load_resolved(args.problem, args.Va, args.rho)
    cfg = _configs_from_args(args, resolved)
    rep = _solve_report(resolved, cfg)
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
        raise _UsageError(f"cannot read sweep file: {err}") from err
    except json.JSONDecodeError as err:
        raise _UsageError(f"sweep file is not valid JSON: {err}") from err
    if not isinstance(data, list):
        raise _UsageError("sweep file must hold a JSON list of rows")
    rows = []
    for i, item in enumerate(data):
        try:
            rows.append(_params_from_json(item))
        except (FuzzyNewtonError, ValueError, TypeError) as err:
            raise _UsageError(f"sweep row {i} is malformed: {err}") from err
    return rows


def _cmd_table(args) -> int:
    rows = _sweep_rows(args.sweep)
    results = []
    for params in rows:
        kind = (
            "max_return_fuzzy" if params.is_fuzzy else "max_return_crisp"
        )
        resolved = resolve_problem(ProblemSpec(kind=kind, params=params))
        _, summary = _solve_summary(
            resolved, _configs_from_args(args, resolved)
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
    resolved = _load_resolved(args.problem, None, None)
    cfg = NewtonConfig(x0=args.xstar, eps=resolved.eps, scal=resolved.scal)
    report = check_point(resolved.function, args.xstar, cfg,
                         **_given(nbhd=args.nbhd, samples=args.samples))
    for line in report.lines():
        sys.stdout.write(line + "\n")
    if report.ok:
        verdict = "pass"
    elif report.stationary and report.non_dominance.samples == 0:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    sys.stdout.write(f"verdict: {verdict}\n")
    return 0 if report.ok else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("a subcommand is required\n")
            return 1
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_check(args)
    except (_UsageError, FuzzyNewtonError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
