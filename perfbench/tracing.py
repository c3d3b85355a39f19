"""Span tracing of the fuzzynewton layers, done from outside the package.

``Tracer.installed()`` replaces every public function of the six layer
modules at each module attribute that holds it: the defining module,
every module that imported it, and the package namespace. So a call
from one layer into another, or from a layer into its own module
(``scalarize_d1`` calling ``scalarize``), goes through the wrapper.
``FuzzyNumber.__init__`` is wrapped in place on its class, because the
class itself must stay the class for ``isinstance``.

A wrapper records a span: name, layer, start, end, parent span and op
id. The six level-map fields of each FuzzyFunction are wrapped with
``dataclasses.replace`` and only counted (calls and (x, alpha) points),
not spanned, so their time is self time of the layer that calls them.
FuzzyFunctions and ResolvedProblems returned by any traced function get
their level maps wrapped on the way out, which covers problems built
inside ``cli.main``. Spans stay in memory until ``write``.

The per-layer metrics follow one rule: counts per op and shares of op
time cover the workload's ops only, and a count of 0 is marked "not
exercised"; a latency, rate or ratio is taken over the workload's spans
of that function, or, when the workload never calls it, over the
built-in calibration's spans (and is marked "from calibration").
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("fuzzy_core", "level_calculus", "newton_solver", "defuzzify",
          "problems", "cli")
LEVEL_FIELDS = ("level_lo", "level_hi", "d1_lo", "d1_hi", "d2_lo", "d2_hi")
ORDER = frozenset({"fuzzy_core.lt", "fuzzy_core.leq", "fuzzy_core.comparable"})
# Bytes per (x, alpha) pair that scalarize_many holds as float64 arrays:
# the lower and upper levels and their sum. Computed from array shapes,
# so it ignores level-map temporaries and cache behaviour.
GRID_BYTES_PER_LEVEL = 3 * 8

NAME, LAYER, START, END, PARENT, OP, INFO = range(7)

BUILTINS = ("example_4_1", "max_return_crisp", "max_return_fuzzy")
# Level-map calls per solve and per verify_solution at each built-in's
# recommended settings, counted on the seed code by the same wrapping.
EXPECTED_LEVEL_CALLS = {
    "example_4_1": (42, 162),
    "max_return_crisp": (74, 162),
    "max_return_fuzzy": (160, 72),
}
EXPECTED_FUZZY_REPEATS = (33, 69)
# ROADMAP.md's re-anchor table: solve, verify and full CLI report in ms
# (means of 20 runs on a 2-core machine).
ROADMAP_MS = {
    "example_4_1": (4.7, 24.0, 28.0),
    "max_return_crisp": (2.6, 11.0, 15.0),
    "max_return_fuzzy": (8.8, 6.0, 15.0),
}
CALIBRATION_REPS = 10


class Tracer:
    """Spans and level-map counts of one traced run."""

    def __init__(self):
        import numpy

        self._broadcast = numpy.broadcast
        self._size = numpy.size
        self.spans: list = []
        self._stack: list = []
        self.op = None
        self._seen_x: set = set()
        self._solves = 0         # newton_solver.solve calls now open
        self.level_calls: Counter = Counter()
        self.level_points: Counter = Counter()
        self._types: tuple = ()

    def _enter(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           self.op, None])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; spans opened inside carry its id."""
        self.op = op_id
        sid = self._enter("bench.op", "bench")
        try:
            yield
        finally:
            self._exit(sid)
            self.op = None

    def _note(self, name: str, span: list, args, result) -> None:
        if name == "scalarize" and self._solves:
            x = float(args[1])
            span[INFO] = x in self._seen_x  # evaluated before in this solve
            self._seen_x.add(x)
        elif name == "scalarize_d1":
            span[INFO] = "analytic" if args[0].has_analytic_d1 else "fd"
        elif name == "scalarize_d2":
            span[INFO] = "analytic" if args[0].has_analytic_d2 else "fd"
        elif name == "scalarize_many":
            span[INFO] = (int(self._size(args[1])), args[2].alpha_points)
        elif name == "solve":
            span[INFO] = (result.iterations, result.status)

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        short = fn.__name__

        solve = name == "newton_solver.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if solve:
                self._solves += 1
                self._seen_x = set()
            sid = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid)
                self._solves -= solve
            self._note(short, self.spans[sid], args, result)
            return self.instrument(result)

        return traced

    def _count(self, level_map):
        def counted(x, a):
            self.level_calls[self.op] += 1
            self.level_points[self.op] += self._broadcast(x, a).size
            return level_map(x, a)

        counted.bench_counted = True
        return counted

    def wrap_levels(self, f):
        """f with its level maps counted (f itself if they already are)."""
        if getattr(f.level_lo, "bench_counted", False):
            return f
        return dataclasses.replace(f, **{
            k: self._count(getattr(f, k))
            for k in LEVEL_FIELDS if getattr(f, k) is not None
        })

    def instrument(self, value):
        fuzzy_function, resolved_problem = self._types
        if isinstance(value, fuzzy_function):
            return self.wrap_levels(value)
        if isinstance(value, resolved_problem):
            f = self.wrap_levels(value.function)
            if f is not value.function:
                return dataclasses.replace(value, function=f)
        return value

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions while the block runs."""
        pkg = importlib.import_module("fuzzynewton")
        mods = {layer: importlib.import_module(f"fuzzynewton.{layer}")
                for layer in LAYERS}
        self._types = (mods["level_calculus"].FuzzyFunction,
                       mods["problems"].ResolvedProblem)
        wrappers = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, layer)
        undo = []
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        cls = mods["fuzzy_core"].FuzzyNumber
        init = cls.__init__

        def traced_init(obj, *args, **kwargs):
            sid = self._enter("fuzzy_core.FuzzyNumber", "fuzzy_core")
            try:
                init(obj, *args, **kwargs)
            finally:
                self._exit(sid)

        cls.__init__ = traced_init
        undo.append((cls, "__init__", init))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """All spans as gzip'd CSV: id,name,layer,start,end,parent,op,info."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,layer,start,end,parent,op,info\n")
            for i, s in enumerate(self.spans):
                info = "" if s[INFO] is None else str(s[INFO]).replace(",", ";")
                fh.write(f"{i},{s[NAME]},{s[LAYER]},{s[START]!r},{s[END]!r},"
                         f"{s[PARENT]},{s[OP]},{info}\n")


# ----------------------------------------------------------- calibration


def time_builtins(fz, cli, call_cli) -> dict:
    """Untraced medians (ms) of solve, verify and the full CLI report on
    each built-in at its recommended settings."""
    out = {}
    for name in BUILTINS:
        resolved = fz.resolve_problem(fz.ProblemSpec(kind=name))
        f = resolved.function
        cfg = fz.NewtonConfig(x0=resolved.x0, eps=resolved.eps,
                              scal=resolved.scal)
        res = fz.solve(f, cfg)
        calls = (lambda: fz.solve(f, cfg),
                 lambda: fz.verify_solution(f, res, cfg),
                 lambda: call_cli(cli, ["solve", "--problem", name]))
        medians = []
        for call in calls:
            times = []
            for _ in range(CALIBRATION_REPS):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            medians.append(1e3 * statistics.median(times))
        out[name] = medians
    return out


def calibrate(tracer: Tracer, fz, cli, call_cli) -> dict:
    """Traced calls on each built-in; returns exact per-call counts.

    Runs once before the traced workload so that every layer has spans
    even on workloads that never call it. Op ids are strings, which
    keeps these spans out of the per-op counts.
    """
    counts = {}
    for name in BUILTINS:
        with tracer.op_span(f"cal:{name}:resolve"):
            spec = fz.ProblemSpec(kind=name)
            resolved = fz.resolve_problem(spec)
            fz.parse_problem_config(fz.serialize_problem_config(spec))
        f = resolved.function
        cfg = fz.NewtonConfig(x0=resolved.x0, eps=resolved.eps,
                              scal=resolved.scal)
        with tracer.op_span(f"cal:{name}:solve"):
            res = fz.solve(f, cfg)
        with tracer.op_span(f"cal:{name}:verify"):
            fz.verify_solution(f, res, cfg)
        with tracer.op_span(f"cal:{name}:report"):
            call_cli(cli, ["solve", "--problem", name])
        with tracer.op_span(f"cal:{name}:grid"):
            fz.grid_search_min(f, (res.xstar - 0.01, res.xstar + 0.01),
                               cfg.scal, step=1e-5)
        solve_scalarize = [s for s in tracer.spans
                           if s[OP] == f"cal:{name}:solve"
                           and s[NAME] == "level_calculus.scalarize"]
        counts[name] = {
            "solve": tracer.level_calls[f"cal:{name}:solve"],
            "verify": tracer.level_calls[f"cal:{name}:verify"],
            "repeats": sum(1 for s in solve_scalarize if s[INFO]),
            "scalarize": len(solve_scalarize),
        }
    return counts


def calibration_metrics(times: dict, counts: dict) -> tuple:
    """Per-layer entries for the calibration plus human-readable notes."""
    metrics, notes = {}, []
    for name in BUILTINS:
        c = counts[name]
        want_solve, want_verify = EXPECTED_LEVEL_CALLS[name]
        metrics[f"calib.{name}.level_calls_per_solve"] = (
            c["solve"], "count", 1, "from calibration")
        metrics[f"calib.{name}.level_calls_per_verify"] = (
            c["verify"], "count", 1, "from calibration")
        notes.append(
            f"{name}: level-map calls per solve {c['solve']} (expected "
            f"{want_solve}: {'match' if c['solve'] == want_solve else 'DIFFERS'}),"
            f" per verify {c['verify']} (expected {want_verify}: "
            f"{'match' if c['verify'] == want_verify else 'DIFFERS'})")
        for label, ms, ref in zip(("solve", "verify", "report"), times[name],
                                  ROADMAP_MS[name]):
            metrics[f"calib.{name}.{label}_ms"] = (
                ms, "ms", CALIBRATION_REPS, "from calibration")
            notes.append(f"{name}: {label} {ms:.3g} ms, ROADMAP {ref:g} ms "
                         f"(x{ms / ref:.2f})")
    fuzzy = counts["max_return_fuzzy"]
    metrics["calib.max_return_fuzzy.scalarize_repeat_ratio"] = (
        fuzzy["repeats"] / fuzzy["scalarize"], "ratio", fuzzy["scalarize"],
        "from calibration")
    got = (fuzzy["repeats"], fuzzy["scalarize"])
    notes.append(
        f"max_return_fuzzy: scalarize repeats {got[0]}/{got[1]} (expected "
        f"{EXPECTED_FUZZY_REPEATS[0]}/{EXPECTED_FUZZY_REPEATS[1]}: "
        f"{'match' if got == EXPECTED_FUZZY_REPEATS else 'DIFFERS'})")
    return metrics, notes


# ------------------------------------------------------ per-layer metrics


def layer_metrics(tracer: Tracer, n_ops: int, output_bytes: int) -> dict:
    """name -> (value, unit, samples, source) for every layer metric."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]
    # Workload ops carry integer ids, calibration ops string ids.
    groups = {True: defaultdict(list), False: defaultdict(list)}
    for i, s in enumerate(spans):
        groups[isinstance(s[OP], int)][s[NAME]].append(i)
    workload = groups[True]
    op_time = sum(dur[i] for i in workload["bench.op"])

    def pick(names, keep=lambda i: True):
        """Spans of the names in the workload, else in the calibration."""
        for in_workload, source in ((True, "workload"),
                                    (False, "from calibration")):
            got = [i for n in names for i in groups[in_workload][n] if keep(i)]
            if got:
                return got, source
        return [], "not exercised"

    def count(total, unit="count"):
        return (total / n_ops, unit, n_ops,
                "workload" if total else "not exercised")

    def per_op(names, keep=lambda i: True):
        return count(sum(1 for n in names for i in workload[n] if keep(i)))

    def p50(names, unit, keep=lambda i: True, part=dur):
        idx, source = pick(names, keep)
        scale = {"us": 1e6, "ms": 1e3}[unit]
        value = scale * statistics.median(part[i] for i in idx) if idx else 0.0
        return value, unit, len(idx), source

    def ratio(names, hit, keep=lambda i: True):
        idx, source = pick(names, keep)
        value = sum(1 for i in idx if hit(i)) / len(idx) if idx else 0.0
        return value, "ratio", len(idx), source

    def share(layer, names=None):
        t = sum(self_time[i] for n, idx in workload.items()
                if names is None or n in names
                for i in idx if spans[i][LAYER] == layer)
        return t / op_time if op_time else 0.0, "ratio", n_ops, "workload"

    def top_order(i):
        parent = spans[i][PARENT]
        return parent < 0 or spans[parent][NAME] not in ORDER

    def fd(i):
        return spans[i][INFO] == "fd"

    def analytic(i):
        return spans[i][INFO] == "analytic"

    scalarize = "level_calculus.scalarize"
    many = "level_calculus.scalarize_many"
    d12 = ("level_calculus.scalarize_d1", "level_calculus.scalarize_d2")
    # scalarize_many spans that dropped to the per-point scalarize loop
    fell_back = {spans[i][PARENT] for g in groups.values() for i in g[scalarize]
                 if spans[i][PARENT] >= 0
                 and spans[spans[i][PARENT]][NAME] == many}
    many_idx, many_src = pick([many])
    points = sum(spans[i][INFO][0] for i in many_idx)
    grid_bytes = sum(spans[i][INFO][0] * spans[i][INFO][1]
                     for i in many_idx) * GRID_BYTES_PER_LEVEL
    many_time = sum(dur[i] for i in many_idx)
    solves, solve_src = pick(["newton_solver.solve"])
    iters = sum(spans[i][INFO][0] for i in solves)
    workload_ops = [op for op in tracer.level_calls if isinstance(op, int)]

    m = {
        "fuzzy_core.numbers_per_op": per_op(["fuzzy_core.FuzzyNumber"]),
        "fuzzy_core.construct_us_p50": p50(["fuzzy_core.FuzzyNumber"], "us"),
        "fuzzy_core.order_calls_per_op": per_op(ORDER, top_order),
        "fuzzy_core.order_us_p50": p50(ORDER, "us", top_order),
        "fuzzy_core.self_share": share("fuzzy_core"),
        "level_calculus.level_calls_per_op": count(
            sum(tracer.level_calls[op] for op in workload_ops)),
        "level_calculus.level_points_per_op": count(
            sum(tracer.level_points[op] for op in workload_ops)),
        "level_calculus.scalarize_calls_per_op": per_op([scalarize]),
        "level_calculus.scalarize_repeat_ratio": ratio(
            [scalarize], lambda i: spans[i][INFO] is True,
            lambda i: spans[i][INFO] is not None),
        "level_calculus.scalarize_us_p50": p50([scalarize], "us"),
        "level_calculus.d1d2_fd_us_p50": p50(d12, "us", fd),
        "level_calculus.d1d2_analytic_us_p50": p50(d12, "us", analytic),
        "level_calculus.eval_fuzzy_calls_per_op": per_op(
            ["level_calculus.eval_fuzzy"]),
        "level_calculus.eval_fuzzy_us_p50": p50(
            ["level_calculus.eval_fuzzy"], "us"),
        "level_calculus.nondominance_ms_p50": p50(
            ["level_calculus.non_dominance_check"], "ms"),
        "level_calculus.comparability_ms_p50": p50(
            ["level_calculus.comparability_check"], "ms"),
        "level_calculus.scalarize_many_ms_p50": p50([many], "ms"),
        "level_calculus.fallback_ratio": ratio([many], lambda i: i in fell_back),
        "level_calculus.grid_points_per_s": (
            points / many_time if many_time else 0.0, "1/s", len(many_idx),
            many_src),
        "level_calculus.grid_bytes_per_point": (
            grid_bytes / points if points else 0.0, "B", len(many_idx),
            many_src + ", computed"),
        "level_calculus.self_share": share("level_calculus"),
        "newton_solver.iters_per_solve": (
            iters / len(solves) if solves else 0.0, "count", len(solves),
            solve_src),
        "newton_solver.us_per_iter": (
            1e6 * sum(dur[i] for i in solves) / iters if iters else 0.0,
            "us", iters, solve_src),
        "newton_solver.solve_self_share": share(
            "newton_solver", {"newton_solver.solve"}),
        "newton_solver.check_ms_p50": p50(["newton_solver.check_point"], "ms"),
        "newton_solver.order_estimate_us_p50": p50(
            ["newton_solver.estimate_convergence_order"], "us"),
        "newton_solver.converged_ratio": ratio(
            ["newton_solver.solve"], lambda i: spans[i][INFO][1] == "converged"),
        "defuzzify.calls_per_op": per_op(["defuzzify.centroid"]),
        "defuzzify.centroid_us_p50": p50(["defuzzify.centroid"], "us"),
        "problems.resolve_us_p50": p50(["problems.resolve_problem"], "us"),
        "problems.parse_us_p50": p50(["problems.parse_problem_config"], "us"),
        "problems.grid_chunks_per_op": per_op(
            [many], lambda i: spans[i][PARENT] >= 0
            and spans[spans[i][PARENT]][NAME] == "problems.grid_search_min"),
        "cli.main_ms_p50": p50(["cli.main"], "ms"),
        "cli.self_ms_p50": p50(["cli.main"], "ms", part=self_time),
        "cli.output_bytes_per_op": count(output_bytes, "B"),
    }
    return m
