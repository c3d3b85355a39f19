"""fuzzynewton benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload newton_solve --seed 1 \\
        --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; without
it the run exits with code 2 and prints no result. Load is a closed loop
with one client in this process: the next op starts when the previous
one returns. BLAS and OpenMP pools are pinned to one thread. Op
latencies are scaled by a canary timed between ops (see ``Loop``).

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the
workload untraced for half of ``--seconds``, times the built-ins, then
traces a calibration pass and the same op sequence again, and reports
the per-layer metrics (see tracing.py) and the tracing overhead; its
spans are written to ``.perfbench_out/``.

Every line before the last starts with ``#``: the run context, each
metric with its unit and sample count, and failures. The last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 6          # fresh processes that repeat the set-up
MIN_PASSES = 2            # so that every op has a median of two or more
CANARY_EVERY_S = 0.05     # a canary sample at most this often between ops
CANARY_REF_S = 100e-6     # timings are scaled to a canary of this time
UNTRACED_SHARE = 0.5      # of --seconds, in a traced run
P90_TAIL = 10             # samples that must lie beyond the 90th percentile

OP_DEFINITIONS = {
    "newton_solve": "solve() then eval_fuzzy and centroid at xstar",
    "verify_audit": "one check_point call",
    "grid_oracle": "one grid_search_min call at step 1e-5",
    "cli_mix": "one in-process fuzzynewton.cli.main(argv) call",
}


@dataclass
class Loop:
    """What one timed loop did, over whole passes of ``pool`` ops.

    On a shared machine the core's speed can change by half for seconds
    or minutes at a time as other loads come and go. So the loop times a
    canary, a fixed task that does not use the package, every
    CANARY_EVERY_S between ops, and ``scaled`` rescales each latency to
    the speed at which the canary takes CANARY_REF_S.
    """

    pool: int
    latencies: list = field(default_factory=list)
    canary_at: list = field(default_factory=list)  # canary per latency
    canaries: list = field(default_factory=list)
    passes: int = 0
    failed: int = 0
    output_bytes: int = 0
    failures: dict = field(default_factory=dict)
    outcomes: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list:
        """Each op's median over the passes of its latency times
        CANARY_REF_S / (the canary time just before it), in pool order."""
        y = [CANARY_REF_S * x / c
             for x, c in zip(self.latencies, self.canary_at)]
        return [statistics.median(y[i::self.pool]) for i in range(self.pool)]

    def ops_per_s(self) -> float:
        """Correct ops per second of scaled op time."""
        correct = 1.0 - self.failed / self.attempted
        return correct * self.pool / math.fsum(self.scaled())


def canary_s(arr) -> float:
    """Best of three runs of a fixed task of Python calls and small numpy
    operations, like the package's inner loops but independent of it."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(40):
            acc += float((arr * (k + 1.0)).sum()) + math.sqrt(k + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def run_loop(ops: list, seconds: float = math.inf, passes: int = 0,
             tracer=None) -> Loop:
    """Run whole passes over the ops for about ``seconds`` (at least
    MIN_PASSES passes), or for exactly ``passes`` passes.

    Every pass runs the same ops in the same order, so a run's mix of
    work does not depend on where the time ran out. Only ``op.run`` is
    timed; its check follows outside the timing. An op fails if it
    raises or its check does not hold; a separately named outcome of the
    check (a two-cycle) is counted per op kind.
    """
    import numpy  # only now: set-up times the package's own import of it

    arr = numpy.linspace(0.0, 1.0, 101)
    loop = Loop(pool=len(ops))
    start = time.perf_counter()
    canary_time = -math.inf
    while True:
        for op in ops:
            if time.perf_counter() - canary_time >= CANARY_EVERY_S:
                loop.canaries.append(canary_s(arr))
                canary_time = time.perf_counter()
            loop.canary_at.append(loop.canaries[-1])
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    raw = op.run()
                else:
                    with tracer.op_span(loop.attempted + 1):
                        raw = op.run()
                error = None
            except Exception as err:  # any failure of the program counts
                raw, error = None, err
            t1 = time.perf_counter()
            loop.latencies.append(t1 - t0)
            if error is None:
                try:
                    verdict = op.check(raw)
                    if not verdict:
                        error = "result outside its reference"
                    else:
                        if verdict is not True:
                            loop.outcomes[op.kind, verdict] += 1
                        if op.output_bytes is not None:
                            loop.output_bytes += op.output_bytes(raw)
                except Exception as err:  # unreadable output fails too
                    error = err
            if error is not None:
                loop.failed += 1
                seen, first = loop.failures.get(op.kind, (0, repr(error)))
                loop.failures[op.kind] = (seen + 1, first)
        loop.passes += 1
        elapsed = time.perf_counter() - start
        # End at the pass boundary nearest to ``seconds``.
        if loop.passes == passes or (
                loop.passes >= MIN_PASSES
                and elapsed * (1 + 0.5 / loop.passes) >= seconds):
            return loop


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_context(args) -> dict:
    import numpy

    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "op": OP_DEFINITIONS[args.workload],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", "unknown"),
        "llc": cpu.get("cache size", "unknown"),
        "blas_threads": {var: os.environ.get(var) for var in PINNED},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata in the checkout)"


def setup_probe(args) -> float:
    """Set-up time of one fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "1",
         "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(loop: Loop, setup_samples: list) -> dict:
    scaled = loop.scaled()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "ops_per_s": (loop.ops_per_s(), "1/ref_s", len(scaled)),
        "op_ms_p50": (1e3 * statistics.median(scaled), "ref_ms", len(scaled)),
        "op_ms_p90": (1e3 * percentile(scaled, 90), "ref_ms", len(scaled)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def print_metric(workload: str, name: str, value, unit: str, n: int,
                 note: str = "") -> None:
    extra = f", {note}" if note else ""
    print(f"# {workload} {name} = {value:.6g} {unit} (n={n}{extra})")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the seconds it took")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "fuzzynewton" / "__init__.py").is_file():
        print(f"error: no package sources at {src / 'fuzzynewton'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    specs = workloads.make_specs(args.workload, args.seed)
    t0 = time.perf_counter()
    bench = workloads.setup(args.workload, specs)
    setup_local = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_local))
        return 0
    if not Path(bench.fz.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fuzzynewton imported from {bench.fz.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        ops = bench.prepare(tmpdir)
        context = run_context(args)
        print("# context " + json.dumps(context, sort_keys=True))
        if args.trace:
            loops, metrics = traced_run(args, bench, ops)
        else:
            # Half the fresh set-ups run before the timed loop and half
            # after it, so that the samples span the whole run.
            half = SETUP_PROBES // 2
            setup_samples = [setup_local] + [setup_probe(args)
                                             for _ in range(half)]
            loop = run_loop(ops, args.seconds)
            setup_samples += [setup_probe(args)
                              for _ in range(SETUP_PROBES - half)]
            loops, metrics = [loop], end_to_end(loop, setup_samples)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    outcomes = sum((lp.outcomes for lp in loops), Counter())
    cycles = sum(n for (_, name), n in outcomes.items()
                 if name == workloads.TWO_CYCLE)
    rates = {
        "error_rate": (failed / attempted, "ratio", attempted, "workload"),
        "two_cycle_ratio": (cycles / attempted, "ratio", attempted,
                            "workload"),
    }
    if args.trace:
        metrics.update(rates)
    for name, (value, unit, n, *source) in metrics.items():
        note = source[0] if source and source[0] != "workload" else ""
        print_metric(args.workload, name, value, unit, n, note)
    if not args.trace:
        # Printed, but not JSON metrics: an end-to-end metric is never 0.
        for name, (value, unit, n, _) in rates.items():
            print_metric(args.workload, name, value, unit, n)
        print(f"# {args.workload} setup_s samples: this process "
              f"{setup_samples[0]:.6g} s, fresh processes "
              + ", ".join(f"{v:.6g}" for v in setup_samples[1:]) + " s")
        loop = loops[0]
        beyond = sum(1 for v in loop.scaled()
                     if 1e3 * v > metrics["op_ms_p90"][0])
        raw = loop.latencies
        print(f"# {args.workload} {loop.passes} passes over {loop.pool} ops;"
              f" each op's median over the passes is a sample;"
              f" samples beyond op_ms_p90: {beyond}"
              f"{'' if beyond >= P90_TAIL else ' (fewer than 10)'}")
        print(f"# {args.workload} canary: {len(loop.canaries)} samples, "
              f"best {1e6 * min(loop.canaries):.4g} us, "
              f"median {1e6 * statistics.median(loop.canaries):.4g} us; "
              f"the ref_ timings are scaled to {1e6 * CANARY_REF_S:g} us")
        print(f"# {args.workload} unscaled, every latency: "
              f"p50 {1e3 * statistics.median(raw):.6g} ms, "
              f"p90 {1e3 * percentile(raw, 90):.6g} ms, "
              f"{(loop.attempted - loop.failed) / math.fsum(raw):.6g} ops/s "
              f"(n={len(raw)})")
    for (kind, name), count in sorted(outcomes.items()):
        print(f"# outcome {kind}: {name} {count} times")
    for lp in loops:
        for kind, (count, first) in sorted(lp.failures.items()):
            print(f"# failed {kind}: {count} (first: {first})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]}
                    for name, v in metrics.items()},
    }))
    return 0


def traced_run(args, bench, ops):
    """Untraced share, built-in timings, then the traced calibration and
    the same op sequence traced; returns both loops and the per-layer
    metrics."""
    plain = run_loop(ops, UNTRACED_SHARE * args.seconds)
    times = tracing.time_builtins(bench.fz, bench.cli, workloads.call_cli)
    tracer = tracing.Tracer()
    with tracer.installed():
        for p in bench.problems:
            p.f = tracer.wrap_levels(p.f)
        counts = tracing.calibrate(tracer, bench.fz, bench.cli,
                                   workloads.call_cli)
        traced = run_loop(ops, passes=plain.passes, tracer=tracer)
    metrics = tracing.layer_metrics(tracer, traced.attempted,
                                    traced.output_bytes)
    cal_metrics, notes = tracing.calibration_metrics(times, counts)
    metrics.update(cal_metrics)
    n = traced.attempted
    metrics["trace.ops_per_s"] = (traced.ops_per_s(), "1/s", n)
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s(), "1/s", n)
    metrics["trace.overhead_ratio"] = (
        traced.ops_per_s() / plain.ops_per_s(), "ratio", n)
    metrics["trace.spans_per_op"] = (
        sum(1 for s in tracer.spans if isinstance(s[tracing.OP], int))
        / traced.attempted, "count", traced.attempted)
    for note in notes:
        print(f"# calibration {note}")
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(str(path))
    print(f"# spans written to {path.relative_to(ROOT)}")
    return [plain, traced], metrics


if __name__ == "__main__":
    sys.exit(main())
