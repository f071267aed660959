"""carnotreach benchmark: four seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
With --trace 0 the workload's passes run `repeats` times over and the
last stdout line is the end-to-end result, from each operation's best
repeat, with latencies corrected for the CPU's speed (speed.py).  With --trace 1 the first pass of the workload runs alternately
without and with timing wrappers, a fixed layer suite follows, and the
last line holds the per-layer metrics.  The line before the last is the full
report (workload properties, environment, every metric with its unit,
null where one does not apply); the report and the spans are also
written under .perfbench_out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
BLAS_THREADS = "1"
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with at least this many ops above it
FIT_LEN_ROUNDS = 3  # alternating rounds of fit(max_arcs=3..8) for fit_len{n}.ms
OVERHEAD_CALLS, OVERHEAD_ROUNDS = 500, 15  # blocks of calls that time one span's cost
ACCOUNTING_SLACK = 0.1  # share of an atlas pass the trace may leave unexplained beyond its overhead

WORKLOADS = ("roundtrip", "cube-scan", "atlas", "extremals")

# metrics of the result line, as listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# reported in the full report only: they are 0 or do not apply on some workloads
REPORT_ONLY = {"failed_frac": "fraction", "attained_frac": "fraction", "kept_frac": "fraction"}

PER_LAYER = {
    "fit.calls": "count",
    "fit.busy_s": "s",
    "fit.starts": "count",
    "fit.attained.calls": "count",
    "fit.attained.p50_ms": "ms",
    "fit.attained.busy_s": "s",
    "fit.not_found.calls": "count",
    "fit.not_found.p50_ms": "ms",
    "fit.not_found.busy_s": "s",
    **{f"fit_len{n}.ms": "ms" for n in range(4, 9)},
    "max_min_coordinate.s": "s",
    "prober.attained.calls": "count",
    "prober.attained.busy_s": "s",
    "prober.not_found.calls": "count",
    "prober.not_found.busy_s": "s",
    "trim_and_mesh.self_s": "s",
    "strata_csv.s": "s",
    "write_obj.s": "s",
    "atlas.self_s": "s",
    "member.overhead_ms": "ms",
    "pqr.us": "us",
    "endpoint.us": "us",
    "canonicalize.us": "us",
    "multiply.us": "us",
    "synthesize.us": "us",
    "ag_test.us": "us",
    "ag_test.not_optimal_frac": "fraction",
    "dice_pqr.us": "us",
    "trace.overhead_s": "s",
}


class BoundaryMissed(RuntimeError):
    """A layer boundary the workload must cross recorded no call."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="carnotreach benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    return args


# ---------------------------------------------------------------- setup and environment


def warm_up(w) -> None:
    """What every run pays once after import: the solver's pattern cache
    and one small member call through the CLI."""
    w.attainability.enumerate_patterns(w.attainability.DEFAULT_MAX_ARCS)
    w.run_member((0.5, 0.5, 0.5), ["--max-arcs", "4"])


def setup_probe() -> tuple[float, float, float]:
    """Import plus warm-up in a fresh process, timed from spawn to exit:
    (seconds, start, end)."""
    t0 = time.perf_counter()
    # a blocking wait: subprocess.run(timeout=...) polls, which rounds to 50 ms
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"], cwd=ROOT, stdin=subprocess.DEVNULL
    )
    if child.wait() != 0:
        raise RuntimeError(f"setup probe exited {child.returncode}")
    t1 = time.perf_counter()
    return t1 - t0, t0, t1


class SetupProbes:
    """SETUP_REPEATS setup probes spread over the timed phase: one falls due
    every `seconds / SETUP_REPEATS` and runs at the next gap between
    operations, so that a burst of load from outside the benchmark does not
    cover them all."""

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.runs: list[tuple[float, float, float]] = []

    def between(self) -> None:
        while len(self.runs) < SETUP_REPEATS and time.perf_counter() - self.start >= len(self.runs) * self.interval:
            self.runs.append(setup_probe())

    def finish(self) -> list[tuple[float, float, float]]:
        while len(self.runs) < SETUP_REPEATS:
            self.runs.append(setup_probe())
        return self.runs


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np) -> dict:
    import ctypes

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "git_sha": git_sha(),
        "seed": seed,
    }


# ---------------------------------------------------------------- passes and metrics


def run_pass(w, workload, items, tracer=None, op_prefix="", between=None) -> tuple[list, float]:
    """Run one pass; return its ops and the summed latency of its ops.
    `between` is called after each op, outside its timing."""
    ops = []
    for i, item in enumerate(items):
        timed = contextlib.nullcontext if tracer is None else functools.partial(tracer.recording, f"{op_prefix}{i}")
        t0 = time.perf_counter()
        try:
            op = workload.run_op(item, timed)
        except w.OpFailed as exc:
            op = w.Op(math.nan, failed=True, error=str(exc))
        op.window = (t0, time.perf_counter())
        ops.append(op)
        if between is not None:
            between()
    return ops, sum(o.seconds for o in ops if not o.failed)


def best_of(repeats: tuple, latency=lambda o: o.seconds) -> object:
    """One operation from its repeats: the fastest, or a failed repeat if any failed."""
    failed = [o for o in repeats if o.failed]
    return failed[0] if failed else min(repeats, key=latency)


def time_boxed(seconds: float, run_one) -> list:
    """Call run_one(i) for i = 0, 1, ... while another call would likely
    end less than half a call after `seconds`; always at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return results


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND ops
    above it, but never below the 90th (nearest rank), so that a run with
    few ops reports its slow end rather than a middle value."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, math.ceil(0.9 * len(xs)) - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def summarize(w, ops: list, pass_walls: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics (None where not defined) and their detail.

    The rate weights each op by the share of the workload's population it
    stands for (1 for every op except on cube-scan); the latency
    percentiles are those of the ops run."""
    good = [o for o in ops if not o.failed]
    busy = sum(o.seconds for o in good)
    weights = w.effective_weights(good)
    weighted_busy = sum(wt * o.seconds for wt, o in zip(weights, good))
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "ops_per_s": sum(weights) / weighted_busy if weighted_busy > 0 else None,
        "op_p50_ms": 1e3 * statistics.median(o.seconds for o in good) if good else None,
        "op_tail_ms": None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(1 for o in ops if o.failed) / len(ops),
    }
    detail = {"passes": len(pass_walls), "ops": len(ops), "busy_s": busy, "pass_walls_s": pass_walls}
    if good:
        value, pct = tail([o.seconds for o in good])
        metrics["op_tail_ms"] = 1e3 * value
        detail["op_tail_percentile"] = pct
    return metrics, detail


# ---------------------------------------------------------------- untraced run


def untraced(w, workload, seconds: float) -> tuple[dict, dict, list]:
    """Distinct passes fill `seconds / repeats`; then the same passes run
    again until each op has run `repeats` times.  Each latency is corrected
    for the CPU's speed while it ran, and each op counts with its fastest
    repeat: repeats lie a sweep apart, so a burst of load from outside the
    benchmark rarely slows them all."""
    with speed.SpeedProbe() as probe:
        setup = SetupProbes(seconds)

        def one_pass(i):
            return run_pass(w, workload, workload.pass_inputs(i), between=setup.between)

        first = time_boxed(seconds / workload.repeats, one_pass)
        sweeps = [first] + [[one_pass(i) for i in range(len(first))] for _ in range(workload.repeats - 1)]
        setup_runs = setup.finish()
    executed = [op for sweep in sweeps for pass_ops, _ in sweep for op in pass_ops]
    for op in executed:
        if not op.failed:
            op.raw_seconds = op.seconds
            op.seconds = probe.corrected(op.seconds, *op.window)

    def best_passes(latency):
        passes = [[best_of(r, latency) for r in zip(*(sweep[i][0] for sweep in sweeps))] for i in range(len(first))]
        return passes, [sum(latency(o) for o in p if not o.failed) for p in passes]

    best, walls = best_passes(lambda o: o.seconds)
    ops = [op for pass_ops in best for op in pass_ops]
    metrics, detail = summarize(w, ops, walls)
    setup_times = [probe.corrected(*run) for run in setup_runs]
    metrics["setup_s"] = statistics.median(setup_times)
    metrics.update(workload.report_only(ops))
    raw_best, raw_walls = best_passes(lambda o: o.raw_seconds)
    raw = [w.Op(o.raw_seconds, o.weight, o.failed, o.error, o.info) for p in raw_best for o in p]
    raw_metrics, _ = summarize(w, raw, raw_walls)
    raw_metrics["setup_s"] = statistics.median(run[0] for run in setup_runs)
    detail.update(repeats=workload.repeats, setup_runs_s=setup_times, speed_probe=probe.summary())
    units = {**END_TO_END, **REPORT_ONLY}
    report = {
        "mode": "end-to-end",
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        "uncorrected": {k: raw_metrics.get(k) for k in END_TO_END},
        "detail": detail,
        "properties": workload.properties(ops),
        "errors": [o.error for o in executed if o.failed][:20],
    }
    result = {
        "correct": not any(o.failed for o in executed),
        "attempted": len(executed),
        "failed": sum(1 for o in executed if o.failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
    }
    rows = []
    for i, pass_ops in enumerate(best):
        for j, o in enumerate(pass_ops):
            repeats = [[sweep[i][0][j].seconds, sweep[i][0][j].raw_seconds] for sweep in sweeps]
            rows.append([o.seconds, repeats, o.weight, o.info.get("stratum"), o.info.get("status")])
    return report, result, rows


# ---------------------------------------------------------------- traced run


def layer_suite(w, tracer, needed: set[str]) -> tuple[dict, dict, list]:
    """Fixed calls that measure the layers the workload does not cross,
    the per-length solver cost and max_min_coordinate.

    Returns (groups from the suite, suite-only metrics, span chunks)."""
    chunks, groups, metrics = [], {}, {}

    def traced_call(op, fn):
        with tracer.recording(op):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

    # per-length cost: fit(max_arcs=n) - fit(max_arcs=n-1); each length is seeded
    # alone.  The target is a not-found point that passes every exclusion
    # screen, so its cost stays a solver sweep.  Rounds of n = 3..8 alternate
    # the lengths; each length counts with its fastest round.
    reference = w.load_cube_reference()
    strata = w.cube_strata(reference)
    target = reference[strata["unscreened"][0]]
    point = w.words.PqrPoint(target["p"], target["q"], target["r"])
    seconds = {}
    for _ in range(FIT_LEN_ROUNDS):
        for n in range(3, 9):
            result, took = traced_call(f"suite:fit_len:{n}", lambda: w.attainability.fit(point, max_arcs=n))
            if result.status != "not-found":
                raise w.OpFailed(f"fit_len target {tuple(point.as_array())} attained at max_arcs={n}")
            seconds[n] = min(seconds.get(n, math.inf), took)
            spans = tracer.take()
            chunks.append(spans)
            if n == 8 and "fit.not_found" in needed and "fit.not_found" not in groups:
                groups["fit.not_found"] = tracing.layer_groups(spans, 1)["fit.not_found"]
    for n in range(4, 9):
        metrics[f"fit_len{n}.ms"] = 1e3 * (seconds[n] - seconds[n - 1])

    import scipy.optimize  # noqa: F401  (max_min_coordinate imports it; keep the import out of the timing)

    _, metrics["max_min_coordinate.s"] = traced_call("suite:max_min", lambda: w.attainability.max_min_coordinate(6))
    chunks.append(tracer.take())

    # each probe makes its program calls inside timed(); its checks stay untraced
    probes = []
    if needed & {"fit", "fit.attained", "member"}:
        attained = [(i, "attained", 1.0) for i in strata["attained"][:3]]
        probes.append(("member", lambda timed: [w.cube_op(item, reference, timed) for item in attained]))
    if needed & {"prober.attained", "prober.not_found", "atlas"}:
        probes.append(("atlas", _suite_atlas(w)))
    if needed & {"pqr", "endpoint", "canonicalize", "multiply", "synthesize", "ag_test"}:
        items = w.extremals_pass_inputs(0, 0)[:20]
        probes.append(("extremals", lambda timed: [w.extremals_op(item, timed) for item in items]))
    if needed & {"dice_pqr"}:
        dice = [it["dice"] for it in w.roundtrip_pass_inputs(0, 0) if it["kind"] == "dice"][:20]

        def dice_probe(timed):
            with timed():
                return [w.probability.dice_pqr(*d) for d in dice]

        probes.append(("dice", dice_probe))
    for name, probe in probes:
        probe(functools.partial(tracer.recording, f"suite:{name}"))
        spans = tracer.take()
        chunks.append(spans)
        for key, values in tracing.layer_groups(spans, 1).items():
            if key in needed and key not in groups:
                groups[key] = values
    return groups, metrics, chunks


def _suite_atlas(w):
    def probe(timed):
        with w.AtlasRunner(2) as runner:
            return runner.run(timed)

    return probe


def span_overhead(w, tracer) -> float:
    """Seconds that recording one span adds to a call.

    Blocks of OVERHEAD_CALLS calls of `group.multiply` alternate between
    the original function and the recording wrapper; the difference of the
    fastest blocks of each kind, per call, is the cost of a span."""
    wrapped = w.group.multiply
    plain = wrapped.__wrapped__
    a = w.words.endpoint(w.words.random_word(4, 1))
    b = w.words.endpoint(w.words.random_word(5, 2))
    best = {"plain": math.inf, "recorded": math.inf}
    for _ in range(OVERHEAD_ROUNDS):
        for kind, fn, ctx in (
            ("plain", plain, contextlib.nullcontext()),
            ("recorded", wrapped, tracer.recording("suite:overhead")),
        ):
            with ctx:
                t0 = time.perf_counter()
                for _ in range(OVERHEAD_CALLS):
                    fn(a, b)
                best[kind] = min(best[kind], time.perf_counter() - t0)
        tracer.take()
    return (best["recorded"] - best["plain"]) / OVERHEAD_CALLS


def traced(w, workload, seconds: float) -> tuple[dict, dict, list]:
    items = workload.pass_inputs(0)
    pass_spans = []
    with tracing.Tracer(w) as tracer:

        def pair(i):
            plain = run_pass(w, workload, items)
            recorded = run_pass(w, workload, items, tracer, f"pass{i}:")
            pass_spans.append(tracer.take())
            return plain, recorded

        pairs = time_boxed(seconds, pair)
        n = len(pairs)
        spans = tracing.concat(pass_spans)
        groups = tracing.layer_groups(spans, n)
        missed = [g for g in workload.must_cross if g not in groups]
        if missed:
            raise BoundaryMissed(f"{workload.name} recorded no call at {', '.join(missed)}")
        per_span = span_overhead(w, tracer)
        needed = {tracing.group_of(m) for m in PER_LAYER} - set(groups) - {None}
        suite_groups, suite_metrics, chunks = layer_suite(w, tracer, needed)

    untraced_walls = [u[1] for u, _ in pairs]
    traced_walls = [t[1] for _, t in pairs]
    # what tracing adds to a pass: the cost of a span times the spans of a pass
    overhead = per_span * len(spans) / n
    metrics = {"trace.overhead_s": overhead, **suite_metrics}
    sources = {}
    for key, values in {**suite_groups, **groups}.items():
        metrics.update(values)
        sources[key] = "workload" if key in groups else "suite"
    missing = [m for m in PER_LAYER if not isinstance(metrics.get(m), (int, float))]
    if missing:
        raise BoundaryMissed(f"no measurement for {', '.join(missing)}")

    ops = [op for u, t in pairs for op in u[0] + t[0]]
    errors = [o.error for o in ops if o.failed][:20]
    report = {
        "mode": "traced",
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()},
        "sources": sources,
        "detail": {
            "pairs": n,
            "untraced_pass_walls_s": untraced_walls,
            "traced_pass_walls_s": traced_walls,
            "span_overhead_us": 1e6 * per_span,
            "spans_per_pass": len(spans) / n,
            "spans": len(spans) + sum(len(c) for c in chunks),
        },
        "properties": workload.properties([op for t in pairs for op in t[1][0]]),
    }
    correct = not any(o.failed for o in ops)
    if workload.name == "atlas":
        report["accounting"] = atlas_accounting(pass_spans, untraced_walls, overhead)
        if not report["accounting"]["accounted"]:
            correct = False
            errors.append("the atlas trace does not account for the untraced wall time")
    report["errors"] = errors
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o.failed),
        "metrics": report["metrics"],
    }
    return report, result, [spans, *chunks]


def atlas_accounting(pass_spans: list[list], untraced_walls: list[float], overhead_s: float) -> dict:
    """Whether the trace of an atlas pass explains the wall time of the
    untraced pass run next to it.

    The pieces (prober busy time, trim_and_mesh self time, strata_csv,
    write_obj, CLI self time) come from the spans of each traced pass; the
    untraced pass is timed by its own clock.  A pair agrees when the two
    differ by at most the tracing overhead plus ACCOUNTING_SLACK of the
    untraced time.  Load from outside the benchmark can upset a pair, so
    one agreeing pair suffices: time the trace misses would show in all."""
    pairs = []
    for spans, untraced_s in zip(pass_spans, untraced_walls):
        groups = tracing.layer_groups(spans, 1)
        atlas, busy = groups.get("atlas", {}), 0.0
        for key in ("attained", "not_found"):
            busy += groups.get(f"prober.{key}", {}).get(f"prober.{key}.busy_s", 0.0)
        pieces = {
            "prober_busy_s": busy,
            "trim_and_mesh_self_s": atlas.get("trim_and_mesh.self_s", 0.0),
            "strata_csv_s": atlas.get("strata_csv.s", 0.0),
            "write_obj_s": atlas.get("write_obj.s", 0.0),
            "cli_self_s": atlas.get("atlas.self_s", 0.0),
        }
        explained = sum(pieces.values())
        pairs.append({**pieces, "explained_s": explained, "untraced_wall_s": untraced_s, "gap_s": explained - untraced_s})
    closest = min(pairs, key=lambda p: abs(p["gap_s"]))
    allowed = overhead_s + ACCOUNTING_SLACK * closest["untraced_wall_s"]
    return {
        "pairs": pairs,
        "tracing_overhead_s": overhead_s,
        "allowed_gap_s": allowed,
        "accounted": abs(closest["gap_s"]) <= allowed,
    }


# ---------------------------------------------------------------- main


def run(args) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # fixed before workloads loads numpy
    import workloads as w

    try:
        w.import_program()
    except w.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        warm_up(w)
        return 0

    warm_up(w)
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with w.CLASSES[args.workload](args.seed) as workload:
            if args.trace:
                report, result, chunks = traced(w, workload, args.seconds)
                tracing.write_csv(tracing.concat(chunks), stem.with_suffix(".spans.csv"))
            else:
                report, result, op_rows = untraced(w, workload, args.seconds)
    except BoundaryMissed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report.update(workload=args.workload, seconds=args.seconds, environment=env)
    record = {**report, "result": result}
    if not args.trace:
        record["ops"] = op_rows  # [best seconds, [corrected, raw] seconds of each repeat, share, stratum, status]
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
