"""Workload rounds, correctness checks and metrics of the tsagg benchmark.

A run writes its instance, then repeats identical rounds until
``--seconds`` would be exceeded.  Every round runs the same operations on
every workload, so every workload reports every end-to-end metric:

* ``compare``    -- ``tsagg compare`` on the workload's instance
* ``trials``     -- a ``run_theorem_trials`` batch seeded from ``--seed``
* ``solve-full`` -- ``tsagg solve-full`` on the same instance
* ``trials``     -- the same batch again

The workloads differ in the instance and so in which layer dominates:
``year`` (8760 h, 3 bases) is per-hour overhead, ``fleet`` (1008 h, 9-10
bases, exact 0/1 capacity factors) is the simplex kernel, and ``trials``
(a two-week instance, larger trial batches) is fresh random LPs with no
shared matrix.  The machine's speed drifts by tens of percent over
seconds to minutes, so every operation's wall time is scaled by a reference
task timed around it (``speed.py``), and the repeated set-ups behind
``setup_s`` are spread over the run instead of sampling one moment.

A traced round regenerates the instance and draws one ``tsagg plot`` as
well, so every module has spans, and runs one untraced ``compare`` next to
the traced one to price the tracing.  Every operation is checked; a failed
check makes a failed operation, never a skipped one.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tsagg._kernels
import tsagg.evaluation

from . import oracle, speed
from .instances import quiet_cli, write_instance
from .tracing import Tracer, hours_per_simplex_call, layer_totals, trial_accept_ratio

TRIALS_PER_BATCH = {"year": 100, "fleet": 100, "trials": 250}
WARMUP_TRIALS = 10
SETUP_REPS = 5
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# End-to-end metrics: name -> unit.
END_TO_END = {
    "compare_s": "s",
    "compare_tail_s": "s",
    "solve_full_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: name -> unit.  Totals over one round, median of rounds.
PER_LAYER = {
    "_kernels.simplex.calls": "count",
    "_kernels.simplex.ms": "ms",
    "_kernels.simplex.pivots": "count",
    "_kernels.simplex.tableau_flops": "flop.computed",
    "_kernels.basis_eval.calls": "count",
    "_kernels.basis_eval.ms": "ms",
    "lp_core.solve.calls": "count",
    "lp_core.solve.self_ms": "ms",
    "lp_core.solve_with_basis.calls": "count",
    "lp_core.solve_with_basis.ms": "ms",
    "lp_core.StandardFormLP.calls": "count",
    "lp_core.StandardFormLP.ms": "ms",
    "dispatch_model.hourly_rhs.calls": "count",
    "dispatch_model.hourly_rhs.ms": "ms",
    "dispatch_model.solve_full.self_ms": "ms",
    "dispatch_model.solve_aggregated.ms": "ms",
    "dispatch_model.hours_per_simplex_call": "ratio",
    "evaluation.run_theorem_trials.accept_ratio": "ratio",
    "tsa_clustering.normalize_features.ms": "ms",
    "tsa_clustering.kmeans.ms": "ms",
    "tsa_clustering.basis_cluster.ms": "ms",
    "tsa_clustering.to_representatives.ms": "ms",
    "tsa_clustering.input_mse.ms": "ms",
    "evaluation.compare_methods_detailed.self_ms": "ms",
    "evaluation.theorem_check.calls": "count",
    "evaluation.theorem_check.ms": "ms",
    "data_io.load_config.ms": "ms",
    "data_io.write_report.ms": "ms",
    "data_io.write_report.bytes": "B",
    "data_io.write_clusters.ms": "ms",
    "data_io.write_clusters.bytes": "B",
    "data_io.generate_synthetic.ms": "ms",
    "cli.main.self_ms": "ms",
    "plotting.write_plot.ms": "ms",
    "tracing.compare_overhead_ms": "ms",
}


def load_digests() -> dict:
    if DIGESTS_PATH.is_file():
        return json.loads(DIGESTS_PATH.read_text())
    return {}


@dataclass
class Context:
    """One workload instance plus the tally of checked operations."""

    workload: str
    seed: int
    work: Path
    config: Path
    oracle_total: float
    hours: int
    recorded: dict[str, str]
    gauge: speed.Gauge
    seen: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def finish(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    def digest_problems(self, op: str, digest: str) -> list[str]:
        """An output digest must match the recorded one, else the run's first."""
        first = self.seen.setdefault(op, digest)
        expected = self.recorded.get(op, first)
        if digest != expected:
            return [f"output digest {digest} differs from {expected}"]
        return []


def _timed(ctx, tracer, name, fn):
    """Run one operation, then read the gauge.

    Returns ((start, end, wall seconds), result, error message or None).
    """
    t0 = time.perf_counter()
    try:
        result = tracer.op(name, fn) if tracer is not None else fn()
        error = None
    except Exception as exc:  # a crash is a failed operation, not a dead run
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    ctx.gauge.take(t1 - t0)
    return (t0, t1, t1 - t0), result, error


def _checked(ctx: Context, op: str, error, check) -> None:
    if error is not None:
        ctx.finish(op, [error])
        return
    try:
        problems = check()
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
    ctx.finish(op, problems)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def op_compare(ctx: Context, tracer=None) -> tuple:
    out = ctx.work / "compare"
    shutil.rmtree(out, ignore_errors=True)  # checks must read this op's output
    dt, code, error = _timed(
        ctx, tracer, "compare",
        lambda: quiet_cli(["compare", "--config", ctx.config, "--out", out]),
    )

    def check():
        problems = oracle.check_compare(code, out, ctx.oracle_total)
        return problems or ctx.digest_problems("compare", oracle.compare_digest(out))

    _checked(ctx, "compare", error, check)
    return dt


def op_solve_full(ctx: Context, tracer=None) -> tuple:
    out = ctx.work / "solve_full.json"
    out.unlink(missing_ok=True)
    dt, code, error = _timed(
        ctx, tracer, "solve-full",
        lambda: quiet_cli(["solve-full", "--config", ctx.config, "--out", out]),
    )

    def check():
        problems = oracle.check_solve_full(code, out, ctx.oracle_total, ctx.hours)
        return problems or ctx.digest_problems("solve-full", oracle.file_digest(out))

    _checked(ctx, "solve-full", error, check)
    return dt


def op_trials(ctx: Context, tracer=None) -> tuple:
    n = TRIALS_PER_BATCH[ctx.workload]
    dt, result, error = _timed(
        ctx, tracer, "trials",
        lambda: tsagg.evaluation.run_theorem_trials(n, seed=ctx.seed),
    )
    _checked(ctx, "trials", error, lambda: oracle.check_trials(result, n))
    return dt


def op_generate(ctx: Context, tracer) -> tuple:
    out = ctx.work / "regenerated"
    shutil.rmtree(out, ignore_errors=True)
    dt, _config, error = _timed(
        ctx, tracer, "generate", lambda: write_instance(ctx.workload, ctx.seed, out)
    )

    def check():
        return [
            f"{name} differs from the set-up instance"
            for name in ("series.csv", "config.json")
            if (out / name).read_bytes() != (ctx.config.parent / name).read_bytes()
        ]

    _checked(ctx, "generate", error, check)
    return dt


def op_plot(ctx: Context, tracer) -> tuple:
    out = ctx.work / "clusters_basis.svg"
    out.unlink(missing_ok=True)
    clusters = ctx.work / "compare" / "clusters_basis.json"
    dt, code, error = _timed(
        ctx, tracer, "plot",
        lambda: quiet_cli(["plot", "--config", ctx.config, "--clusters", clusters,
                           "--out", out]),
    )

    def check():
        if code != 0:
            return [f"plot exited with {code}"]
        return ctx.digest_problems("plot", oracle.file_digest(out))

    _checked(ctx, "plot", error, check)
    return dt


# ---------------------------------------------------------------------------
# set-up and rounds
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tsagg.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> float:
    """Time ``import tsagg.cli`` in a fresh interpreter with this run's env."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def warm_up(seed: int, work: Path) -> None:
    """Touch every code path once on a two-day instance."""
    config = write_instance("warmup", seed, work)
    for argv in (
        ["compare", "--config", config, "--out", work / "compare"],
        ["solve-full", "--config", config],
    ):
        code = quiet_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up tsagg {argv[0]} exited with {code}")
    tsagg.evaluation.run_theorem_trials(WARMUP_TRIALS, seed=seed)


class SetUp:
    """Imports tsagg, writes the instance and warms up; keeps each duration.

    ``setup_s`` is the median of SETUP_REPS set-ups spread evenly over the
    run, each scaled by the gauge: the machine's speed drifts over seconds,
    so set-ups done back to back would all sample the same moment.
    """

    def __init__(self, workload: str, seed: int, work: Path, src: Path,
                 seconds: float, gauge: speed.Gauge):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.src = src
        self.seconds = seconds
        self.gauge = gauge
        self.samples: list[tuple[float, float, float]] = []  # (start, end, wall s)

    def run(self, out: Path) -> Path:
        """Set up once into ``out``; returns the instance's config path."""
        start = time.perf_counter()
        t_import = import_seconds(self.src)
        t0 = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        config = write_instance(self.workload, self.seed, out)
        warm_up(self.seed, self.work / "warmup")
        end = time.perf_counter()
        self.samples.append((start, end, t_import + end - t0))
        self.gauge.take(end - start)
        return config

    def between_rounds(self, elapsed: float) -> None:
        due = len(self.samples) * self.seconds / SETUP_REPS
        if len(self.samples) < SETUP_REPS and elapsed >= due:
            self.run(self.work / "setup-repeat")

    def finish(self) -> None:
        while len(self.samples) < SETUP_REPS:
            self.run(self.work / "setup-repeat")


def make_context(workload: str, seed: int, work: Path, config: Path,
                 gauge: speed.Gauge) -> Context:
    inst = oracle.read_instance(config)
    recorded = load_digests().get(workload, {}).get(str(seed), {})
    return Context(
        workload, seed, work, config,
        oracle_total=float(oracle.merit_order_costs(inst).sum()),
        hours=inst.hours, recorded=recorded, gauge=gauge,
    )


def untraced_round(ctx: Context) -> dict:
    """Timings (start, end, wall seconds) of one round's operations."""
    compare = op_compare(ctx)
    trials = [op_trials(ctx)]
    solve_full = op_solve_full(ctx)
    trials.append(op_trials(ctx))
    return {"compare": compare, "solve_full": solve_full, "trials": trials}


def traced_round(ctx: Context, tracer: Tracer, untraced_first: bool) -> dict:
    """One traced round, plus an untraced compare next to the traced one.

    The two compares run back to back, in alternating order from round to
    round, and both are scaled by the gauge, so drift in machine speed
    cancels out of the tracing overhead.
    """
    first = len(tracer.spans)
    if untraced_first:
        untraced_compare = op_compare(ctx)
    with tracer:
        traced_compare = op_compare(ctx, tracer)
    if not untraced_first:
        untraced_compare = op_compare(ctx)
    with tracer:
        op_generate(ctx, tracer)
        op_solve_full(ctx, tracer)
        op_plot(ctx, tracer)
        op_trials(ctx, tracer)
    spans = tracer.spans[first:]
    op_names = {s[0]: s[3] for s in spans if s[1] < 0}
    simplex_by_op = Counter(op_names[s[2]] for s in spans if s[3] == "_kernels.simplex")
    layers = layer_totals(spans)
    layers["dispatch_model.hours_per_simplex_call"] = hours_per_simplex_call(spans)
    layers["evaluation.run_theorem_trials.accept_ratio"] = trial_accept_ratio(spans)
    return {"layers": layers, "traced": traced_compare, "untraced": untraced_compare,
            "simplex_by_op": dict(simplex_by_op)}


def run_rounds(ctx: Context, seconds: float, one_round, between_rounds) -> list[dict]:
    """Repeat rounds while more than half of the next one fits in ``seconds``.

    A run so ends on average at ``seconds`` and at most half a round after.
    """
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round(ctx))
        between_rounds(time.perf_counter() - start)
        now = time.perf_counter()
        if now + 0.5 * (now - t0) > start + seconds:
            return rounds


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With too few samples for
    that the maximum is returned, marked as percentile 100 with 0 beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def _end_to_end_values(workload, rounds, setups, seconds) -> dict:
    """End-to-end metrics, with ``seconds`` turning a timing into seconds."""
    compare = [seconds(r["compare"]) for r in rounds]
    batches = [seconds(t) for r in rounds for t in r["trials"]]
    return {
        "compare_s": statistics.median(compare),
        "compare_tail_s": tail(compare)[0],
        "solve_full_s": statistics.median(seconds(r["solve_full"]) for r in rounds),
        "trials_per_s": len(batches) * TRIALS_PER_BATCH[workload] / sum(batches),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(seconds(t) for t in setups),
    }


def end_to_end_metrics(workload, rounds, setups, gauge) -> tuple[dict, list[str]]:
    """Metrics from gauge-scaled times, and notes that give the raw ones too."""
    values = _end_to_end_values(workload, rounds, setups, lambda t: gauge.scale(*t))
    raw = _end_to_end_values(workload, rounds, setups, lambda t: t[2])
    n = len(rounds)
    _value, pct, beyond = tail(range(n))
    readings = [s for _t, s in gauge.readings]
    quartiles = statistics.quantiles(readings, n=4)
    notes = [
        f"compare_s: median of {n}",
        f"compare_tail_s: p{pct:.1f} of {n} samples, {beyond} beyond it",
        f"solve_full_s: median of {n}",
        f"trials_per_s: all trials over their time, {2 * n} batches",
        f"setup_s: median of {len(setups)} set-ups",
        f"times are wall times scaled by {speed.REFERENCE_S} s / gauge reading; "
        f"{len(readings)} readings, quartiles {quartiles[0]:.4f} {quartiles[1]:.4f} "
        f"{quartiles[2]:.4f} s",
        "raw wall-time values: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    ]
    return values, notes


def per_layer_metrics(rounds, gauge) -> dict:
    values = {}
    for name in PER_LAYER:
        if name == "tracing.compare_overhead_ms":
            continue
        values[name] = statistics.median(r["layers"].get(name, 0.0) for r in rounds)
    values["tracing.compare_overhead_ms"] = 1e3 * (
        statistics.median(gauge.scale(*r["traced"]) for r in rounds)
        - statistics.median(gauge.scale(*r["untraced"]) for r in rounds)
    )
    return values


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def _git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unknown (not a git checkout)"
    return lines[1]


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(root: Path, pinned: dict) -> dict:
    import numpy

    src_files = sorted((root / "src").rglob("*.py"))
    return {
        "backend": tsagg._kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "thread_env": {key: os.environ.get(key) for key in pinned},
        "os_threads": _os_threads(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def run(args, root: Path, pinned: dict) -> int:
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()

    gauge = speed.Gauge()
    setup = SetUp(args.workload, args.seed, work, root / "src", args.seconds, gauge)
    config = setup.run(work / "instance")
    ctx = make_context(args.workload, args.seed, work, config, gauge)

    tracer = None
    if args.trace:
        tracer = Tracer()
        order = itertools.count()
        rounds = run_rounds(
            ctx, args.seconds,
            lambda c: traced_round(c, tracer, untraced_first=next(order) % 2 == 1),
            setup.between_rounds,
        )
        metrics = per_layer_metrics(rounds, gauge)
        units = PER_LAYER
        notes = [
            f"per-layer values: totals per round, median of {len(rounds)} rounds",
            f"_kernels.simplex.calls by operation: {rounds[0]['simplex_by_op']}",
        ]
    else:
        rounds = run_rounds(ctx, args.seconds, untraced_round, setup.between_rounds)
        setup.finish()
        metrics, notes = end_to_end_metrics(args.workload, rounds, setup.samples, gauge)
        units = END_TO_END

    env = environment(root, pinned)
    failed_frac = ctx.failed / ctx.attempted
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "environment": env, "notes": notes, "problems": ctx.problems,
         "rounds": rounds, "setups": setup.samples, "gauge_readings": gauge.readings,
         **result},
        indent=2,
    ) + "\n")
    if tracer is not None:
        tracer.write_csv(work / "spans.csv.gz")

    for problem in ctx.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"tsbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds in {time.perf_counter() - started:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for name in units:
        print(f"  {name:<46} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<46} {failed_frac:>16.6g} "
          f"({ctx.failed} of {ctx.attempted} operations)")
    for note in notes:
        print(f"  note: {note}")
    if tracer is not None:
        print(f"  spans: {len(tracer.spans)} written to {work / 'spans.csv.gz'}")
    print(json.dumps(result))
    return 0
