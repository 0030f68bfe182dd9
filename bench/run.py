"""Benchmark of mub-eve: paper curves, attack verification across d, Monte Carlo oracle.

    python3 bench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory. Everything runs in this one process, as a closed loop with
one job in flight. A job is a fixed list of ``mub_eve.cli.main(argv)`` calls
(see workloads.py); every output is checked. Timing starts after an untimed
warm-up of WARMUP_S seconds, which outlasts the slow start of BLAS in a
process started on an idle machine.

The job time reported is the sum over the job's operations of each one's
fastest time in the run: the machine's speed alternates between phases about
1.5x apart within seconds, so the median job moves with the share of slow
phases in a run, while each operation's fastest time repeats within a few
percent (see README.md, "Stability").

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced jobs and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import Checker, Output

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WARMUP_S = 3.0
SETUP_CHILDREN = 8
TAIL_SAMPLES = 10
LAYER_TIMES = ("bases", "attack", "information", "optimize", "simulate", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up once, print it in seconds and exit")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import mub_eve and build the job. Returns (import s, set-up s, cli, job)."""
    start = time.perf_counter()
    from mub_eve import cli

    imported = time.perf_counter()
    job = workloads.make_job(workload, seed, OUT_DIR)
    return imported - start, time.perf_counter() - start, cli, job


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(cli, op) -> Output | None:
    """One operation; None if it raised or exited with a non-zero code."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        return None
    if rc != 0:
        print(f"operation failed with exit code {rc}: {' '.join(op.argv)}", file=sys.stderr)
        return None
    return Output(buf.getvalue(), b"")


def run_job(cli, job):
    """Run the job's operations in turn. Returns (seconds of each operation, outputs)."""
    times, outputs = [], []
    for op in job:
        start = time.perf_counter()
        outputs.append(run_op(cli, op))
        times.append(time.perf_counter() - start)
    return times, outputs


class Run:
    """Counts operations and check failures over a run."""

    def __init__(self, job):
        self.job = job
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.bytes_written = 0

    def check(self, outputs, counted: bool) -> None:
        """Read each operation's file, check every output that did not fail."""
        self.bytes_written = 0
        for i, (op, out) in enumerate(zip(self.job, outputs)):
            if counted:
                self.attempted += 1
            if out is None:
                self.failed += counted
                continue
            if op.out is not None:
                out = outputs[i] = Output(out.stdout, op.out.read_bytes())
            self.bytes_written += len(out.stdout.encode("utf-8")) + len(out.data)
            fails = self.checker.check(op, out)
            if fails:
                self.check_failures += 1
                print(f"check failed {fails}: {' '.join(op.argv)}", file=sys.stderr)

    def self_test(self, outputs) -> bool:
        """Feed every check corrupted copies of good outputs; each must fail."""
        missed = tried = 0
        for op, out in zip(self.job, outputs):
            if out is None:
                continue
            for name, bad in workloads.corruptions(op, out):
                tried += 1
                if name not in self.checker.check(op, bad):
                    missed += 1
                    print(f"self-test: check {name} passed a corrupted output of "
                          f"{' '.join(op.argv)}", file=sys.stderr)
        print(f"self-test: {tried - missed} of {tried} corrupted outputs rejected")
        return tried > 0 and missed == 0


def warm_up(cli, run: Run):
    start = time.perf_counter()
    outputs = None
    while outputs is None or time.perf_counter() - start < WARMUP_S:
        _, outputs = run_job(cli, run.job)
        run.check(outputs, counted=False)
    return outputs


def tail_percentile(latencies):
    """Highest of a few standard percentiles with at least TAIL_SAMPLES samples beyond it."""
    n = len(latencies)
    qs = statistics.quantiles(latencies, n=1000, method="inclusive") if n >= 2 else []
    best = None
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            best = (p, qs[int(round(p * 10)) - 1])
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed(cli, run: Run, args, setup_s: float):
    """Jobs for args.seconds of job time, with a set-up in a child process at
    the start of each of SETUP_CHILDREN equal parts of it, so that the set-ups
    sample the machine's phases over the whole run."""
    op_times = [[] for _ in run.job]
    latencies = []
    setups = [setup_s]
    spent = 0.0
    while not latencies or spent < args.seconds:
        if len(setups) <= SETUP_CHILDREN and spent >= (len(setups) - 1) * args.seconds / SETUP_CHILDREN:
            setups.append(setup_in_child(args.workload, args.seed))
        times, outputs = run_job(cli, run.job)
        for samples, t in zip(op_times, times):
            samples.append(t)
        latencies.append(sum(times))
        spent += latencies[-1]
        run.check(outputs, counted=True)
    metrics = {
        "job_best_ms": (sum(min(samples) for samples in op_times) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    tail = tail_percentile(latencies)
    tail_text = (f"p{tail[0]:g} {tail[1] * 1e3:.3f} ms" if tail else "no tail percentile")
    print(f"{args.workload}: {len(latencies)} jobs, job latency p50 {statistics.median(latencies) * 1e3:.3f} ms, "
          f"{tail_text} (n={len(latencies)}, at least {TAIL_SAMPLES} beyond); "
          f"{len(setups)} set-ups")
    return metrics


def traced(cli, run: Run, args, import_s: float):
    """Alternate untraced and traced jobs; per-layer metrics from the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain, jobs = [], []
    spent = 0.0
    while not jobs or spent < args.seconds:
        times, outputs = run_job(cli, run.job)
        plain.append(sum(times))
        run.check(outputs, counted=True)
        tracer.reset()
        tracer.install()
        try:
            times, outputs = run_job(cli, run.job)
        finally:
            tracer.uninstall()
        run.check(outputs, counted=True)
        jobs.append(job_layers(tracer, sum(times), run.bytes_written))
        spent += plain[-1] + sum(times)
    last_spans = tracer.spans
    peak_alloc = traced_allocation(cli, run)

    counts = [k for k in jobs[0] if k.endswith((".calls", ".evals", "bytes_written", "_bytes", ".pairs", ".cells"))]
    repeat = all(job[k] == jobs[0][k] for job in jobs for k in counts)
    if not repeat:
        print("counts differ between traced jobs", file=sys.stderr)
    mean = {k: statistics.fmean(job[k] for job in jobs) for k in jobs[0]}

    def ms(key):  # mean self time per job, ns -> ms
        return mean.get(key, 0.0) / 1e6

    def per_s(work, key):  # work per second of a span's self time
        return work / (mean[key] / 1e9) if mean.get(key) else 0.0

    metrics = {f"{layer}.self_ms": (ms(layer), "ms") for layer in LAYER_TIMES}
    for name in ("attack.scalar_product_profile", "attack.build_eve_states", "attack.build_isometry",
                 "attack.disturbance_per_state", "optimize.critical_disturbance", "simulate.resolve_w",
                 "simulate.outcome_distribution", "simulate.simulate", "simulate.compare_to_analytic",
                 "simulate.to_dict"):
        metrics[f"{name}.self_ms"] = (ms(name), "ms")
    for name in ("bases.protocol_bases", "attack.disturbance_per_state", "information.i_ae",
                 "optimize.maximize_w", "optimize.i_ae_optimal"):
        metrics[f"{name}.calls"] = (jobs[0][f"{name}.calls"], "count")
    metrics["optimize.golden_section_maximize.evals"] = (jobs[0]["optimize.golden_section_maximize.evals"], "count")
    metrics["attack.scalar_product_profile.pairs_per_s"] = (
        per_s(mean["attack.scalar_product_profile.pairs"], "attack.scalar_product_profile"), "1/s")
    metrics["attack.isometry_mb"] = (jobs[0]["attack.isometry_bytes"] / 1e6, "MB")
    i_ae_calls = jobs[0]["information.i_ae.calls"]
    metrics["information.us_per_i_ae"] = (ms("information") * 1e3 / i_ae_calls if i_ae_calls else 0.0, "us")
    metrics["simulate.outcome_distribution.peak_alloc_mb"] = (peak_alloc / 1e6, "MB")
    metrics["simulate.cells_per_s"] = (per_s(mean["simulate.cells"], "simulate.simulate"), "1/s")
    metrics["cli.bytes_written"] = (jobs[0]["cli.bytes_written"], "bytes")
    metrics["setup.import_ms"] = (import_s * 1e3, "ms")
    metrics["trace.job_ms"] = (mean["job"] / 1e6, "ms")
    metrics["trace.unattributed_ms"] = ((mean["job"] - sum(mean[layer] for layer in LAYER_TIMES)) / 1e6, "ms")
    plain_p50 = statistics.median(plain)
    metrics["trace.overhead_pct"] = ((statistics.median(j["job"] for j in jobs) / 1e9 - plain_p50) / plain_p50 * 100, "%")
    write_spans(args.workload, last_spans)
    return metrics, repeat


def job_layers(tracer, latency: float, bytes_written: int) -> dict:
    """Per-job self times (ns) by layer and by function, and the counts."""
    row = {"job": latency * 1e9, "cli.bytes_written": bytes_written}
    for layer in LAYER_TIMES:
        row[layer] = 0
    for name, (self_ns, calls) in tracer.totals.items():
        row[name] = self_ns
        row[f"{name}.calls"] = calls
        row[name.split(".")[0]] += self_ns
    row["optimize.golden_section_maximize.evals"] = tracer.calls_under(
        "information.i_ae", "optimize.golden_section_maximize")
    row.update(tracer.counters)
    return row


def traced_allocation(cli, run: Run) -> int:
    """Largest tracemalloc peak of one outcome_distribution call in a job, in its own pass."""
    import importlib
    import tracemalloc

    # The package re-exports the function simulate under the module's name.
    sim = importlib.import_module("mub_eve.simulate")

    original = sim.outcome_distribution
    peaks = [0]

    def measured(*a, **kw):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*a, **kw)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    sim.outcome_distribution = measured
    tracemalloc.start()
    try:
        _, outputs = run_job(cli, run.job)
    finally:
        tracemalloc.stop()
        sim.outcome_distribution = original
    run.check(outputs, counted=True)
    return max(peaks)


def write_spans(workload: str, spans) -> None:
    """The spans of the last traced job, one JSON array per line."""
    path = OUT_DIR / f"{workload}-spans.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mub_eve" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'mub_eve'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    import_s, setup_s, cli, job = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    run = Run(job)
    outputs = warm_up(cli, run)
    self_test_ok = run.self_test(outputs)
    if args.trace == 0:
        metrics, counts_repeat = timed(cli, run, args, setup_s), True
    else:
        metrics, counts_repeat = traced(cli, run, args, import_s)
    correct = self_test_ok and counts_repeat and run.check_failures == 0
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"  operations attempted {run.attempted}, failed {run.failed}; "
          f"outputs checked: {'all correct' if correct else 'NOT correct'}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
