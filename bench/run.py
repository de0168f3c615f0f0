"""quivhom benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run one workload (the form BENCHMARK.json names):

    python3 bench/run.py --workload feat-deep --seed 1 --seconds 20 --trace 0

or every workload, untraced and traced, each in a fresh process:

    python3 bench/run.py

A run generates its inputs from --seed and writes them to files, times
set-up (importing quivhom plus loading the inputs) several times, then
repeats the workload's CLI job, in this process and on one thread, until
--seconds have passed. Every job's output goes through the workload's gate.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it print
every metric by name with its unit, and the machine and input sizes. A full
record, and with --trace 1 the spans, go to bench/results/.

The run exits 1 when an output check fails and 2 when quivhom cannot be
imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
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
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

from tracing import LAYER_SPANS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, sha256  # noqa: E402

# Set-up is timed this many times per run and reported as the median. On
# the feature workloads it is tens of milliseconds, where one slow import
# or page-cache miss moves a single sample by a third; on fas-large it is
# about a second of parsing and steady. The median of five absorbs the
# outliers on the small workloads.
SETUP_REPEATS = 5


def import_quivhom():
    """Import quivhom and its CLI afresh from src/, dropping cached modules.

    Raises ImportError unless the package comes from this checkout."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    for name in [m for m in sys.modules if m == "quivhom" or m.startswith("quivhom.")]:
        del sys.modules[name]
    cli = importlib.import_module("quivhom.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC_DIR + os.sep):
        raise ImportError(f"quivhom was imported from {cli.__file__}, not {SRC_DIR}")
    return sys.modules["quivhom"], cli


def timed_setups(workload) -> tuple[list[float], object, object]:
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        lib, cli = import_quivhom()
        workload.load_inputs(lib.load_weighted_edges)
        times.append(perf_counter() - start)
    return times, lib, cli


def repeat(job, seconds: float) -> list:
    """Run job() back to back until `seconds` have passed (at least once).

    A job whose outputs equal the first job's keeps a reference to the
    first job's copy, so the outputs kept for the gate do not grow the
    process's peak RSS with the number of repetitions."""
    jobs = []
    start = perf_counter()
    while not jobs or perf_counter() - start < seconds:
        gc.collect()
        jobs.append(job())
        if jobs[-1].outputs == jobs[0].outputs:
            jobs[-1].outputs = jobs[0].outputs
    return jobs


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond it."""
    return math.floor(100 * (n - 10) / n) if n >= 20 else None


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def gate(workload, lib, jobs, traced=()) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the jobs. Every job's outputs go
    through the workload's check, identical outputs once; every traced
    recomposition must reproduce the first job's outputs."""
    failed, problems = 0, []
    checked: dict[str, int] = {}
    for job in jobs:
        digest = job.digest()
        if digest not in checked:
            checked[digest], why = workload.check(job, lib)
            problems += why
        failed += checked[digest]
    if len(checked) > 1:
        problems.append(f"{len(checked)} different outputs across repeated jobs")
    for job in traced:
        diff = workload.diff_ops(jobs[0], job)
        if diff:
            failed += diff
            problems.append(f"traced recomposition differs in {diff} {workload.op} outputs")
    return workload.ops * (len(jobs) + len(traced)), failed, problems


def end_to_end(workload, jobs, setups) -> dict:
    job_s = statistics.median(j.seconds for j in jobs)
    return {
        "job_s": (job_s, "s"),
        "items_per_s": (workload.items / job_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def describe(workload, jobs, metrics, attempted, failed) -> list[str]:
    """Human-readable lines: the metrics under the names used in the
    benchmark's documentation, with units and sample counts."""
    lines = []
    times = [j.seconds for j in jobs]
    calls = [c for j in jobs for c in j.call_seconds]
    tail = tail_percentile(len(times))
    lines.append(f"job_s median {statistics.median(times):.4f} s over {len(times)} jobs"
                 + (f", p{tail} {percentile(times, tail):.4f} s" if tail else ""))
    if len(calls) > len(times):
        tail = tail_percentile(len(calls))
        lines.append(f"dag_p50_ms {1000 * statistics.median(calls):.3f} ms, "
                     f"dag_p90_ms {1000 * percentile(calls, 90):.3f} ms"
                     + (f", dag_p{tail}_ms {1000 * percentile(calls, tail):.3f} ms"
                        if tail else "") + f" over {len(calls)} DAG calls")
    rate = metrics.get("items_per_s")
    if rate:
        lines.append(f"{workload.item}s_per_s {rate[0]:.6g} 1/s")
    lines.append(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
                 f"{workload.op} operations)")
    return lines


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        import_quivhom()
    except ImportError as exc:
        print(f"error: cannot import quivhom from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR)
    try:
        workload.generate(args.seed, args.scale, workdir)
        setups, lib, cli = timed_setups(workload)
        if args.trace:
            untraced = repeat(lambda: workload.run_job(cli.main), args.seconds / 2)
            tracers: list[Tracer] = []

            def traced():
                tracers.append(Tracer())
                return workload.traced_job(lib, tracers[-1])

            traced_jobs = repeat(traced, args.seconds / 2)
            attempted, failed, problems = gate(workload, lib, untraced, traced_jobs)
            middle = sorted(range(len(traced_jobs)), key=lambda i: traced_jobs[i].seconds)
            pick = middle[len(middle) // 2]
            tracer, traced_s = tracers[pick], traced_jobs[pick].seconds
            metrics = tracer.layer_metrics()
            untraced_s = statistics.median(j.seconds for j in untraced)
            metrics["trace.job_s"] = (traced_s, "s")
            metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
            jobs = untraced
        else:
            jobs = repeat(lambda: workload.run_job(cli.main), args.seconds)
            attempted, failed, problems = gate(workload, lib, jobs)
            metrics = end_to_end(workload, jobs, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "machine": machine(), "sizes": workload.sizes,
        "setup_s": setups, "job_s": [j.seconds for j in jobs],
        "output_sha256": sha256(b"".join(jobs[0].outputs)),
        "correct": failed == 0 and not problems, "attempted": attempted,
        "failed": failed, "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = os.path.join(RESULTS_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print("machine " + json.dumps(record["machine"]))
    print("sizes " + json.dumps(workload.sizes))
    for line in problems[:20]:
        print(f"FAIL {line}")
    if not args.trace:
        for line in describe(workload, jobs, metrics, attempted, failed):
            print(line)
    else:
        layers = sum(metrics[f"{name}_s"][0] for name in LAYER_SPANS)
        print(f"coverage: layer self time {layers:.4f} s + bench.self_s "
              f"{metrics['bench.self_s'][0]:.4f} s = traced job_s {traced_s:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": record["correct"], "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", str(args.scale)]
            rc = subprocess.run(argv, check=False).returncode
            print(f"== {name} trace {trace}: exit {rc}", flush=True)
            worst = max(worst, rc)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 for smoke runs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
