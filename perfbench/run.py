"""topophase benchmark: drive `topophase.cli.main` on one workload.

    python3 perfbench/run.py --workload {search,oracle,analyze,verify}
                             --seed N --seconds S --trace {0,1} [--size tiny]

Closed loop, one client, one job at a time, all in this process with
`--workers 1`.  Inputs come from the seed and are written before any timed
region.  Passes (one pass = every job of the workload once) repeat while
another pass still fits in S seconds; there is always at least one.  Every
job's output is checked, and every pass must reproduce the first pass's
output byte for byte.

--trace 0 prints the end-to-end metrics, with every time scaled to a
reference host speed by kernels sampled during each job (calibrate.py) and
the wall-time figures in the report line; --trace 1 alternates untraced and
traced passes, prints the per-layer metrics (per pass) and writes the spans
to .perfbench-out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
job passed its check; without the topophase sources next to this directory
the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One job runs at a time, so one BLAS/OpenMP thread (never more than nproc).
BENCH_THREADS = "1"
SETUP_REPEATS = {"full": 7, "tiny": 3}
# Run in a fresh interpreter with the perfbench directory as argv[1]; prints
# the wall time of `import topophase.cli` + `build_parser()` (sampling
# excluded) and that time at reference speed (see calibrate.py).
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibrate\n"
    "with calibrate.Sampler() as sampler:\n"
    "    t = time.perf_counter()\n"
    "    import topophase.cli\n"
    "    topophase.cli.build_parser()\n"
    "    elapsed = time.perf_counter() - t\n"
    "print(elapsed - sampler.handler_s, sampler.scaled(elapsed))\n"
)

# Functions wrapped by the traced run, by defining module.
TRACE_TARGETS = {
    "cli": ("main",),
    "exactlinalg": ("determinant", "kernel_lattice", "solve_rational", "convex_feasible"),
    "balance": ("positive_maximal_kernel", "classify", "irreducibility", "convex_certificate",
                "phase_set", "winding_for_phase", "solve_stabilizer", "analysis_report"),
    "search": ("search_tables", "brute_force_oracle"),
    "states": ("load_state", "weight_matrix", "bipartition_product_check"),
    "stabilizers": ("verify", "apply_local_unitaries"),
}


def _search_args(args, kwargs):
    bound = args[1] if len(args) > 1 else kwargs.get("sum_bound")
    return (args[0], bound)


def _apply_bytes(args, kwargs):
    """Computed, not measured: each of the n single-qubit applies reads and
    writes the 2^n complex128 amplitudes once (2 * 16 * 2^n bytes)."""
    n = len(args[1])
    return n * 2 * 16 * 2 ** n


TRACE_WORK = {"search.search_tables": _search_args,
              "stabilizers.apply_local_unitaries": _apply_bytes}


def percentile(values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def run_job(cli, job, sampler=None):
    """Run one CLI job, inside `sampler` when one is given; returns (seconds,
    output, problem or None).  The output is the exit code, stdout and the
    files the job writes; stderr is left out because Python prints each
    warning only once per process."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err), sampler or nullcontext():
        start = perf_counter()
        try:
            rc = cli.main(job.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed job, not a failed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    files = {}
    for path in job.files:
        try:
            with open(path, "rb") as fh:
                files[path] = fh.read()
        except OSError:
            files[path] = None
    stdout = out.getvalue()
    if error is None:
        try:
            error = job.check(rc, stdout, files)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            error = f"malformed output: {type(exc).__name__}: {exc}"
    if error is not None and err.getvalue().strip():
        error += f" [stderr: {err.getvalue().strip().splitlines()[-1]}]"
    return elapsed, (rc, stdout, files), error


class Loop:
    """Passes over the jobs, with the checks and the byte-identity record."""

    def __init__(self, cli, jobs, memory=None):
        self.cli = cli
        self.jobs = jobs
        self.memory = memory
        self.reference = {}
        self.failures = []
        self.attempted = 0
        self.passes = 0

    def run_pass(self, tracer=None, calibrated=False):
        """Run every job once; returns the jobs' wall times and, when
        `calibrated`, their times at reference speed (else an empty list).
        Wall times leave out the calibration handler's time.  Traced jobs
        are named `<pass>/<job>` in the spans."""
        wall, scaled = [], []
        self.passes += 1
        for job in self.jobs:
            if tracer is not None:
                tracer.start_job(f"{self.passes}/{job.name}")
            sampler = calibrate.Sampler(self.memory) if calibrated else None
            elapsed, output, problem = run_job(self.cli, job, sampler)
            first = self.reference.setdefault(job.name, output)
            if problem is None and output != first:
                problem = "output differs from the first pass" + (" (traced)" if tracer else "")
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{job.name}: {problem}")
            if sampler is None:
                wall.append(elapsed)
            else:
                wall.append(elapsed - sampler.handler_s)
                scaled.append(sampler.scaled(elapsed))
        return wall, scaled


def measure_setup(repeats):
    """Medians of the wall time and the time at reference speed of
    `import topophase.cli` + `build_parser()` in fresh interpreters, after
    one unmeasured start that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=SRC)
    wall, scaled = [], []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, HERE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            elapsed, at_reference = map(float, proc.stdout.split()[-2:])
            wall.append(elapsed)
            scaled.append(at_reference)
    return statistics.median(wall), statistics.median(scaled)


def environment(seed):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "topophase")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BENCH_THREADS,
        "seed": seed,
    }


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _enough(start, passes, seconds):
    """True when another pass of the average length would overrun `seconds`."""
    elapsed = perf_counter() - start
    return elapsed * (passes + 1) / passes > seconds


def untraced_metrics(loop, jobs, seconds, setup_repeats):
    """End-to-end metrics, all times at reference speed.  Each job's time is
    its median across the passes; throughput is the work of one pass over
    the sum of those times, and the latency percentiles run over them (so a
    one-job workload reports that job's median as both p50 and p90).  The
    same figures from wall times go to the report line."""
    setup_wall, setup_s = measure_setup(setup_repeats)
    passes = []
    start = perf_counter()
    while True:
        passes.append(loop.run_pass(calibrated=True))
        if _enough(start, len(passes), seconds):
            break
    items = sum(job.items for job in jobs)

    def figures(times):
        per_job = [statistics.median(job_times) for job_times in zip(*times)]
        return (items / sum(per_job), percentile(per_job, 50) * 1000,
                percentile(per_job, 90) * 1000)

    items_per_s, p50, p90 = figures([scaled for _, scaled in passes])
    wall = figures([wall for wall, _ in passes])
    metrics = {
        "items_per_s": (items_per_s, "1/s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"passes": len(passes), "jobs": loop.attempted,
                     "pass_s": [sum(w) for w, _ in passes],
                     "wall": {"items_per_s": wall[0], "job_p50_ms": wall[1],
                              "job_p90_ms": wall[2], "setup_s": setup_wall}}


def traced_metrics(loop, topophase, seconds, trace_path):
    from tracer import Tracer

    tracer = Tracer(origin=perf_counter())
    plain = traced = 0.0
    start, passes = perf_counter(), 0
    while True:
        plain += sum(loop.run_pass()[0])
        tracer.install(topophase, TRACE_TARGETS, TRACE_WORK)
        try:
            traced += sum(loop.run_pass(tracer)[0])
        finally:
            tracer.uninstall()
        passes += 1
        if _enough(start, passes, seconds):
            break
    tracer.dump(trace_path)

    stats = tracer.stats
    metrics = {}
    for modname, functions in TRACE_TARGETS.items():
        if modname == "cli":
            continue
        for fname in functions:
            s = stats[f"{modname}.{fname}"]
            base = f"{modname}.{fname}"
            metrics[base + ".calls"] = (s.calls / passes, "count")
            metrics[base + ".self_s"] = (s.self_s / passes, "s")
            metrics[base + ".errors"] = (s.errors / passes, "count")
    metrics["cli.self_s"] = (stats["cli.main"].self_s / passes, "s")
    pmk = stats["balance.positive_maximal_kernel"]
    metrics["balance.positive_maximal_kernel.hit_ratio"] = (
        pmk.non_none / pmk.calls if pmk.calls else 0.0, "ratio")
    from workloads import multisets_scanned
    search = stats["search.search_tables"]
    scanned = sum(multisets_scanned(n, bound) for n, bound in search.work)
    metrics["search.us_per_multiset"] = (
        search.self_s / scanned * 1e6 if scanned else 0.0, "us")
    metrics["stabilizers.bytes_moved_computed"] = (
        sum(stats["stabilizers.apply_local_unitaries"].work) / passes, "B")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return metrics, {"passes": passes, "jobs": loop.attempted,
                     "trace_file": os.path.relpath(trace_path, ROOT)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "oracle", "analyze", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-scale run for the self-check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "topophase", "cli.py")):
        sys.stderr.write(f"perfbench: no topophase sources under {SRC}\n")
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BENCH_THREADS
    for var in [v for v in os.environ if v.startswith("TOPOPHASE_")]:
        del os.environ[var]
    sys.path.insert(0, SRC)
    import topophase
    import topophase.cli as cli
    if not os.path.abspath(topophase.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported topophase from {topophase.__file__}\n")
        return 2
    import workloads

    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs, corpus_info = workloads.build(args.workload, args.seed, args.size, workdir)
        memory = calibrate.MemoryKernel() if args.workload in workloads.MEMORY_BOUND else None
        loop = Loop(cli, jobs, memory)
        if args.trace:
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}-{args.size}.json")
            metrics, run_info = traced_metrics(loop, topophase, args.seconds, trace_path)
        else:
            metrics, run_info = untraced_metrics(loop, jobs, args.seconds,
                                                 SETUP_REPEATS[args.size])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    for problem in loop.failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")
    report = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "item_unit": workloads.ITEM_UNITS[args.workload],
        "failed_ratio": failed / loop.attempted,
        **run_info,
        "corpus": corpus_info,
        "env": environment(args.seed),
    }
    print(json.dumps(report, sort_keys=True))
    print(f"{'failed_ratio':<48} {failed / loop.attempted!r:>24} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
