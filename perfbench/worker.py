"""One benchmark process: set up, run timed passes, check, report.

Started by run.py with BLAS/OpenMP threads pinned to 1 and ``src`` on
PYTHONPATH.  Modes:

* ``setup``: imports, input generation and warm-up, then print setup_s;
  then run the pass ``--pass`` once and print the peak resident memory.
* ``measure``: set up, run untraced passes for the given seconds, check
  every report, print the end-to-end metrics.
* ``trace``: set up, run each pass untraced and then traced, check that
  both write identical reports, print the per-layer metrics and write
  the spans as JSON lines.

Passes run in turn until the given seconds have passed, each at least
twice (a repeat shows whether the report bytes repeat) and at least
MIN_JOB_SAMPLES jobs in all.  Every command of a job runs through ``shearlab.cli.main`` in
this process, with stdout and stderr captured.  Before each pass the
library's lru caches are cleared, because every ``shear`` command runs
in a fresh process and never sees the previous pass's entries.  The
last line printed is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import oracle
import reference
import workloads
from run import THREAD_VARS

MODULES = ("cli", "report", "surface", "pants", "decomposition", "spiralling",
           "chains", "cusped", "constants", "geom")
MIN_JOB_SAMPLES = 100     # so that ten jobs lie beyond the tail percentile
MAX_PASS_SECONDS = 100.0  # stop repeating after this, so that a run ends in time
TAIL_PERCENTILE = 90.0    # the highest that MIN_JOB_SAMPLES supports
SPAN_JOBS = 12            # jobs of the first traced pass whose spans are logged
FAILURE_KINDS = ("pants_relation", "tree_gluing", "other", "chain_build",
                 "cusp_sum")


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def lru_caches(modules):
    seen = {}
    for mod in modules:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                seen[id(obj)] = obj
    return list(seen.values())


def run_pass(cli, jobs, caches, tracer=None, span_jobs=0):
    """Time per job, and (exit code, report text) per command."""
    gc.collect()
    for cache in caches:
        cache.cache_clear()
    times, outputs = [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.op, tracer.keep = i, i < span_jobs
        t0 = perf_counter()
        results = [call_cli(cli, cmd.argv) for cmd in job]
        times.append(perf_counter() - t0)
        outputs += results
    return times, outputs


def schedule(passes, seconds, min_rounds):
    """Pass indices in turn until time is up and min_rounds are done.

    A seed that draws many of the slow fan-search failures can make
    min_rounds take minutes; then the rounds stop at MAX_PASS_SECONDS and
    the passes not yet repeated are reported as such.
    """
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (i >= min_rounds * len(passes)
                                   or elapsed >= MAX_PASS_SECONDS):
            return
        yield i % len(passes)
        i += 1


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def environment():
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Runs:
    """First outputs per pass, and the passes whose repeats differed."""

    def __init__(self, passes):
        self.passes = passes
        self.first = {}           # pass index -> (digests, outputs)
        self.repeated = set()
        self.mismatch = set()

    def record(self, p, outputs):
        dig = [(rc, hashlib.sha256(text.encode()).hexdigest())
               for rc, text in outputs]
        if p not in self.first:
            self.first[p] = (dig, outputs)
            return
        self.repeated.add(p)
        if dig != self.first[p][0]:
            self.mismatch.add(p)

    def check(self):
        """Oracle outcome per pass index that ran, and their total."""
        per_pass, whole = {}, oracle.Outcome()
        for p in sorted(self.first):
            jobs, out = self.passes[p], oracle.Outcome()
            cmds = [cmd for job in jobs for cmd in job]
            for cmd, (rc, text) in zip(cmds, self.first[p][1]):
                try:
                    out.add(oracle.check(cmd, rc, text))
                except (KeyError, TypeError, ValueError) as err:
                    out.problems.append(f"{cmd.kind} {cmd.argv}: unreadable "
                                        f"report ({type(err).__name__}: {err})")
            per_pass[p] = out
            whole.add(out)
        return per_pass, whole

    def bytes_per_pass(self):
        return statistics.median(sum(len(text.encode()) for _, text in out)
                                 for _, out in self.first.values())


def measure(cli, passes, caches, seconds):
    """Pass and job times, scaled by the reference loop around each pass."""
    runs = Runs(passes)
    execs = []                # (pass index, scaled job times)
    raw_s, ref_s = [], [reference.seconds()]
    jobs_per_round = sum(len(jobs) for jobs in passes)
    rounds = max(2, math.ceil(MIN_JOB_SAMPLES / jobs_per_round))
    for p in schedule(passes, seconds, rounds):
        times, outputs = run_pass(cli, passes[p], caches)
        ref_s.append(reference.seconds())
        scale = reference.NOMINAL_S / ((ref_s[-2] + ref_s[-1]) / 2.0)
        runs.record(p, outputs)
        execs.append((p, [t * scale for t in times]))
        raw_s.append(sum(times))
    _, outcome = runs.check()
    if runs.mismatch:
        outcome.problems.append(f"passes {sorted(runs.mismatch)} wrote other "
                                f"reports when repeated")

    pass_s = [sum(times) for _, times in execs]
    job_s = [t for _, times in execs for t in times]
    wall = statistics.median(pass_s)
    ok = outcome.attempted - outcome.failed
    metrics = {
        "wall_s": wall,
        "ops_per_s": ok / len(passes) / wall,
        "pants_per_s": outcome.pants_done / len(passes) / wall,
        "success_share": ok / outcome.attempted,
        "job_ms.p50": 1000.0 * percentile(job_s, 50.0),
        "job_ms.tail": 1000.0 * percentile(job_s, TAIL_PERCENTILE),
        "best_shear_ratio": statistics.fmean(
            best / start if start else 1.0 for best, start in outcome.max_shears),
    }
    q1, _, q3 = statistics.quantiles(pass_s, n=4)
    detail = {
        "passes": len(passes), "pass_runs": len(execs),
        "passes_not_repeated": len(passes) - len(runs.repeated),
        "wall_s": {"q1": q1, "median": metrics["wall_s"], "q3": q3,
                   "n": len(pass_s), "unscaled_median": statistics.median(raw_s),
                   "reference_median_s": statistics.median(ref_s)},
        "job_ms": {"p50": metrics["job_ms.p50"], "tail": metrics["job_ms.tail"],
                   "tail_percentile": TAIL_PERCENTILE, "n": len(job_s)},
        "ops": {"attempted": outcome.attempted, "failed": outcome.failed,
                "failures": dict(outcome.failures)},
    }
    return outcome, {"end_to_end": metrics, "detail": detail}


def trace(cli, passes, caches, seconds, modules, spans_path):
    from spans import Tracer
    tracer = Tracer(modules)
    runs = Runs(passes)
    overhead, counts = [], []     # per traced pass run
    for p in schedule(passes, seconds, 1):
        plain, outputs = run_pass(cli, passes[p], caches)
        runs.record(p, outputs)
        tracer.install()
        try:
            traced, outputs = run_pass(cli, passes[p], caches, tracer=tracer,
                                       span_jobs=0 if counts else SPAN_JOBS)
        finally:
            tracer.uninstall()
        runs.record(p, outputs)
        overhead.append(sum(traced) / sum(plain) - 1.0)
        counts.append((p, *tracer.take_counts()))
    per_pass, outcome = runs.check()
    if runs.mismatch:
        outcome.problems.append(f"traced passes {sorted(runs.mismatch)} wrote "
                                f"other reports than untraced ones")

    layers = {}
    for name in sorted({name for _, calls, _ in counts for name in calls}):
        layers[f"{name}.calls"] = statistics.median(
            calls.get(name, 0) for _, calls, _ in counts)
        layers[f"{name}.self_ms"] = statistics.median(
            1000.0 * self_s.get(name, 0.0) for _, _, self_s in counts)
    flip_calls = sum(calls.get("cusped.flip", 0) for _, calls, _ in counts)
    accepted = sum(per_pass[p].accepted_flips for p, _, _ in counts)
    layers["cusped.flip.accept_ratio"] = (accepted / flip_calls
                                          if flip_calls else 0.0)
    for kind in FAILURE_KINDS:
        layers[f"report.failures.{kind}"] = outcome.failures.get(kind, 0)
    layers["failure_share"] = outcome.failed / outcome.attempted
    layers["best_max_shear"] = statistics.fmean(b for b, _ in outcome.max_shears)
    layers["report.bytes_written"] = runs.bytes_per_pass()
    layers["trace.overhead_share"] = statistics.median(overhead)
    if spans_path:
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans_path)
    detail = {"passes": len(passes), "pass_runs": len(counts),
              "passes_not_traced": len(passes) - len(runs.repeated),
              "spans_logged": len(tracer.spans),
              "ops": {"attempted": outcome.attempted, "failed": outcome.failed,
                      "failures": dict(outcome.failures)}}
    return outcome, {"per_layer": layers, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time the parent started this process")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0,
                    help="setup mode: the pass run for peak memory")
    args = ap.parse_args(argv)
    if args.mode == "setup":                      # not part of set-up time
        t_ref = time.time()
        reference.seconds()                       # its first run is slower
        ref_before = reference.median_seconds()
        t_ref = time.time() - t_ref

    modules = [importlib.import_module(f"shearlab.{m}") for m in MODULES]
    cli = modules[0]
    root = Path.cwd().resolve()
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"shearlab imported from {cli.__file__}, "
                           f"not from {root / 'src'}")
    caches = lru_caches(modules)
    workdir = Path(".perfbench_work") / f"{args.workload}-{os.getpid()}"
    try:
        passes = workloads.build(args.workload, args.seed, workdir)
        run_pass(cli, passes[0][:1], caches)      # warm-up: the first job
        setup_s = time.time() - args.t0
        if args.mode == "setup":
            setup_s -= t_ref
            ref = (ref_before + reference.median_seconds()) / 2.0
            run_pass(cli, passes[args.pass_index % len(passes)], caches)
            result = {"setup_s": setup_s * reference.NOMINAL_S / ref,
                      "unscaled_setup_s": setup_s,
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        else:
            result = {}
            if args.mode == "measure":
                outcome, found = measure(cli, passes, caches, args.seconds)
            else:
                outcome, found = trace(cli, passes, caches, args.seconds,
                                       modules, args.spans)
            result.update(found, attempted=outcome.attempted,
                          failed=outcome.failed, problems=outcome.problems,
                          env=environment())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
