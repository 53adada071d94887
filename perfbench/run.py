"""Benchmark of the ``shear`` command line, from the root of a checkout.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json.
setup_s and peak_rss_mb are medians over three fresh processes: each is
timed from its start to the end of its warm-up, then runs one pass (the
first, second and third) and reports its peak resident memory.  With
``--trace 1`` it prints the per-layer metrics of a traced run and writes
its spans to ``.perfbench_out/spans-<workload>.jsonl``.  The last line of stdout is
the result object; the line before it holds the run's details and the
environment record.  The exit code is 0 when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3                 # fresh processes timing set-up and memory
DEADLINE_S = 170.0         # the whole run, so that it ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("SHEARLAB_TOL", None)     # the relation tolerance stays default
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(time.time()), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next benchmark process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[key]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "shearlab" / "__init__.py").is_file():
        print(f"error: no shearlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            spans = Path(".perfbench_out") / f"spans-{args.workload}.jsonl"
            res = run_worker("trace", args, deadline, ("--spans", str(spans)))
            values = res["per_layer"]
            specs = metric_specs("per_layer")
            missing = []    # a layer with no calls reads 0
        else:
            probes = [run_worker("setup", args, deadline, ("--pass", str(k)))
                      for k in range(SETUPS)]
            res = run_worker("measure", args, deadline)
            values = dict(res["end_to_end"])
            res["detail"]["unscaled_setup_s"] = [p["unscaled_setup_s"]
                                                 for p in probes]
            for name in ("setup_s", "peak_rss_mb"):
                res["detail"][name] = [p[name] for p in probes]
                values[name] = statistics.median(res["detail"][name])
            specs = metric_specs("end_to_end")
            missing = [s["name"] for s in specs if s["name"] not in values]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {s["name"]: {"value": values.get(s["name"], 0),
                           "unit": s["unit"]} for s in specs}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": res["env"], "detail": res["detail"]}))
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
