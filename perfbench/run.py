"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload descend_groups --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --list

Run from the root of a checkout.  Each pass over the job list runs in a
worker process of its own (``worker.py``) that imports the library from
``src/``; the passes run one after the other, at least MIN_PASSES of them
and more while another still fits in ``--seconds``.  With ``--trace 1`` one
untraced pass is followed by one traced pass, and the per-layer metrics come
from the traced one.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it describes the run (machine, passes, raw times, tail percentile).

Times are corrected for the machine's speed.  The worker times a fixed
calibration loop before its set-up, before the first job and after each job;
the set-up's and each job's raw time is multiplied by REFERENCE_CALIBRATION_S
over the mean of the two samples on either side of it.  On a shared virtual
machine whose speed changes by 40% within seconds, this keeps a figure
comparable between runs; the raw pass times are in the info line.

Exits with 2, printing no result, when the checkout has no library to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MIN_PASSES = 3
DEADLINE_S = 170.0
# worker.calibrate's time on the machine the benchmark was built on, in its
# fast state; a corrected time is the time the job would take at that speed
REFERENCE_CALIBRATION_S = 0.0015
# job runs beyond the tail percentile after MIN_PASSES passes
TAIL_BEYOND = 10


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def machine():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def print_metric_list(spec):
    m = machine()
    print(f"machine: python {m['python']}, nproc {m['nproc']}, {m['platform']}")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better")


def run_pass(args, deadline, trace):
    """One worker process, one pass; its report with the times corrected."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    cal = out["calibration_s"]
    speed = [2 * REFERENCE_CALIBRATION_S / (a + b) for a, b in zip(cal, cal[1:])]
    out["setup_s"] *= speed[0]
    out["raw_job_s"] = out["job_s"]
    out["job_s"] = [t * f for t, f in zip(out["job_s"], speed[1:])]
    return out


def tail(times, jobs_per_pass):
    """The job time at the tail percentile of all job runs, and that percentile.

    The percentile is the highest one with TAIL_BEYOND job runs beyond it
    after MIN_PASSES passes; more passes put more runs beyond it, but do not
    move it.  With fewer runs than that (the smoke lists) it is the slowest run.
    """
    xs = sorted(times)
    runs = MIN_PASSES * jobs_per_pass
    if runs <= TAIL_BEYOND:
        return xs[-1], 100.0
    beyond = len(xs) * TAIL_BEYOND // runs
    return xs[len(xs) - beyond - 1], 100.0 * (1 - TAIL_BEYOND / runs)


def end_to_end(passes):
    job_s = [t for p in passes for t in p["job_s"]]
    walls = [sum(p["job_s"]) for p in passes]
    wall_s = statistics.median(walls)
    tail_s, tail_pct = tail(job_s, len(passes[0]["jobs"]))
    # each job's mean over the passes, so that the median job does not jump
    # between two jobs' runs; with few passes a mean is steadier than a median
    per_job = [statistics.fmean(ts) for ts in zip(*(p["job_s"] for p in passes))]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": wall_s,
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "jobs_per_s": len(passes[0]["jobs"]) / wall_s,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    info = {"tail_percentile": tail_pct, "job_runs": len(job_s),
            "pass_walls_s": walls}
    return metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="isodescent benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the workload's smallest job list")
    p.add_argument("--list", action="store_true",
                   help="print every metric by name and unit, and exit")
    args = p.parse_args(argv)

    if args.list:
        print_metric_list(load_spec())
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "isodescent", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "bundles")):
        sys.stderr.write(f"error: no isodescent sources under {ROOT}\n")
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    passes = []
    try:
        if args.trace:
            passes = [run_pass(args, deadline, 0), run_pass(args, deadline, 1)]
        else:
            while True:
                passes.append(run_pass(args, deadline, 0))
                elapsed = time.monotonic() - started
                if len(passes) >= MIN_PASSES and \
                        elapsed + elapsed / len(passes) > args.seconds:
                    break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    info = {"workload": args.workload, "seed": args.seed, "machine": machine(),
            "passes": len(passes), "jobs_per_pass": len(passes[0]["jobs"]),
            "raw_pass_walls_s": [sum(p["raw_job_s"]) for p in passes],
            "calibration_medians_s": [statistics.median(p["calibration_s"]) for p in passes]}
    if args.trace:
        base, traced = passes
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_ratio"] = sum(traced["job_s"]) / sum(base["job_s"])
        info["span_file"] = traced["span_file"]
        wanted = spec["per_layer"]
    else:
        metrics, more = end_to_end(passes)
        info.update(more, setup_samples_s=[p["setup_s"] for p in passes])
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"error: no value for {missing}\n")
        return 1
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
