"""One pass over a workload's job list, in a process of its own.

Started by ``run.py`` once per pass, so that every pass starts cold, as a
one-shot command does: no cache of the library survives from an earlier
pass.  Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload descend_groups --seed 0 --trace 0 \
        [--smoke] [--record-sha256]

Set-up is timed from the start of the process through the library import and
the workload generation (with its ``make_descriptor`` calls).  Before the
set-up, before the first job and after each job the worker times
``calibrate``, a fixed loop that does not touch the library; ``run.py`` uses
the samples on either side of the set-up or a job to take out the machine's
speed.  With ``--trace 1`` the tracer is installed before the set-up and the pass
reports the per-layer metrics.  ``--record-sha256`` writes the sha256 of
every report's result block to ``expected_sha256.json`` instead of checking
against it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction


def calibrate():
    """Time a fixed loop of about 2 ms: the machine's current speed.

    Fraction arithmetic on growing big integers, like the library's own hot
    paths: over a slow stretch of the machine it slows down as the library
    does, which a loop on small ints only partly does.  The garbage collector
    is off meanwhile, so the loop's time does not grow with whatever the
    library left in memory.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i, i + 2) + Fraction(1, i)
    elapsed = time.perf_counter() - t
    if was_enabled:
        gc.enable()
    return elapsed


_CAL0 = calibrate()
_T0 = time.perf_counter()  # set-up time counts from here, before the library import

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_SHA256 = os.path.join(HERE, "expected_sha256.json")
# block-group inputs change with the seed; their hashes are recorded for this one
RECORDED_SEED = 0
MODULES = ("cli", "counterexamples", "cyclotomic", "descent", "exactfield",
           "finitefield", "forms", "lattice", "linalg", "localring")


def run_pass(jobs, tracer=None):
    """Run every job once; returns (per-job seconds, calibration seconds, failures).

    The calibration loop runs before the first job and after every job, so
    each job has a sample on either side.
    """
    perf = time.perf_counter
    times, cals, outs = [], [calibrate()], []
    for job in jobs:
        t = perf()
        try:
            out = tracer.run_job(job.name, job.run) if tracer else job.run()
            err = None
        except Exception as exc:  # a job that raises is counted as failed
            out, err = None, exc
        times.append(perf() - t)
        cals.append(calibrate())
        outs.append((out, err))
    if tracer:
        tracer.set_phase("checks")
    failures = []
    for job, (out, err) in zip(jobs, outs):
        try:
            problems = [f"raised {err!r}"] if err else job.check(out)
        except Exception as exc:  # a check that cannot read the output fails the job
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append((job.name, problems))
    return times, cals, failures


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass

FE = "exactfield.FieldElement."
RE = "finitefield.ResidueElement."
ARITH_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__")
ISOMETRY = ("forms.GramForm.is_isometry", "forms.ResidueForm.is_isometry",
            "forms.AssembledForm.is_isometry")


def _mark_inverse_read(tracer, lat):
    if not lat.__dict__.get("_bench_inverse_read"):
        lat._bench_inverse_read = True
        tracer.count["lattice.inverse_read"] += 1


def _max_bits(tracer, args, out):
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in out)
    if bits > tracer.count["cyclotomic.max_coeff_bits"]:
        tracer.count["cyclotomic.max_coeff_bits"] = bits


def add_hooks(tracer):
    for name in ("lattice.Lattice.transition_from", "lattice.Lattice.contains_vector",
                 "lattice.Lattice.contains_lattice"):
        tracer.hook(name, pre=lambda tr, args: _mark_inverse_read(tr, args[0]))
    tracer.hook("descent.rigidity_check",
                pre=lambda tr, args: _mark_inverse_read(tr, args[1]))

    def memo(tr, args):
        tr.count["valuation.memo_hits"] += args[0]._val is not None
    tracer.hook(FE + "valuation", pre=memo)

    def certified(tr, args, out):
        tr.count["analyze.certified"] += out is not None
    tracer.hook("localring.LambdaEngine.analyze", post=certified)
    tracer.hook("cyclotomic.CycloRing.mul", post=_max_bits)
    tracer.hook("cyclotomic.CycloRing.inv", post=_max_bits)

    def elements(tr, args, out):
        tr.count["descent.GroupRep.elements"] += len(args[0].elements)
    tracer.hook("descent.GroupRep", post=elements)

    def steps(tr, args, out):
        tr.count["descent.balance.steps"] += out.steps
    tracer.hook("descent.balance", post=steps)

    def examined(tr, args, out):
        tr.count["counterexamples.examined"] += out.examined
    for name in ("no_invariant_symmetric_form", "verify_prop5", "verify_prop6"):
        tracer.hook(f"counterexamples.{name}", post=examined)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    S = lambda *names: tr.self_s(names)
    C = lambda *names: tr.calls(names)
    cnt = tr.counters["jobs"]
    arith = [FE + op for op in ARITH_OPS]
    residue_arith = [RE + op for op in ARITH_OPS]
    return {
        "cli.load_bundle.self_s": S("cli.load_bundle"),
        "cli.cmd_descend.self_s": S("cli.cmd_descend"),
        "cli.cmd_verify.self_s": S("cli.cmd_verify"),
        "descent.GroupRep.self_s": S("descent.GroupRep"),
        "descent.GroupRep.elements": cnt["descent.GroupRep.elements"],
        "descent.balance.self_s": S("descent.balance"),
        "descent.balance.steps": cnt["descent.balance.steps"],
        "descent.descend.self_s": S("descent.descend"),
        "descent.rigidity_check.calls": C("descent.rigidity_check"),
        "forms.is_isometry.calls": C(*ISOMETRY),
        "forms.is_isometry.self_s": S(*ISOMETRY),
        "forms.reduce_bar.self_s": S("forms.reduce_bar"),
        "forms.reduce_tilde.self_s": S("forms.reduce_tilde"),
        "forms.dual.self_s": S("forms.GramForm.dual"),
        "lattice.Lattice.calls": C("lattice.Lattice"),
        "lattice.Lattice.self_s": S("lattice.Lattice"),
        "lattice.inverse_used_ratio": _ratio(cnt["lattice.inverse_read"],
                                             C("lattice.Lattice")),
        "lattice.snf.calls": C("lattice.snf"),
        "lattice.snf.self_s": S("lattice.snf"),
        "lattice.lattice_sum.self_s": S("lattice.lattice_sum"),
        "lattice.lattice_intersect.self_s": S("lattice.lattice_intersect"),
        "lattice.stabilize.self_s": S("lattice.stabilize"),
        "linalg.mat_mul.calls": C("linalg.mat_mul"),
        "linalg.mat_mul.self_s": S("linalg.mat_mul"),
        "linalg.solve.calls": C("linalg.solve"),
        "linalg.solve.self_s": S("linalg.solve"),
        "linalg.charpoly.calls": C("linalg.charpoly"),
        "linalg.charpoly.self_s": S("linalg.charpoly"),
        "linalg.det.self_s": S("linalg.det"),
        # set-up builds descriptors too, and setup_s is the metric this moves
        "exactfield.make_descriptor.self_s": (tr.self_s(["exactfield.make_descriptor"], "setup")
                                              + S("exactfield.make_descriptor")),
        "exactfield.arith.calls": C(*arith),
        "exactfield.arith.self_s": S(*arith),
        "exactfield.valuation.calls": C(FE + "valuation"),
        "exactfield.valuation.self_s": S(FE + "valuation"),
        "exactfield.valuation.memo_hit_ratio": _ratio(cnt["valuation.memo_hits"],
                                                      C(FE + "valuation")),
        "exactfield.reduce.calls": C(FE + "reduce"),
        "exactfield.reduce.self_s": S(FE + "reduce"),
        "localring.analyze.calls": C("localring.LambdaEngine.analyze"),
        "localring.analyze.self_s": S("localring.LambdaEngine.analyze"),
        "localring.analyze.certified_ratio": _ratio(cnt["analyze.certified"],
                                                    C("localring.LambdaEngine.analyze")),
        "cyclotomic.mul.calls": C("cyclotomic.CycloRing.mul"),
        "cyclotomic.mul.self_s": S("cyclotomic.CycloRing.mul"),
        "cyclotomic.inv.calls": C("cyclotomic.CycloRing.inv"),
        "cyclotomic.inv.self_s": S("cyclotomic.CycloRing.inv"),
        "cyclotomic.max_coeff_bits": cnt["cyclotomic.max_coeff_bits"],
        "finitefield.residue_arith.calls": C(*residue_arith),
        "finitefield.residue_arith.self_s": S(*residue_arith),
        "finitefield.fp_kernel.self_s": S("finitefield.fp_kernel"),
        "counterexamples.no_invariant_symmetric_form.self_s":
            S("counterexamples.no_invariant_symmetric_form"),
        "counterexamples.verify_prop5.self_s": S("counterexamples.verify_prop5"),
        "counterexamples.verify_prop6.self_s": S("counterexamples.verify_prop6"),
        "counterexamples.examined": cnt["counterexamples.examined"],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-sha256", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import isodescent
    if not os.path.abspath(isodescent.__file__).startswith(src + os.sep):
        raise SystemExit(f"isodescent imported from {isodescent.__file__}, not {src}")
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        add_hooks(tracer)
        modules = {name: importlib.import_module(f"isodescent.{name}") for name in MODULES}
        tracer.install(modules, rebind=(isodescent, workloads))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, ROOT, tmpdir, args.smoke)
        setup_s = time.perf_counter() - _T0
        if not args.record_sha256:
            with open(EXPECTED_SHA256) as fh:
                recorded = json.load(fh).get(args.workload, {})
            for job in jobs:
                if isinstance(job, workloads.CliJob) and (
                        job.fixed_input or args.seed == RECORDED_SEED):
                    job.expected_sha256 = recorded.get(job.name, "not recorded")
        if tracer:
            tracer.set_phase("jobs")
        times, cals, failures = run_pass(jobs, tracer)
        if args.record_sha256:
            _record(args.workload, jobs)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for name, problems in failures[:20]:
        sys.stderr.write(f"FAILED {name}: {'; '.join(problems)}\n")
    report = {
        "setup_s": setup_s,
        "jobs": [job.name for job in jobs],
        "job_s": times,
        "calibration_s": [_CAL0] + cals,
        "attempted": len(jobs),
        "failed": len(failures),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        path = os.path.join(out_dir, f"spans_{args.workload}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "job_s": dict(zip(report["jobs"], times))})
        report["metrics"] = layer_metrics(tracer)
        report["span_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(report))
    return 0


def _record(workload, jobs):
    with open(EXPECTED_SHA256) as fh:
        recorded = json.load(fh)
    recorded[workload] = {job.name: job.result_sha256 for job in jobs
                          if job.result_sha256 is not None}
    with open(EXPECTED_SHA256, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
