"""Benchmark of the reglab CLI: one workload, one seed, one run.

    python3 bench/run.py --workload series --seed 1 --seconds 35 --trace 0

Run it from the repository root (the checkout holding src/reglab).  Every op
is a fresh `python -m reglab.cli ...` process, started only after the
previous one exited.  Each op's output is checked against the output
recorded in bench/reference/.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates plain and traced passes
and reports the per-layer metrics.  Every time in seconds is reported at the
reference machine speed, using a calibration task timed between the ops.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

import harness
import measure
import workloads

SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 5
ALL_MODULES = ("reglab.cli", "reglab.bigreal_periods", "reglab.exact_series",
               "reglab.regulator", "reglab.weierstrass", "reglab.gauss_manin",
               "reglab.elliptic_oracle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _finite(value):
    return value if math.isfinite(value) else None


def _shown(value):
    return "failed" if not math.isfinite(value) else "{:.6g}".format(value)


def _print_metrics(metrics, raw, units, notes):
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        measured = ("  (measured {} s)".format(_shown(raw[name]))
                    if units[name] == "s" else "")
        print("{}  {} {}{}{}".format(name.ljust(width), _shown(value), units[name],
                                     measured, notes.get(name, "")))


def _metrics(spec, passes, setup_times, imports, trace):
    """The run's metrics named in `spec`, from its passes and import times."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    plain_pass_s = measure.median([p.wall_s if p.ok else math.inf for p in plain])
    if trace:
        metrics = measure.median_dicts([measure.pass_layers(p.ops) for p in traced])
        metrics.update(measure.median_dicts([measure.pass_cache(p.ops) for p in plain]))
        metrics.update(imports)
        traced_pass_s = measure.median([p.wall_s for p in traced])
        metrics["trace.overhead_ratio"] = traced_pass_s / plain_pass_s - 1
    else:
        metrics = {"setup_s": measure.median(setup_times)}
        metrics.update(measure.median_dicts([measure.pass_end_to_end(p.ops) for p in plain]))
        metrics["op_s.p50"] = measure.median([r.latency for p in plain for r in p.ops])
        metrics["pass_s"] = plain_pass_s
    return {name: metrics[name] for name, _, _ in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "reglab" / "cli.py").is_file():
        print("error: {} holds no reglab sources; run from the repository root "
              "of a full checkout".format(harness.SRC), file=sys.stderr)
        return 2
    ops = workloads.op_list(args.workload, args.seed)
    references = {}
    for op in ops:
        text = harness.load_reference(op.args)
        if text is None:
            print("error: no reference output for {}; run bench/record_reference.py"
                  .format(" ".join(op.args)), file=sys.stderr)
            return 2
        references[workloads.reference_name(op.args)] = text

    run_start = time.perf_counter()
    load_start = os.getloadavg()
    work_dir = harness.WORK_ROOT / "{}-{}".format(args.workload, os.getpid())
    try:
        work_dir.mkdir(parents=True)
        # importing every module once also leaves their bytecode compiled
        versions = harness.probe_versions(work_dir, ALL_MODULES)
        # half the set-up samples before the passes and half after, so that
        # they see the machine as the ops did
        modules = workloads.SETUP_MODULES[args.workload]
        setup_times = harness.time_imports(modules, SETUP_REPEATS // 2 + 1, work_dir)
        schedule = (False, True) if args.trace else (False,)
        calibration = harness.Calibration()
        passes = harness.run_passes(ops, schedule, args.seconds, references,
                                    work_dir, run_start, calibration)
        setup_times += harness.time_imports(modules, SETUP_REPEATS // 2, work_dir)
        imports = (harness.import_breakdown(modules, IMPORTTIME_REPEATS, work_dir)
                   if args.trace else {})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    load_end = os.getloadavg()

    all_ops = [r for p in passes for r in p.ops]
    failed = [r for r in all_ops if not r.ok]
    for r in failed[:5]:
        print("FAILED {}: {}".format(" ".join(r.args), r.error), file=sys.stderr)
    tail_p, tail_rule = measure.tail_percentile(len(ops))
    spec = measure.PER_LAYER if args.trace else measure.END_TO_END
    units = {name: unit for name, unit, _ in spec}
    raw = _metrics(spec, passes, setup_times, imports, args.trace)
    metrics = measure.at_reference_speed(raw, units, calibration.median())
    notes = {"op_s.tail": "  (P{} of {} ops per pass{})".format(
        tail_p, len(ops), "" if tail_rule else ": under 20 ops, so the median")}

    env = dict(versions, workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, git_sha=harness.git_sha(),
               nproc=os.cpu_count(), loadavg_start=list(load_start),
               loadavg_end=list(load_end), passes=len(passes),
               ops_per_pass=len(ops), tail_percentile=tail_p,
               tail_rule_met=tail_rule, fail_ratio=len(failed) / len(all_ops),
               calibration_s=calibration.median(),
               calibration_samples=len(calibration.samples),
               measured_s={name: _finite(value) for name, value in raw.items()
                           if units[name] == "s"},
               run_s=time.perf_counter() - run_start)
    print("workload {}  seed {}  {} pass(es) of {} ops  fail_ratio {} ({}/{})".format(
        args.workload, args.seed, len(passes), len(ops), env["fail_ratio"],
        len(failed), len(all_ops)))
    print("calibration median {:.4f} s over {} samples; times below are at the "
          "reference speed, where it takes {} s".format(
              calibration.median(), len(calibration.samples),
              measure.REFERENCE_CALIBRATION_S))
    _print_metrics(metrics, raw, units, notes)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": _finite(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
