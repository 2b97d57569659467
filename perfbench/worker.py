"""One benchmark process: set up a workload, run timed passes, check every
output, and print one JSON result line. ``run.py`` starts it; it is not
meant to be run by hand.

Modes:
  setup    build the instances, report set-up time and a host calibration,
           exit
  measure  set-up, then untraced passes for the time budget, each between
           two runs of the host calibration loop
  trace    set-up, untraced passes for half the budget, then traced passes
           for the other half; reports per-layer metrics and the overhead
  record   one untraced pass; prints the outputs for reference.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Processor speed on a shared host swings by up to 1.7x between minutes, and
# a process's CPU time swings with it, so raw pass times of the same code
# spread more between runs than any useful regression bound. A fixed loop
# that does not touch stopcc, timed just before and just after every pass,
# measures that speed. The end-to-end times are scaled to the speed at which
# the loop takes REF_CALIBRATION_S, a round figure near its time on a 2.0 GHz
# x86-64 vCPU.
REF_CALIBRATION_S = 0.04


def _import_stopcc():
    sys.path.insert(0, str(ROOT / "src"))
    import stopcc

    origin = Path(stopcc.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"stopcc imported from {origin}, not from {ROOT / 'src'}")


def run_pass(workload, ctx):
    """Every operation once, in order. Returns (seconds, {op: output}); an
    operation that raises gets an ``error`` output."""
    ctx.carry.clear()
    outputs = {}
    start = time.perf_counter()
    for name, _, fn in workload.ops():
        try:
            outputs[name] = fn(ctx)
        except Exception as e:  # counted as a failed operation, run goes on
            traceback.print_exc(file=sys.stderr)
            outputs[name] = {"error": f"{type(e).__name__}: {e}"}
    return time.perf_counter() - start, outputs


def calibration_s():
    """Time of a fixed mix of interpreter, Fraction and numpy work that does
    not depend on stopcc."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    frac = Fraction(0)
    for i in range(1, 3000):
        frac += Fraction(1, i % 97 + 1)
    # small arrays, so that the loop does not raise the peak memory
    values = np.random.default_rng(0).random(50_000)
    for _ in range(12):
        np.sort(values)
    for _ in range(3):
        table = {}
        for i in range(20_000):
            table[i] = i
    return time.perf_counter() - start


def timed_passes(workload, ctx, budget, on_pass=None):
    """Passes until the next one would end after ``budget`` seconds; at
    least one. Returns the pass times, the calibration times around them
    (one more than passes) and the passes' outputs."""
    times, calibrations, outputs = [], [calibration_s()], []
    start = time.perf_counter()
    while True:
        if on_pass is not None:
            on_pass(len(times))
        seconds, out = run_pass(workload, ctx)
        times.append(seconds)
        calibrations.append(calibration_s())
        outputs.append(out)
        if time.perf_counter() - start + median(times) > budget:
            return times, calibrations, outputs


def reference_times(times, calibrations):
    """Each pass time scaled to the reference speed by the mean of the two
    calibrations around it."""
    return [t * 2 * REF_CALIBRATION_S / (before + after)
            for t, before, after in zip(times, calibrations, calibrations[1:])]


def check_passes(workload, ctx, passes, reference):
    """Failure messages, one per failed operation of each pass."""
    from workloads import CheckFailed

    names = [name for name, _, _ in workload.ops()]
    expected = dict(reference.get("any", {}))
    expected.update(reference.get("seeds", {}).get(str(ctx.seed), {}))
    first = passes[0]
    cross = {}
    try:
        workload.cross_check(ctx, {k: v for k, v in first.items() if "error" not in v})
    except CheckFailed as e:
        # a cross-check names no single operation: fail them all
        cross = {name: f"cross-check: {e}" for name in first}
    failures = []
    for index, outputs in enumerate(passes):
        for name in names:
            out = outputs.get(name, {"error": "not run"})
            if "error" in out:
                reason = out["error"]
            elif name in cross:
                reason = cross[name]
            elif name in expected and out != expected[name]:
                reason = f"differs from reference {expected[name]}: {out}"
            elif out != first[name]:
                reason = f"differs from the first pass: {out}"
            else:
                continue
            failures.append(f"{name}@pass{index}: {reason}")
    return failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace", "record"], required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="epoch time at which the parent started this process")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    _import_stopcc()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL
    ctx = workloads.Context(args.seed, size, args.threads)
    workload.setup(ctx)
    result = {
        "setup_s": time.time() - args.spawned,
        "threads_passed": {"timed": workloads.TIMED_THREADS, "invariance_check": args.threads},
    }
    # taken after the set-up time, so that it is not part of it
    result["setup_calibration_s"] = median(calibration_s() for _ in range(3))
    result["setup_ref_s"] = result["setup_s"] * REF_CALIBRATION_S / result["setup_calibration_s"]
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    if args.mode == "record":
        _, outputs = run_pass(workload, ctx)
        print(json.dumps({name: outputs[name] for name, _, _ in workload.ops()}))
        return 0

    budget = args.seconds / 2 if args.mode == "trace" else args.seconds
    times, calibrations, passes = timed_passes(workload, ctx, budget)
    result["passes"] = times
    result["calibrations"] = calibrations
    result["passes_ref"] = reference_times(times, calibrations)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.mode == "trace":
        from tracing import SETUP_RUN, Tracer, instrument, layer_metrics, measure_dp_peaks

        tracer = Tracer()
        instrument(tracer)
        tracer.run_id = SETUP_RUN
        workload.setup(ctx)

        def start_pass(index):
            tracer.run_id = index

        traced_times, _, traced = timed_passes(workload, ctx, budget, start_pass)
        tracer.enabled = False
        measure_dp_peaks(tracer)
        passes += traced
        result["traced_passes"] = traced_times
        result["layers"] = layer_metrics(tracer, traced_times, times)
        if args.spans_out:
            tracer.save(args.spans_out)

    reference = {}
    if not args.tiny:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh).get(args.workload, {})
    failures = check_passes(workload, ctx, passes, reference)
    result["attempted"] = len(passes) * len(workload.ops())
    result["failed"] = len(failures)
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
