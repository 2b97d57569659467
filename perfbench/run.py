"""stopcc benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in fresh worker processes and prints its metrics, one per
line, then a final JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
``--trace 1`` the per-layer ones from a traced run. ``--workload all`` runs
every workload untraced, then traced. See perfbench/README.md for what each
workload and metric means.

It must be started from a checkout that holds ``src/stopcc``; without it, it
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from worker import REF_CALIBRATION_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("blind_curve", "greedy_ktree", "tail_prefix", "exact_small")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# set-up is measured in this many fresh processes per untraced run: the
# measuring process, and set-up-only processes before and after it, so that
# a slow spell of the machine meets few of them; the median is reported
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    # the shell must not change the load: threads are passed explicitly
    env.pop("STOPCC_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # every process compiles stopcc alike, whether or not a cache exists
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload, seed, mode, seconds=0.0, tiny=False, spans_out=None,
          timeout=CHILD_TIMEOUT_S, threads=None):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
            "--threads", str(threads or nproc())]
    if tiny:
        argv.append("--tiny")
    if spans_out:
        argv += ["--spans-out", str(spans_out)]
    argv += ["--spawned", repr(time.time())]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {workload}/{mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed, tiny):
    import importlib.metadata as md

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "sizes": "tiny" if tiny else "full",
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Metrics of one run of one workload, as the final JSON line holds them,
    plus the raw worker results."""
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        spans = OUT_DIR / f"spans-{workload}.npz"
        main = spawn(workload, seed, "trace", seconds, tiny, spans_out=spans)
        metrics = main["layers"]
        setups = [main]
    else:
        def setup_only(count):
            return [spawn(workload, seed, "setup", tiny=tiny, timeout=60) for _ in range(count)]

        setups = setup_only(SETUP_SAMPLES // 2)
        main = spawn(workload, seed, "measure", seconds, tiny)
        setups += [main] + setup_only(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
        values = {
            "wall_s": median(main["passes_ref"]),
            "setup_s": median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, tiny),
        "setup_samples": [
            {k: s[k] for k in ("setup_s", "setup_calibration_s", "setup_ref_s")} for s in setups
        ],
        "worker": main,
    }
    with open(OUT_DIR / f"result-{workload}-trace{int(trace)}-seed{seed}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return metrics, record


def report(workload, metrics, record, trace):
    """Human-readable lines: every metric with its unit and sample count."""
    main = record["worker"]
    print(f"== {workload} ({'traced' if trace else 'untraced'}); "
          f"threads passed: {main['threads_passed']}")
    passes = len(main["passes"])
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':40s} {main['failed'] / main['attempted']:.6g} "
          f"({main['failed']} of {main['attempted']} operations)")
    if trace:
        print(f"(traced passes: {len(main['traced_passes'])}, untraced passes: {passes}; "
              f"run_strategy percentiles over "
              f"{metrics['strategies.run_strategy_samples']['value']} calls)")
    else:
        setups = record["setup_samples"]
        print(f"{'raw wall_s (unscaled, unbounded)':40s} {median(main['passes']):.6g} s")
        print(f"{'raw setup_s (unscaled, unbounded)':40s} "
              f"{median(s['setup_s'] for s in setups):.6g} s")
        print(f"{'calibration loop (median of passes)':40s} "
              f"{median(main['calibrations']):.6g} s")
        print(f"(times scaled to a {REF_CALIBRATION_S} s calibration loop; wall_s: median "
              f"of {passes} passes; setup_s: median of {SETUP_SAMPLES} processes)")
    for failure in main["failures"][:20]:
        print(f"FAILED {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check sizes; no stored references apply")
    args = parser.parse_args()

    if not (ROOT / "src" / "stopcc" / "__init__.py").is_file():
        print(f"perfbench: no stopcc source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    print(json.dumps({"provenance": provenance(args.seed, args.tiny)}))
    metrics, attempted, failed = {}, 0, 0
    for workload, trace in runs:
        values, record = run_workload(workload, args.seed, args.seconds, trace, args.tiny)
        report(workload, values, record, trace)
        main = record["worker"]
        attempted += main["attempted"]
        failed += main["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
