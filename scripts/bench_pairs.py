"""Run the benchmark in parent/change pairs and write a BENCH_*.json record.

    python3 scripts/bench_pairs.py --parent <rev> --seeds 0 1 2 ... \
        [--workloads blind_curve tail_prefix ...] [--claim blind_curve:wall_s] \
        [--unseen-seed 11] --out BENCH_x.json

For every seed and workload it runs ``perfbench/run.py --trace 0`` twice, back
to back: once on the committed files of <rev>, extracted with ``git archive``,
and once on the working tree's files (tracked and untracked, not ignored).
Both sides are copied into sibling directories under one temporary directory
(``$TMPDIR``), so that neither reads bytecode caches or results left in the
repository: with ``src/stopcc/__pycache__`` present, about half of the
``exact_small`` runs peaked 8 MB higher. The parent runs first on
even-indexed seeds and the working tree on odd ones. Run length is the
benchmark's own ``run_seconds`` from BENCHMARK.json. Each run's metrics are
read from the final JSON line that run.py prints, and its provenance from
``.perfbench/result-<w>-trace0-seed<s>.json``; nothing is written in the
repository except the record.

The record holds, per workload and side, every run and the median and
quartiles of each end-to-end metric, with operations attempted and failed.
Per workload and metric it also gives the no-regression verdict, with the
metric's ``bound`` read as a fraction of the parent's median: "worse beyond
bound" when the change's median is worse than the parent's by more than the
bound, otherwise "unresolved" when the parent's interquartile range exceeds
the bound, otherwise "within bound"; every change run better than every
parent run is "within bound" whatever the spread.
With ``--claim W:METRIC`` it also lists the pairs of that metric and says
whether the claim is met: the working tree better in at least nine tenths of
the pairs, ties counting for neither, and the medians apart by more than the
parent's interquartile range.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def git(*argv, text=True):
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=text,
                          check=True).stdout


def extract(rev, into):
    """The committed files of rev under `into`; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit, text=False))) as tar:
        tar.extractall(into, filter="data")
    return commit


def copy_working_tree(into):
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_once(root, workload, seed):
    """Metrics, attempted and failed counts, and provenance of one run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    # no bytecode cache is written, so that every run compiles alike
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} in {root} exited with {proc.returncode}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    result = root / ".perfbench" / f"result-{workload}-trace0-seed{seed}.json"
    provenance = json.loads(result.read_text())["provenance"]
    values = {name: m["value"] for name, m in final["metrics"].items()}
    return values, final["attempted"], final["failed"], provenance


def summary(runs, unit):
    q1, _, q3 = quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"unit": unit, "median": round(median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def better(metric, a, b):
    """True iff value a is better than value b."""
    return a < b if METRICS[metric]["better"] == "lower" else a > b


def verdict(metric, parent, change):
    """Whether the change holds metric within its bound of the parent, from
    the two sides' summaries."""
    if all(better(metric, c, p) for c in change["runs"] for p in parent["runs"]):
        return "within bound"
    limit = METRICS[metric]["bound"] * parent["median"]
    worse_by = change["median"] - parent["median"]
    if METRICS[metric]["better"] != "lower":
        worse_by = -worse_by
    if worse_by > limit:
        return "worse beyond bound"
    if parent["q3"] - parent["q1"] > limit:
        return "unresolved"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--unseen-seed", type=int,
                        help="a seed not used while the change was written")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in args.workloads or claim_metric not in METRICS:
            parser.error(f"--claim {args.claim}: expected one of the workloads run and "
                         f"one of {sorted(METRICS)}")

    sides = ("parent", "change")
    # runs[workload][side] = list of (seed, values, attempted, failed)
    runs = {w: {side: [] for side in sides} for w in args.workloads}
    hosts = set()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in sides}
        commit = extract(args.parent, roots["parent"])
        copy_working_tree(roots["change"])
        for index, seed in enumerate(args.seeds):
            for workload in args.workloads:
                for side in (sides if index % 2 == 0 else sides[::-1]):
                    values, attempted, failed, prov = run_once(roots[side], workload, seed)
                    runs[workload][side].append((seed, values, attempted, failed))
                    hosts.add((prov["nproc"], prov["python"], prov["numpy"], prov["scipy"]))
                    print(f"seed {seed} {workload} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in values.items())
                          + f" failed={failed}/{attempted}", file=sys.stderr)
    if len(hosts) != 1:
        raise SystemExit(f"the runs saw different hosts or versions: {sorted(hosts)}")
    cores, python, numpy, scipy = hosts.pop()

    record = {
        "what": "perfbench end-to-end medians at the parent commit and with this change, "
                f"seeds {args.seeds[0]}-{args.seeds[-1]} on "
                + ", ".join(args.workloads)
                + (f"; claimed gain: {claim_workload} {claim_metric}" if args.claim else ""),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {BENCHMARK['run_seconds']} --trace 0",
        "seeds": args.seeds,
        "order": "per seed and workload, both sides back to back; parent first on "
                 "even-indexed seeds, change first on odd-indexed seeds",
        "host": {"cores": cores, "python": python, "numpy": numpy, "scipy": scipy},
        "parent_commit": commit,
        "workloads": {},
    }
    for workload, by_side in runs.items():
        entry = {}
        for side, side_runs in by_side.items():
            entry[side] = {"attempted": sum(r[2] for r in side_runs),
                           "failed": sum(r[3] for r in side_runs)}
            for name, metric in METRICS.items():
                entry[side][name] = summary([r[1][name] for r in side_runs], metric["unit"])
        entry["change_over_parent_median"] = {
            name: round(entry["change"][name]["median"] / entry["parent"][name]["median"], 3)
            for name in METRICS}
        entry["verdict"] = {name: verdict(name, entry["parent"][name], entry["change"][name])
                            for name in METRICS}
        record["workloads"][workload] = entry
    if args.claim:
        by_side = runs[claim_workload]
        pairs = [{"seed": p[0], "parent": round(p[1][claim_metric], 4),
                  "change": round(c[1][claim_metric], 4),
                  "parent_failed": p[3], "change_failed": c[3]}
                 for p, c in zip(by_side["parent"], by_side["change"])]
        parent = record["workloads"][claim_workload]["parent"][claim_metric]
        change = record["workloads"][claim_workload]["change"][claim_metric]
        wins = sum(better(claim_metric, p["change"], p["parent"]) for p in pairs)
        iqr = round(parent["q3"] - parent["q1"], 4)
        record[f"claim_{claim_workload}_{claim_metric}"] = {
            "seeds": args.seeds,
            "unseen_seed": args.unseen_seed,
            "pairs": pairs,
            "change_wins": wins,
            "parent_median": parent["median"],
            "change_median": change["median"],
            "parent_iqr": iqr,
            "change_over_parent_median": round(change["median"] / parent["median"], 3),
            "met": (10 * wins >= 9 * len(pairs)
                    and better(claim_metric, change["median"], parent["median"])
                    and abs(change["median"] - parent["median"]) > iqr
                    and sum(p["change_failed"] for p in pairs)
                    <= sum(p["parent_failed"] for p in pairs)),
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
