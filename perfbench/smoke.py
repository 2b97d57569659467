"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at tiny sizes, untraced and traced, and asserts
that each run reports no failed operation and emits exactly the metrics that
BENCHMARK.json names for its mode, each with its unit. Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list"
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} trace={trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
            assert result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {proc.stdout}"
            assert result["correct"] is True, label
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == wanted[trace], f"{label}: metrics {units}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name}"
            print(f"ok {label}: {result['attempted']} operations, fail_ratio 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
