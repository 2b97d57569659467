"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/record_reference.py

Runs one pass of every workload for each of the seeds 0-15 on one thread,
so that a run on more threads also checks thread-count invariance. Outputs
that do not depend on the seed are stored once, under "any". Regenerate only when a
change is meant to alter the program's outputs, and say so in its notes:
the benchmark counts every differing output as a failed operation.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, spawn

SEEDS = range(16)


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS as DEFINITIONS

    reference = {}
    for workload in WORKLOADS:
        seeded = {name: s for name, s, _ in DEFINITIONS[workload].ops()}
        entry = reference[workload] = {"any": {}, "seeds": {}}
        for seed in SEEDS:
            outputs = spawn(workload, seed, "record", threads=1)
            for name, out in outputs.items():
                if "error" in out:
                    raise SystemExit(f"{workload} seed {seed}: {name} failed: {out}")
                if seeded[name]:
                    entry["seeds"].setdefault(str(seed), {})[name] = out
                elif entry["any"].setdefault(name, out) != out:
                    raise SystemExit(f"{workload}: {name} depends on the seed")
            print(f"{workload} seed {seed} recorded", file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
