"""Print the k-tree gap table: the optimal full-information value per
vertex (subset DP) against the best blind threshold per vertex, on random
k-trees, next to the paper's limit k^k/(k+1)^(k+1).

    PYTHONPATH=src python3 scripts/ktree_gap.py

V*/n comes from `stopcc run --ktree K --n N --seed S --mode dp --strategy dp`
for each seed; best blind/n from strategies.blind_optimal_threshold, which
does not depend on the seed because every k-tree of a size has the same
blind expectation.
"""

import contextlib
import io
import json
from fractions import Fraction

from stopcc import cli, strategies

KS = (1, 2, 3)
NS = (12, 16, 20)
SEEDS = (1, 2, 3)


def dp_per_vertex(k, n, seed):
    out = io.StringIO()
    argv = ["run", "--ktree", str(k), "--n", str(n), "--seed", str(seed),
            "--mode", "dp", "--strategy", "dp"]
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"stopcc {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())["results"][0]["per_vertex"]


def main():
    print(f"| k | n | V*/n, seeds {', '.join(map(str, SEEDS))} | best blind/n | gap | limit |")
    print("|---|---|---|---|---|---|")
    for k in KS:
        limit = Fraction(k**k, (k + 1) ** (k + 1))
        for n in NS:
            dp = [dp_per_vertex(k, n, seed) for seed in SEEDS]
            _, blind = strategies.blind_optimal_threshold("ktree", n, k=k)
            blind = float(blind) / n
            cells = ", ".join(f"{v:.4f}" for v in dp)
            gap = f"{min(dp) - blind:.4f}–{max(dp) - blind:.4f}"
            print(f"| {k} | {n} | {cells} | {blind:.4f} | {gap} | {float(limit):.4f} |")


if __name__ == "__main__":
    main()
