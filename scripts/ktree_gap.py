"""Print the k-tree gap tables, next to the paper's limit k^k/(k+1)^(k+1).

    PYTHONPATH=src python3 scripts/ktree_gap.py

The first table sets the optimal full-information value per vertex (subset
DP) against the best blind threshold per vertex, on small random k-trees:
V*/n comes from `stopcc run --ktree K --n N --seed S --mode dp --strategy dp`
for each seed. The second sets the best blind threshold per vertex against
greedy's Monte Carlo value per vertex, with its 99% confidence interval, on
large random k-trees: `stopcc run --ktree K --n N --seed 1 --mode mc --reps
1000 --strategy greedy`. Best blind/n comes from
strategies.blind_optimal_threshold, which does not depend on the seed because
every k-tree of a size has the same blind expectation.
"""

import contextlib
import io
import json
from fractions import Fraction

from stopcc import cli, strategies

KS = (1, 2, 3)
NS = (12, 16, 20)
SEEDS = (1, 2, 3)
GREEDY_NS = (10**3, 10**4)
GREEDY_SEED = 1
GREEDY_REPS = 1000


def run_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"stopcc {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())["results"][0]


def dp_per_vertex(k, n, seed):
    return run_result(["run", "--ktree", str(k), "--n", str(n), "--seed", str(seed),
                       "--mode", "dp", "--strategy", "dp"])["per_vertex"]


def greedy_per_vertex(k, n):
    """Greedy's Monte Carlo mean per vertex and its 99% CI."""
    result = run_result(["run", "--ktree", str(k), "--n", str(n),
                         "--seed", str(GREEDY_SEED), "--mode", "mc",
                         "--reps", str(GREEDY_REPS), "--strategy", "greedy"])
    return result["mean"] / n, result["ci_low"] / n, result["ci_high"] / n


def blind_per_vertex(k, n):
    _, blind = strategies.blind_optimal_threshold("ktree", n, k=k)
    return float(blind) / n


def limit(k):
    return float(Fraction(k**k, (k + 1) ** (k + 1)))


def main():
    print(f"| k | n | V*/n, seeds {', '.join(map(str, SEEDS))} | best blind/n | gap | limit |")
    print("|---|---|---|---|---|---|")
    for k in KS:
        for n in NS:
            dp = [dp_per_vertex(k, n, seed) for seed in SEEDS]
            blind = blind_per_vertex(k, n)
            cells = ", ".join(f"{v:.4f}" for v in dp)
            gap = f"{min(dp) - blind:.4f}–{max(dp) - blind:.4f}"
            print(f"| {k} | {n} | {cells} | {blind:.4f} | {gap} | {limit(k):.4f} |")
    print()
    print("| k | n | best blind/n | greedy/n | greedy/n, 99% CI | limit |")
    print("|---|---|---|---|---|---|")
    for k in KS:
        for n in GREEDY_NS:
            mean, low, high = greedy_per_vertex(k, n)
            print(f"| {k} | {n} | {blind_per_vertex(k, n):.5f} | {mean:.5f} "
                  f"| {low:.5f}–{high:.5f} | {limit(k):.5f} |")


if __name__ == "__main__":
    main()
