"""The benchmark's workloads, each a scaled-down experiment driven through
stopcc's public entry points: ``stopcc.cli.main`` for the CLI scenarios and
the ``montecarlo`` API for the experiments the CLI does not expose.

A workload builds its instances once (set-up), then runs a fixed list of
operations per pass. Every operation returns a canonical output: exact
rationals as strings, floats as ``float.hex``. The worker compares outputs
with the stored reference for the seed, across passes, and with the
workload's own cross-checks, which need no stored data.

Calls go through module attributes (``montecarlo.blind_value_scan``, not a
name imported from it) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np

from stopcc import cli, exact, graphs, montecarlo, strategies

# A pass takes one to four seconds, so that a run's median is taken over
# many passes. grid_epsilon puts the grid's tail threshold at the median
# component count of its half-prefix (measured over seeds 0-15), so that the
# tail mean depends on the exact counts; the forest's threshold sits at its
# mean count with epsilon 0.
FULL = {
    "tsps_n": 100_000, "scan_reps": 2, "compare_reps": 2,
    "ktree_n": 10_000, "greedy_reps": 8,
    "tree_n": 10_000, "tree_reps": 1000, "grid_side": 300, "grid_reps": 4,
    "grid_epsilon": "0.2178",
    "dp_path_n": 20, "dp_grid_side": 4, "dp_exact_path_n": 12,
    "exact_tree_n": 7, "scan_n": 10_000,
}
# smoke-check sizes: every operation and check runs, in about a second each
TINY = {
    "tsps_n": 2000, "scan_reps": 4, "compare_reps": 2,
    "ktree_n": 300, "greedy_reps": 4,
    "tree_n": 1000, "tree_reps": 100, "grid_side": 30, "grid_reps": 4,
    "grid_epsilon": "0.202",
    "dp_path_n": 12, "dp_grid_side": 3, "dp_exact_path_n": 8,
    "exact_tree_n": 6, "scan_n": 200,
}

TWO_PHASE = (Fraction(1, 3), Fraction(1, 2))
# blind_curve's comparison uses acceptance 12's pre-registered seed, not
# --seed: a two-phase replication costs half as much again when a trigger
# vertex arrives by t_alpha, and with two replications that coin flip would
# otherwise dominate the spread of wall_s across seeds. Replication 1 of
# this seed is triggered and replication 0 is not, so both paths run.
COMPARE_SEED = 202
# Timed CLI calls run on one thread. On two shared vCPUs the two-thread pool
# ran from no slower to 60% slower than one thread, depending on the host's
# load (the interpreter lock changes hands across vCPUs), which no regression
# bound can absorb. greedy_ktree still runs on nproc threads, untimed, to
# check that the estimates do not depend on the thread count.
TIMED_THREADS = 1
EXACT_CATALOG = (
    "blind:alpha=1/2",
    "greedy",
    "twophase:alpha=1/3,gamma=1/2,trigger=initial_clique",
    "dp",
)


class Context:
    """Inputs of one process: seed, sizes, the thread count of the
    thread-invariance check, and the instances built in set-up. ``carry``
    passes results between operations of a pass."""

    def __init__(self, seed, size, threads):
        self.seed = seed
        self.size = size
        self.threads = threads
        self.instances = {}
        self.carry = {}


class CheckFailed(Exception):
    """An operation's output failed a check."""


def run_cli(argv):
    """Run the CLI in this process; return its standard output."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
    except SystemExit as e:  # argparse rejects a flag by exiting
        code = e.code or 0
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    return out.getvalue()


def _hex(x):
    return float(x).hex()


def _config(reps, seed):
    return montecarlo.EstimatorConfig(replications=reps, seed=seed)


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _mc_report_sane(result, n, reps):
    _expect(result["replications"] == reps, f"replications {result['replications']} != {reps}")
    _expect(0 <= result["mean"] <= n, f"mean {result['mean']} outside [0, {n}]")
    _expect(result["ci_low"] <= result["mean"] <= result["ci_high"], "mean outside its CI")


# --- blind_curve ------------------------------------------------------------


class BlindCurve:
    """Acceptance 12 scaled down: scan every blind threshold by Monte Carlo,
    compare two-phase against the scanned l*, and run the CLI blind rule."""

    def setup(self, ctx):
        n = ctx.size["tsps_n"]
        ctx.instances["g"], _ = graphs.gen_named_family("two_star_plus_star", {"n": n})

    def ops(self):
        return [("scan", True, self.scan), ("compare", True, self.compare),
                ("cli_blind", True, self.cli_blind)]

    def scan(self, ctx):
        g = ctx.instances["g"]
        scan = montecarlo.blind_value_scan(g, _config(ctx.size["scan_reps"], ctx.seed))
        l_star = int(np.argmax(scan))
        ctx.carry["l_star"] = l_star
        return {
            "l_star": l_star,
            "at_alpha": _hex(scan[math.ceil(g.n / 3)]),
            "sha256": hashlib.sha256(scan.tobytes()).hexdigest(),
        }

    def compare(self, ctx):
        specs = [
            strategies.two_phase(*TWO_PHASE, frozenset([0, 1])),
            strategies.blind_threshold(ctx.carry["l_star"]),
        ]
        cfg = _config(ctx.size["compare_reps"], COMPARE_SEED)
        estimates, diffs = montecarlo.compare_strategies(ctx.instances["g"], None, specs, cfg)
        return {
            "l_star": ctx.carry["l_star"],
            "two_phase": _hex(estimates[0].mean),
            "blind": _hex(estimates[1].mean),
            "diff": _hex(diffs[(0, 1)].mean),
        }

    def cli_blind(self, ctx):
        n, reps = ctx.size["tsps_n"], ctx.size["scan_reps"]
        report = json.loads(run_cli([
            "run", "--family", "two_star_plus_star", "--n", n, "--mode", "mc",
            "--strategy", "blind:alpha=1/3", "--reps", reps, "--seed", ctx.seed,
            "--threads", TIMED_THREADS,
        ]))
        result = report["results"][0]
        _mc_report_sane(result, n, reps)
        return {"mean": _hex(result["mean"])}

    def cross_check(self, ctx, outputs):
        g = ctx.instances["g"]
        # same seed and replications: the CLI's prefix count must equal the
        # scan's whole-curve trace at t = ceil(n/3)
        if "scan" in outputs and "cli_blind" in outputs:
            _expect(outputs["cli_blind"]["mean"] == outputs["scan"]["at_alpha"],
                    "cli_blind mean differs from the scan at alpha=1/3")
        if "compare" in outputs:
            out = outputs["compare"]
            cfg = _config(ctx.size["compare_reps"], COMPARE_SEED)
            t_alpha = math.ceil(TWO_PHASE[0] * g.n)
            t_gamma = math.ceil(TWO_PHASE[1] * g.n)
            two_phase, blind = [], []
            for i in range(cfg.replications):
                sigma = montecarlo.replication_permutation(cfg.seed, i, g.n)
                trace = montecarlo.component_count_trace(g, sigma)
                # the trigger set only grows: stop at t_gamma if a trigger
                # vertex arrived by t_alpha, else at t_alpha
                hit = bool(np.isin([0, 1], sigma[:t_alpha]).any())
                two_phase.append(trace[t_gamma if hit else t_alpha])
                blind.append(trace[out["l_star"]])
            _expect(out["two_phase"] == _hex(np.mean(np.array(two_phase, dtype=float))),
                    "two-phase mean differs from its closed-form stopping time")
            _expect(out["blind"] == _hex(np.mean(np.array(blind, dtype=float))),
                    "blind l* mean differs from the component-count trace")


# --- greedy_ktree -----------------------------------------------------------


class GreedyKtree:
    """Full-information greedy rules on a random 2-tree."""

    def setup(self, ctx):
        pass

    def ops(self):
        return [("greedy", True, self.greedy)]

    def greedy(self, ctx, threads=TIMED_THREADS):
        report = json.loads(run_cli([
            "run", "--ktree", 2, "--n", ctx.size["ktree_n"], "--seed", ctx.seed,
            "--mode", "mc", "--reps", ctx.size["greedy_reps"],
            "--strategy", "greedy", "--strategy", "greedy:strict",
            "--threads", threads,
        ]))
        out = {}
        for result in report["results"]:
            _mc_report_sane(result, ctx.size["ktree_n"], ctx.size["greedy_reps"])
            out[result["strategy"]] = _hex(result["mean"])
        return out

    def cross_check(self, ctx, outputs):
        if "greedy" in outputs:
            _expect(sorted(outputs["greedy"]) == ["greedy", "greedy:strict"],
                    "missing strategy results")
            _expect(outputs["greedy"] == self.greedy(ctx, threads=ctx.threads),
                    "estimates differ between one thread and several")


# --- tail_prefix ------------------------------------------------------------


class TailPrefix:
    """Concentration tails: one prefix per replication, on a forest (the
    vectorized path) and on a grid (union-find)."""

    def setup(self, ctx):
        pass

    def ops(self):
        return [("tree", True, self.tree), ("grid", True, self.grid)]

    def _concentration(self, ctx, instance, reps, epsilon):
        report = json.loads(run_cli([
            "concentration", *instance, "--seed", ctx.seed, "--alpha", "1/2",
            "--epsilon", epsilon, "--reps", reps, "--threads", TIMED_THREADS,
        ]))
        est = report["tail_estimate"]
        _mc_report_sane(est, 1, reps)
        return {"mean": _hex(est["mean"]), "threshold": _hex(report["threshold"])}

    def tree(self, ctx):
        n = ctx.size["tree_n"]
        return self._concentration(
            ctx, ["--family", "random_tree", "--n", n], ctx.size["tree_reps"], "0")

    def grid(self, ctx):
        side = ctx.size["grid_side"]
        return self._concentration(
            ctx, ["--family", "grid", "--d", 2, "--side", side], ctx.size["grid_reps"],
            ctx.size["grid_epsilon"])

    def cross_check(self, ctx, outputs):
        instances = {
            "tree": (("random_tree", {"n": ctx.size["tree_n"], "seed": ctx.seed}),
                     ctx.size["tree_reps"], "0"),
            "grid": (("grid", {"d": 2, "side": ctx.size["grid_side"]}),
                     ctx.size["grid_reps"], ctx.size["grid_epsilon"]),
        }
        for op, (family, reps, epsilon) in instances.items():
            if op not in outputs:
                continue
            g, _ = graphs.gen_named_family(*family)
            n, t = g.n, math.ceil(g.n / 2)
            # the paper's threshold at alpha = 1/2
            beta = g.edge_count / n
            threshold = (0.5 - 0.25 * beta) * n + 0.3 * float(Fraction(epsilon)) * n
            _expect(outputs[op]["threshold"] == _hex(threshold), f"{op}: threshold")
            hits = np.array([
                1.0 if count > threshold else 0.0
                for count in _prefix_component_counts(g, ctx.seed, reps, t)
            ])
            _expect(outputs[op]["mean"] == _hex(np.mean(hits)),
                    f"{op}: tail differs from a connected-components recount")


def _prefix_component_counts(g, seed, reps, t):
    """Component count of each replication's t-prefix, recounted without
    stopcc: components = vertices - edges on a forest, scipy otherwise."""
    # imported here so that set-up time measures stopcc's own imports
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = g.n
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    forest = g.is_forest()
    adj = coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
    for i in range(reps):
        sigma = montecarlo.replication_permutation(seed, i, n)
        if forest:
            pos = np.empty(n, dtype=np.int64)
            pos[sigma] = np.arange(n)
            yield t - int(np.count_nonzero((pos[edges[:, 0]] < t) & (pos[edges[:, 1]] < t)))
        else:
            prefix = sigma[:t]
            yield connected_components(adj[prefix][:, prefix], directed=False)[0]


# --- exact_small ------------------------------------------------------------


class ExactSmall:
    """No sampling: subset DP (float, non-forest and exact tiers), n!
    enumeration of the strategy catalog, closed forms and the phi game."""

    def setup(self, ctx):
        pass

    def ops(self):
        return [
            ("dp_path", False, self.dp_path),
            ("dp_grid", False, self.dp_grid),
            ("dp_exact_path", False, self.dp_exact_path),
            ("exact_tree", True, self.exact_tree),
            ("blind_scan", False, self.blind_scan),
            ("phi_max", False, self.phi_max),
        ]

    def _dp(self, instance):
        report = json.loads(run_cli(["run", *instance, "--mode", "dp", "--strategy", "dp"]))
        result = report["results"][0]
        return {"exact": result["exact"], "value": _hex(result["value"])}

    def dp_path(self, ctx):
        return self._dp(["--family", "path", "--n", ctx.size["dp_path_n"]])

    def dp_grid(self, ctx):
        return self._dp(["--family", "grid", "--d", 2, "--side", ctx.size["dp_grid_side"]])

    def dp_exact_path(self, ctx):
        return self._dp(["--family", "path", "--n", ctx.size["dp_exact_path_n"]])

    def exact_tree(self, ctx):
        argv = ["run", "--family", "random_tree", "--n", ctx.size["exact_tree_n"],
                "--seed", ctx.seed, "--mode", "exact"]
        for text in EXACT_CATALOG:
            argv += ["--strategy", text]
        report = json.loads(run_cli(argv))
        return {r["strategy"]: r["exact"] for r in report["results"]}

    def blind_scan(self, ctx):
        text = run_cli(["blind-scan", "--kind", "ktree", "--k", 2, "--n", ctx.size["scan_n"]])
        rows = [line.split(",") for line in text.splitlines()[1:]]
        values = [float(v) for _, v, _ in rows]
        argmax = [int(l) for l, _, flag in rows if flag == "1"]
        _expect(len(rows) == ctx.size["scan_n"] + 1, "blind-scan row count")
        _expect(len(argmax) == 1 and values[argmax[0]] == max(values),
                "blind-scan argmax flag")
        return {"argmax": argmax[0], "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def phi_max(self, ctx):
        report = json.loads(run_cli(["metagame", "phi-max"]))
        _expect(len(report["maximizers"]) > 0, "no maximizers")
        return {"max_value_str": report["max_value_str"]}

    def cross_check(self, ctx, outputs):
        if "dp_exact_path" in outputs:
            n = ctx.size["dp_exact_path_n"]
            g, _ = graphs.gen_named_family("path", {"n": n})
            exact_value = Fraction(outputs["dp_exact_path"]["exact"])
            float_value = exact.solve_dp(g, exact=False).root_value
            _expect(abs(float(exact_value) - float_value) <= exact.DP_TIE_TOL,
                    "float DP differs from the exact tier")
        if "exact_tree" in outputs:
            g, _ = graphs.gen_named_family(
                "random_tree", {"n": ctx.size["exact_tree_n"], "seed": ctx.seed})
            root = exact.solve_dp(g, exact=True).root_value
            values = {k: Fraction(v) for k, v in outputs["exact_tree"].items()}
            _expect(values.get("dp") == root, "dp value by enumeration != DP root")
            _expect(all(v <= root for v in values.values()),
                    "a catalog strategy beats the optimal value")
        if "phi_max" in outputs:
            _expect(outputs["phi_max"]["max_value_str"] == "0.250000000",
                    "phi maximum is not 1/4")


WORKLOADS = {
    "blind_curve": BlindCurve(),
    "greedy_ktree": GreedyKtree(),
    "tail_prefix": TailPrefix(),
    "exact_small": ExactSmall(),
}
