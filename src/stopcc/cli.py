"""Command-line front door: generate instances, run exact/DP/Monte Carlo
experiments, scan blind thresholds, and emit machine-readable reports.

Exit codes: 0 success, 2 usage error, 3 resource cap exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__, exact, graphs, metagame, montecarlo, strategies
from .errors import (
    ParameterError,
    ResourceLimitError,
    StopCCError,
    UsageError,
    ValidationError,
)

EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


def _default_threads():
    env = os.environ.get("STOPCC_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"STOPCC_THREADS must be an integer, got {env!r}") from None
    return 1


def _rational(value):
    if isinstance(value, Fraction):
        return {"exact": f"{value.numerator}/{value.denominator}", "value": float(value)}
    return {"exact": None, "value": float(value)}


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family_params(family, args):
    """gen_named_family parameters from the instance flags."""
    params = {}
    for key in ("n", "k", "d", "side"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if family == "random_tree":
        params["seed"] = args.seed
    if args.ratio is not None and family == "two_star_plus_star":
        params["ratio"] = Fraction(args.ratio)
    return params


def _build_instance(args):
    """Resolve the instance flags into (graph, seq, descriptor)."""
    if getattr(args, "seq_file", None):
        try:
            with open(args.seq_file) as fh:
                seq = graphs.read_sequence(fh)
        except ValidationError as e:
            # malformed file, reported through the I/O exit code
            raise OSError(f"{args.seq_file}: {e}") from e
        g = graphs.graph_from_construction(seq)
        return g, seq, {"source": "seq_file", "path": args.seq_file, "n": g.n, "k": seq.k}
    if getattr(args, "ktree", None) is not None:
        if args.n is None:
            raise UsageError("--ktree needs --n")
        seq = graphs.gen_random_ktree(args.ktree, args.n, args.seed)
        g = graphs.graph_from_construction(seq)
        return g, seq, {
            "family": "random_ktree",
            "k": args.ktree,
            "n": args.n,
            "seed": args.seed,
        }
    if getattr(args, "family", None):
        g, seq = graphs.gen_named_family(args.family, _family_params(args.family, args))
        desc = {"family": args.family, "n": g.n, "seed": args.seed}
        if args.k is not None:
            desc["k"] = args.k
        return g, seq, desc
    raise UsageError("no instance given: use --family, --ktree, or --seq-file")


def _add_instance_flags(sub):
    sub.add_argument("--family", choices=graphs.FAMILIES)
    sub.add_argument("--ktree", type=int, metavar="K",
                     help="random k-tree of this width (with --n, --seed)")
    sub.add_argument("--seq-file", help="read the instance from a sequence file")
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--side", type=int)
    sub.add_argument("--ratio")
    sub.add_argument("--seed", type=int, default=0)


def _add_estimator_flags(sub):
    sub.add_argument("--reps", type=int, default=1000)
    sub.add_argument("--ci-level", type=float, default=0.99)
    sub.add_argument("--threads", type=int, default=_default_threads(),
                     help="accepted and checked (>= 1) but changes nothing: "
                          "replications run in index order on one thread")


def cmd_generate(args):
    if args.kind == "ktree":
        if args.k is None or args.n is None:
            raise UsageError("generate ktree needs --k and --n")
        seq = graphs.gen_random_ktree(args.k, args.n, args.seed)
        if args.out:
            with open(args.out, "w") as fh:
                graphs.write_sequence(seq, fh)
        else:
            graphs.write_sequence(seq, sys.stdout)
        return 0
    # named family
    if args.name is None:
        raise UsageError("generate family needs --name")
    g, seq = graphs.gen_named_family(args.name, _family_params(args.name, args))
    if args.out:
        with open(args.out, "w") as fh:
            graphs.write_graph(g, fh)
    else:
        graphs.write_graph(g, sys.stdout)
    if args.seq_out:
        if seq is None:
            raise UsageError(f"family {args.name} has no construction sequence")
        with open(args.seq_out, "w") as fh:
            graphs.write_sequence(seq, fh)
    return 0


def cmd_blind_scan(args):
    if args.kind == "tree":
        n = args.n
        values = [exact.blind_expectation_tree(n, l) for l in range(n + 1)]
    else:
        if args.k is None:
            raise UsageError("blind-scan --kind ktree needs --k")
        n = args.n
        values = [exact.blind_expectation_ktree(args.k, n, l) for l in range(n + 1)]
    best = max(range(n + 1), key=lambda l: values[l])
    lines = ["l,expected_cc,is_argmax"]
    for l in range(n + 1):
        lines.append(f"{l},{float(values[l])},{int(l == best)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args):
    started = time.time()
    # validated in every mode, so a bad value never reaches the report
    cfg = montecarlo.EstimatorConfig(
        replications=args.reps,
        seed=args.seed,
        ci_level=args.ci_level,
        threads=args.threads,
    )
    g, seq, descriptor = _build_instance(args)
    specs = [strategies.parse_strategy(text) for text in args.strategy]
    results = []
    if args.mode == "exact":
        if g.n > exact.PERM_CAP:
            raise ResourceLimitError(
                f"exact mode enumerates n! permutations and is capped at "
                f"n={exact.PERM_CAP}; instance has n={g.n}"
            )
        for text, spec in zip(args.strategy, specs):
            if spec.kind == "dp_optimal" and spec.table is None:
                spec = strategies.dp_optimal(exact.solve_dp(g, exact=True))
            value = exact.brute_force_strategy_value(g, seq, spec)
            results.append({"strategy": text, "mode": "exact", **_rational(value)})
    elif args.mode == "dp":
        table = exact.solve_dp(g, exact=g.n <= exact.DP_EXACT_CAP)
        value = table.root_value
        results.append(
            {
                "strategy": "dp",
                "mode": "dp",
                **_rational(value),
                "per_vertex": float(value) / g.n if g.n else 0.0,
            }
        )
    else:  # mc
        for text, spec in zip(args.strategy, specs):
            if spec.kind == "dp_optimal" and spec.table is None:
                spec = strategies.dp_optimal(exact.solve_dp(g, exact=False))
            est = montecarlo.estimate_strategy(g, seq, spec, cfg)
            results.append(
                {
                    "strategy": text,
                    "mode": "mc",
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "ci_low": est.ci_low,
                    "ci_high": est.ci_high,
                    "replications": est.replications,
                    "seed": est.seed,
                }
            )
    report = {
        "tool": "stopcc",
        "version": __version__,
        "instance": descriptor,
        "strategies": args.strategy,
        "mode": args.mode,
        "config": {
            "reps": args.reps,
            "seed": args.seed,
            "ci_level": args.ci_level,
            "threads": args.threads,
        },
        "results": results,
        "wall_clock_s": time.time() - started,
    }
    _emit(report, args.out)
    return 0


def cmd_concentration(args):
    started = time.time()
    g, _, descriptor = _build_instance(args)
    if g.n == 0:
        raise ParameterError("concentration needs an instance with at least one vertex")
    beta = g.edge_count / g.n
    # the exact fraction sets the prefix length; floats serve the threshold
    alpha_exact = Fraction(args.alpha)
    alpha = float(alpha_exact)
    eps = float(Fraction(args.epsilon))
    threshold = (alpha - alpha**2 * beta) * g.n + 0.3 * eps * g.n
    cfg = montecarlo.EstimatorConfig(
        replications=args.reps, seed=args.seed, ci_level=args.ci_level,
        threads=args.threads,
    )
    est = montecarlo.estimate_tail(g, alpha_exact, threshold, cfg)
    report = {
        "tool": "stopcc",
        "version": __version__,
        "instance": descriptor,
        "alpha": alpha,
        "epsilon": eps,
        "beta": beta,
        "threshold": threshold,
        "tail_bound": eps**3 / 2000,
        "tail_estimate": {
            "mean": est.mean,
            "std_error": est.std_error,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "zero_hit_upper": est.zero_hit_upper,
            "replications": est.replications,
            "seed": est.seed,
        },
        "wall_clock_s": time.time() - started,
    }
    _emit(report, args.out)
    return 0


def cmd_metagame(args):
    if args.sub == "phi-max":
        result = metagame.maximize_phi()
        report = {
            "tool": "stopcc",
            "version": __version__,
            "max_value": result.max_value,
            "max_value_str": f"{result.max_value:.9f}",
            "maximizers": [list(pt) for pt in result.maximizers[:20]],
        }
    else:  # mt-argmax
        if args.k is None:
            raise UsageError("metagame mt-argmax needs --k")
        alpha, value = metagame.mt_argmax(args.k)
        report = {
            "tool": "stopcc",
            "version": __version__,
            "k": args.k,
            "argmax_alpha": alpha,
            "max_value": value,
            "analytic_alpha": 1 / (args.k + 1),
            "analytic_value": args.k**args.k / (args.k + 1) ** (args.k + 1),
        }
    _emit(report, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stopcc",
        description="Optimal-stopping experiments for connected components",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance file")
    p.add_argument("kind", choices=["ktree", "family"])
    p.add_argument("--name", choices=graphs.FAMILIES)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--side", type=int)
    p.add_argument("--ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out")
    p.add_argument("--seq-out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("blind-scan", help="exact blind expectation for every l")
    p.add_argument("--kind", choices=["tree", "ktree"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_blind_scan)

    p = sub.add_parser("run", help="evaluate strategies on an instance")
    _add_instance_flags(p)
    p.add_argument("--strategy", action="append", required=True,
                   help="e.g. blind:l=42, blind:alpha=1/3, greedy, dp, "
                        "twophase:alpha=1/3,gamma=1/2,trigger=initial_clique")
    p.add_argument("--mode", choices=["exact", "dp", "mc"], required=True)
    _add_estimator_flags(p)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("concentration", help="empirical tail of CC at a threshold")
    _add_instance_flags(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--epsilon", required=True)
    _add_estimator_flags(p)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_concentration)

    p = sub.add_parser("metagame", help="analytic side-game optimizers")
    p.add_argument("sub", choices=["phi-max", "mt-argmax"])
    p.add_argument("--k", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_metagame)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ResourceLimitError as e:
        print(f"stopcc: resource cap exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError,) as e:
        print(f"stopcc: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ParameterError, UsageError, ValidationError, StopCCError, ValueError) as e:
        print(f"stopcc: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
