"""Command-line front door: generate instances, run exact/DP/Monte Carlo
experiments, scan blind thresholds, and emit machine-readable reports.

Exit codes: 0 success, 2 usage error, 3 resource cap exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
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

# a replication costs 40-90 us on a one-vertex path (2-core x86), so the cap
# admits runs of minutes even there; the scores, kept as one Python number
# each until the estimate, stay under about 0.5 GB
REPS_CAP = 10**7
_SIZE_FLAGS = ("n", "k", "d", "side")  # the integer family parameters


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


@contextlib.contextmanager
def _output(path):
    """The file at path, opened for writing, or stdout when path is empty."""
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(payload, out_path, started=None):
    """Write a JSON report in the one envelope: tool and version always,
    wall_clock_s since started when given."""
    report = {"tool": "stopcc", "version": __version__, **payload}
    if started is not None:
        report["wall_clock_s"] = time.time() - started
    with _output(out_path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _estimate_fields(est, tail=False):
    """An Estimate as a report block; only tail estimates carry zero_hit_upper."""
    fields = dataclasses.asdict(est)
    if not tail:
        del fields["zero_hit_upper"]
    return fields


def _family_params(family, args):
    """gen_named_family parameters from the instance flags."""
    params = {}
    for key in _SIZE_FLAGS:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if family == "random_tree":
        params["seed"] = args.seed
    if args.ratio is not None:
        params["ratio"] = strategies._parse_fraction(args.ratio)
    return params


# the size flags that each instance source other than --family never reads;
# gen_named_family rejects the ones a family does not take
_UNREAD_FLAGS = {"--seq-file": (*_SIZE_FLAGS, "ratio"), "--ktree": ("k", "d", "side", "ratio")}


def _reject_unread(args, reader, keys):
    """UsageError naming each flag of keys that was given, since reader
    ignores them."""
    unread = [f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is not None]
    if unread:
        raise UsageError(f"{reader} does not read {', '.join(unread)}")


def _build_instance(args, sequence=True):
    """Resolve the instance flags into (graph, seq, descriptor), after
    checking that one source is given and no flag it ignores.  With sequence
    false a named tree family's sequence is not built and seq is None."""
    given = {"--family": args.family, "--ktree": args.ktree, "--seq-file": args.seq_file}
    sources = [flag for flag, value in given.items() if value is not None]
    if len(sources) > 1:
        raise UsageError(f"give one instance source, not {' and '.join(sources)}")
    for source in sources:
        _reject_unread(args, source, _UNREAD_FLAGS.get(source, ()))
    if args.seq_file:
        try:
            with open(args.seq_file) as fh:
                seq = graphs.read_sequence(fh)
        except ValidationError as e:
            # malformed file, reported through the I/O exit code
            raise OSError(f"{args.seq_file}: {e}") from e
        g = graphs.graph_from_construction(seq)
        return g, seq, {"source": "seq_file", "path": args.seq_file, "n": g.n, "k": seq.k}
    if args.ktree is not None:
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
    if args.family:
        g, seq = graphs.gen_named_family(args.family, _family_params(args.family, args), sequence)
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
    _add_size_flags(sub)


def _add_size_flags(sub):
    """The size and seed flags of the generators and named families."""
    for key in _SIZE_FLAGS:
        sub.add_argument(f"--{key}", type=int)
    sub.add_argument("--ratio")
    sub.add_argument("--seed", type=int, default=0)


def _add_estimator_flags(sub):
    sub.add_argument("--reps", type=int, default=1000)
    sub.add_argument("--ci-level", type=float, default=0.99)
    sub.add_argument("--threads", type=int, default=_default_threads(),
                     help="accepted and checked (>= 1) but changes nothing: "
                          "replications run in index order on one thread")


def _estimator_config(args):
    """The estimator settings of run and concentration, checked before any
    instance is built."""
    if args.reps > REPS_CAP:
        raise ParameterError(f"--reps is capped at {REPS_CAP}, got {args.reps}")
    return montecarlo.EstimatorConfig(
        replications=args.reps,
        seed=args.seed,
        ci_level=args.ci_level,
        threads=args.threads,
    )


def cmd_generate(args):
    if args.kind == "ktree":
        if args.k is None or args.n is None:
            raise UsageError("generate ktree needs --k and --n")
        _reject_unread(args, "generate ktree", ("name", "d", "side", "ratio", "seq_out"))
        seq = graphs.gen_random_ktree(args.k, args.n, args.seed)
        with _output(args.out) as fh:
            graphs.write_sequence(seq, fh)
        return 0
    # named family
    if args.name is None:
        raise UsageError("generate family needs --name")
    g, seq = graphs.gen_named_family(args.name, _family_params(args.name, args),
                                     sequence=bool(args.seq_out))
    if args.seq_out and seq is None:
        raise UsageError(f"family {args.name} has no construction sequence")
    with _output(args.out) as fh:
        graphs.write_graph(g, fh)
    if args.seq_out:
        with _output(args.seq_out) as fh:
            graphs.write_sequence(seq, fh)
    return 0


def cmd_blind_scan(args):
    n = args.n
    if args.kind == "tree":
        _reject_unread(args, "blind-scan --kind tree", ("k",))
    k = 1 if args.kind == "tree" else args.k  # l(n-l+1)/n is the width-1 curve
    if k is None:
        raise UsageError("blind-scan --kind ktree needs --k")
    if n < max(k, 1):
        raise ParameterError(
            f"blind-scan --kind {args.kind} needs --n >= {max(k, 1)}, got --n {n}"
        )
    numerators, denominator, best = exact.blind_curve(k, n)
    # int / int rounds correctly, so each value has float(Fraction)'s bits
    with _output(args.out) as fh:
        fh.write("l,expected_cc,is_argmax\n")
        fh.writelines(
            f"{l},{num / denominator},{int(l == best)}\n"
            for l, num in enumerate(numerators)
        )
    return 0


def cmd_run(args):
    started = time.time()
    # validated in every mode, so a bad value never reaches the report; the
    # rules too are checked before the instance is built
    cfg = _estimator_config(args)
    specs = [strategies.parse_strategy(text) for text in args.strategy]
    if args.mode == "dp":
        others = [text for text, spec in zip(args.strategy, specs) if spec.kind != "dp_optimal"]
        if others:
            raise UsageError(f"--mode dp solves only the dp rule, not {', '.join(others)}")
    g, seq, descriptor = _build_instance(args)
    if args.mode == "dp" or any(spec.kind == "dp_optimal" for spec in specs):
        # below the exact tier's cap both tiers give the same stop flags;
        # --mode exact binds the exact tier, which refuses n above its cap
        table = exact.solve_dp(g, exact=args.mode == "exact" or g.n <= exact.DP_EXACT_CAP)
        specs = [strategies.dp_optimal(table) if spec.kind == "dp_optimal" else spec
                 for spec in specs]
    results = []
    if args.mode == "exact":
        for text, spec in zip(args.strategy, specs):
            value = exact.strategy_value(g, seq, spec)
            results.append({"strategy": text, "mode": "exact", **_rational(value)})
    elif args.mode == "dp":
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
        # one estimate scores every rule on the same draws; its per-rule
        # Estimates equal estimate_strategy's
        if len(specs) == 1:
            estimates = [montecarlo.estimate_strategy(g, seq, specs[0], cfg)]
        else:
            estimates, _ = montecarlo.compare_strategies(g, seq, specs, cfg)
        for text, est in zip(args.strategy, estimates):
            results.append({"strategy": text, "mode": "mc", **_estimate_fields(est)})
    report = {
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
    }
    _emit(report, args.out, started)
    return 0


def cmd_concentration(args):
    started = time.time()
    cfg = _estimator_config(args)
    # the exact fractions are checked and set the prefix length; floats
    # serve the threshold and the tail bound
    alpha_exact = strategies._parse_fraction(args.alpha)
    eps_exact = strategies._parse_fraction(args.epsilon)
    if eps_exact < 0:
        raise ParameterError(f"--epsilon must be >= 0, got {args.epsilon}")
    if not 0 <= alpha_exact <= 1:
        raise ParameterError("alpha must lie in [0,1]")
    alpha = float(alpha_exact)
    try:
        eps = float(eps_exact)
        tail_bound = eps**3 / 2000
    except OverflowError:
        raise ParameterError(
            f"--epsilon {args.epsilon} is too large: eps^3/2000 must fit a float"
        ) from None
    g, _, descriptor = _build_instance(args, sequence=False)
    if g.n == 0:
        raise ParameterError("concentration needs an instance with at least one vertex")
    beta = g.edge_count / g.n
    threshold = (alpha - alpha**2 * beta) * g.n + 0.3 * eps * g.n
    est = montecarlo.estimate_tail(g, alpha_exact, threshold, cfg)
    report = {
        "instance": descriptor,
        "alpha": alpha,
        "epsilon": eps,
        "beta": beta,
        "threshold": threshold,
        "tail_bound": tail_bound,
        "tail_estimate": _estimate_fields(est, tail=True),
    }
    _emit(report, args.out, started)
    return 0


def cmd_metagame(args):
    if args.sub == "phi-max":
        _reject_unread(args, "metagame phi-max", ("k",))
        result = metagame.maximize_phi()
        report = {
            "max_value": result.max_value,
            "max_value_str": f"{result.max_value:.9f}",
            "maximizers": [list(pt) for pt in result.maximizers[:20]],
        }
    else:  # mt-argmax
        if args.k is None:
            raise UsageError("metagame mt-argmax needs --k")
        alpha, value = metagame.mt_argmax(args.k)
        report = {
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
    _add_size_flags(p)
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
    except OSError as e:
        print(f"stopcc: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (StopCCError, ValueError) as e:
        print(f"stopcc: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
