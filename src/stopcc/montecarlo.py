"""Seeded, replicable Monte Carlo estimation of strategy values and tails.

Replication i draws its permutation from an independent substream keyed by
(master seed, i) via numpy's SeedSequence and runs in index order on one
thread, so results are bit-identical for a given seed and replication count.
Rules are scored by strategies.order_scorer, every rule of an estimate on
each order at once; tails by activation.component_count and the blind scan
by activation.merge_counts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import strategies
# component_count_trace is not called here, but callers read it through this module
from .activation import component_count, component_count_trace, counts_from_merges, merge_counts
from .errors import ParameterError

@dataclass(frozen=True)
class EstimatorConfig:
    """Replication count, master seed and confidence level of one estimate.

    threads is validated (>= 1) but selects nothing: replications always
    run in index order on one thread.  Scoring holds the interpreter lock
    for most of its time, in Python steps (dp, greedy off chordal graphs) or
    between short NumPy calls, and more threads ran slower.
    """

    replications: int
    seed: int
    ci_level: float = 0.99
    threads: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ParameterError("replications must be >= 1")
        if not 0 < self.ci_level < 1:
            raise ParameterError("ci_level must lie in (0,1)")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    replications: int
    seed: int
    # exact (1-a)^(1/reps)-style upper bound, reported for zero-hit tails
    zero_hit_upper: float | None = None


def replication_rng(master_seed, index):
    """Independent generator for one replication; depends only on
    (master seed, replication index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )


def replication_permutation(master_seed, index, n):
    return replication_rng(master_seed, index).permutation(n)


def _summarize(scores, cfg, zero_hit_upper=None):
    mean = float(np.mean(scores))
    if len(scores) > 1:
        se = float(np.std(scores, ddof=1) / math.sqrt(len(scores)))
    else:
        se = 0.0
    z = NormalDist().inv_cdf((1 + cfg.ci_level) / 2)
    return Estimate(
        mean=mean,
        std_error=se,
        ci_low=mean - z * se,
        ci_high=mean + z * se,
        replications=cfg.replications,
        seed=cfg.seed,
        zero_hit_upper=zero_hit_upper,
    )


def _permutations(cfg, n):
    """Replication i's permutation of 0..n-1, for every i in index order:
    the one replication loop of every estimate."""
    for i in range(cfg.replications):
        yield replication_permutation(cfg.seed, i, n)


def _scores(graph, seq, specs, cfg):
    """The common-random-number score table: row s holds the scores of
    specs[s], column i those of the one permutation of replication i, which
    one call of the shared scorer checks and scores under every rule."""
    score = strategies.order_scorer(graph, seq, specs)
    return np.array([[count for _, count in score(sigma)]
                     for sigma in _permutations(cfg, graph.n)], dtype=np.float64).T


def estimate_strategy(graph, seq, spec, cfg):
    """Mean strategy score over uniform random permutations, with a
    normal-approximation confidence interval."""
    return _summarize(_scores(graph, seq, [spec], cfg)[0], cfg)


def estimate_tail(graph, alpha, threshold, cfg):
    """Empirical P(CC(G[ceil(alpha n)]) > threshold) with CI."""
    if not 0 <= alpha <= 1:
        raise ParameterError("alpha must lie in [0,1]")
    t = strategies.stop_count(alpha, graph.n)
    hits = np.array([component_count(graph, sigma[:t]) > threshold
                     for sigma in _permutations(cfg, graph.n)], dtype=np.float64)
    zero_upper = None
    if not hits.any():
        # exact upper bound on p compatible with observing zero hits
        zero_upper = 1.0 - (1.0 - cfg.ci_level) ** (1.0 / cfg.replications)
    return _summarize(hits, cfg, zero_hit_upper=zero_upper)


def compare_strategies(graph, seq, specs, cfg):
    """Common-random-number comparison: every spec scores the same
    permutation in each replication.

    Returns (per-spec Estimates, dict (i, j) -> Estimate of spec_i - spec_j).
    """
    if len(specs) < 2:
        raise ParameterError("need at least two strategies to compare")
    scores = _scores(graph, seq, specs, cfg)
    estimates = [_summarize(scores[s], cfg) for s in range(len(specs))]
    diffs = {}
    for a in range(len(specs)):
        for b in range(a + 1, len(specs)):
            diffs[(a, b)] = _summarize(scores[a] - scores[b], cfg)
    return estimates, diffs


def blind_value_scan(graph, cfg):
    """Monte Carlo mean component count for every blind threshold l at once:
    the merge counts of each replication, summed in integers, give the
    summed component counts of every l in [0, n]."""
    merges = sum(merge_counts(graph, sigma) for sigma in _permutations(cfg, graph.n))
    return counts_from_merges(merges, cfg.replications) / cfg.replications
