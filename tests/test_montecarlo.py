"""Seeded Monte Carlo estimators: reproducibility, coverage, fast paths."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stopcc import graphs, strategies
from stopcc.activation import ActivationState
from stopcc.errors import ParameterError
from stopcc.graphs import Graph
from stopcc.montecarlo import (
    EstimatorConfig,
    blind_value_scan,
    compare_strategies,
    estimate_strategy,
    estimate_tail,
    replication_permutation,
)


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_config_validation():
    with pytest.raises(ParameterError):
        EstimatorConfig(replications=0, seed=1)
    with pytest.raises(ParameterError):
        EstimatorConfig(replications=10, seed=1, ci_level=1.0)


def test_replication_streams_are_reproducible_and_distinct():
    a = replication_permutation(42, 3, 20)
    b = replication_permutation(42, 3, 20)
    c = replication_permutation(42, 4, 20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_estimate_covers_exact_value():
    g = _path(3)
    cfg = EstimatorConfig(replications=3000, seed=7)
    est = estimate_strategy(g, None, strategies.blind_threshold(2), cfg)
    truth = float(Fraction(4, 3))
    assert est.ci_low <= truth <= est.ci_high
    assert abs(est.mean - truth) < 0.05
    assert est.replications == 3000 and est.seed == 7


def test_blind_fast_path_matches_full_strategy_run():
    g, seq = graphs.gen_named_family("random_tree", {"n": 30, "seed": 1})
    cfg = EstimatorConfig(replications=50, seed=3)
    fast = estimate_strategy(g, seq, strategies.blind_threshold(12), cfg)
    slow_scores = []
    for i in range(50):
        sigma = list(replication_permutation(3, i, 30))
        _, cc = strategies.run_strategy(
            g, seq, strategies.blind_threshold(12), sigma)
        slow_scores.append(cc)
    assert fast.mean == np.mean(slow_scores)


def test_estimate_tail_zero_hits_reports_upper_bound():
    g = _path(20)
    cfg = EstimatorConfig(replications=100, seed=5, ci_level=0.99)
    est = estimate_tail(g, alpha=0.5, threshold=20, cfg=cfg)
    assert est.mean == 0.0
    assert est.zero_hit_upper == pytest.approx(1 - 0.01 ** (1 / 100))


def test_estimate_tail_forest_path_agrees_with_generic():
    tree, _ = graphs.gen_named_family("random_tree", {"n": 25, "seed": 2})
    cycle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert tree.is_forest() and not cycle.is_forest()
    cfg = EstimatorConfig(replications=400, seed=9)
    est = estimate_tail(tree, alpha=0.4, threshold=6, cfg=cfg)
    # recompute the same replications through the exact activation engine
    t = math.ceil(0.4 * 25)
    hits = []
    for i in range(400):
        state = ActivationState(tree)
        for v in replication_permutation(9, i, 25)[:t]:
            state.activate(int(v))
        hits.append(1.0 if state.cc > 6 else 0.0)
    assert est.mean == np.mean(hits)
    # a graph with a cycle goes through the spanning-forest merge times
    est2 = estimate_tail(cycle, alpha=1.0, threshold=0, cfg=cfg)
    assert est2.mean == 1.0
    with pytest.raises(ParameterError):
        estimate_tail(tree, alpha=1.5, threshold=0, cfg=cfg)


def test_compare_strategies_uses_common_randomness():
    g = _path(8)
    cfg = EstimatorConfig(replications=60, seed=11)
    same = strategies.blind_threshold(4)
    ests, diffs = compare_strategies(g, None, [same, same], cfg)
    assert ests[0].mean == ests[1].mean
    d = diffs[(0, 1)]
    assert d.mean == 0.0 and d.std_error == 0.0
    with pytest.raises(ParameterError):
        compare_strategies(g, None, [same], cfg)


def test_compare_diff_mean_is_mean_difference():
    g, seq = graphs.gen_named_family("random_tree", {"n": 15, "seed": 6})
    cfg = EstimatorConfig(replications=80, seed=13)
    specs = [strategies.blind_threshold(8), strategies.greedy_gain()]
    ests, diffs = compare_strategies(g, seq, specs, cfg)
    assert diffs[(0, 1)].mean == pytest.approx(ests[0].mean - ests[1].mean)


def test_blind_value_scan_matches_exact_curve():
    g = _path(3)
    cfg = EstimatorConfig(replications=4000, seed=17)
    curve = blind_value_scan(g, cfg)
    assert curve.shape == (4,)
    assert curve[0] == 0.0 and curve[3] == 1.0
    assert curve[2] == pytest.approx(4 / 3, abs=0.05)


def test_thread_count_does_not_change_estimates():
    g, seq = graphs.gen_named_family("random_tree", {"n": 60, "seed": 21})
    spec = strategies.greedy_gain()
    results = [
        estimate_strategy(
            g, seq, spec,
            EstimatorConfig(replications=64, seed=31, threads=threads),
        )
        for threads in (1, 3, 8)
    ]
    assert results[0] == results[1] == results[2]
