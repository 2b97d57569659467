"""Seeded Monte Carlo estimators: reproducibility, coverage, fast paths."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from stopcc import exact, graphs, montecarlo, strategies
from stopcc.activation import ActivationState, component_count_trace
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
    for threads in (0, -5):
        with pytest.raises(ParameterError):
            EstimatorConfig(replications=10, seed=1, threads=threads)
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ParameterError, match="seed"):
            EstimatorConfig(replications=10, seed=seed)
    assert EstimatorConfig(replications=10, seed=np.int64(3)).seed == 3


def test_one_replication_has_zero_spread():
    cfg = EstimatorConfig(replications=1, seed=2)
    est = estimate_strategy(_path(6), None, strategies.blind_threshold(3), cfg)
    assert est.std_error == 0.0
    assert est.ci_low == est.mean == est.ci_high


def test_every_estimate_draws_each_replication_once_in_order():
    g, seq = graphs.gen_named_family("random_tree", {"n": 12, "seed": 4})
    cfg = EstimatorConfig(replications=7, seed=19)
    specs = [strategies.blind_threshold(5), strategies.greedy_gain()]
    estimates = (
        lambda: estimate_strategy(g, seq, specs[0], cfg),
        lambda: compare_strategies(g, seq, specs, cfg),
        lambda: estimate_tail(g, Fraction(1, 2), 3, cfg),
        lambda: blind_value_scan(g, cfg),
    )
    for estimate in estimates:
        with mock.patch.object(montecarlo, "replication_permutation",
                               wraps=montecarlo.replication_permutation) as draw:
            estimate()
        assert draw.call_args_list == [mock.call(19, i, 12) for i in range(7)]


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


def test_blind_value_scan_is_the_mean_of_the_traces_bit_for_bit():
    # the scan sums merge counts in integers; the reference sums each
    # replication's trace in floats, as the scan once did
    tree, _ = graphs.gen_named_family("random_tree", {"n": 40, "seed": 8})
    label = np.random.default_rng(2).permutation(40)
    relabelled = Graph.from_edges(40, [(label[u], label[v]) for u, v in tree.edges()])
    grid, _ = graphs.gen_named_family("grid", {"d": 2, "side": 6})
    star, _ = graphs.gen_named_family("two_star_plus_star", {"n": 3000})
    # witness, forest and spanning-tree branches of the kernel
    branches = {"path": (_path(25), True, True), "star": (star, True, False),
                "tree": (relabelled, False, True), "grid": (grid, False, False)}
    for name, (g, eliminates, forest) in branches.items():
        assert (g.ids_eliminate, g.is_forest()) == (eliminates, forest), name
        for reps in (1, 2, 7):
            cfg = EstimatorConfig(replications=reps, seed=19)
            sums = np.zeros(g.n + 1, dtype=np.float64)
            for i in range(reps):
                sigma = replication_permutation(cfg.seed, i, g.n)
                sums += np.array(component_count_trace(g, sigma), dtype=np.float64)
            scan = blind_value_scan(g, cfg)
            assert scan.dtype == np.float64, (name, reps)
            assert scan.tobytes() == (sums / reps).tobytes(), (name, reps)


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


def _adj_built(g):
    # adj is a cached property: built once, on first read, into the instance
    return "adj" in vars(g)


def test_kernel_paths_leave_adj_unbuilt():
    cfg = EstimatorConfig(replications=6, seed=3)
    specs = [strategies.blind_threshold(7), strategies.blind_fraction(Fraction(1, 3)),
             strategies.two_phase(Fraction(1, 3), Fraction(1, 2), [0, 1])]
    for family, params in (("grid", {"d": 2, "side": 20}),
                           ("two_star_plus_star", {"n": 3000})):
        g, _ = graphs.gen_named_family(family, params)
        assert not _adj_built(g), family
        estimate_tail(g, Fraction(1, 2), 10, cfg)
        assert not _adj_built(g), (family, "estimate_tail")
        blind_value_scan(g, cfg)
        assert not _adj_built(g), (family, "blind_value_scan")
        for spec in specs:
            estimate_strategy(g, None, spec, cfg)
            assert not _adj_built(g), (family, spec.describe())


def test_step_by_step_paths_build_adj_and_keep_their_values():
    g, _ = graphs.gen_named_family("grid", {"d": 2, "side": 8})
    cfg = EstimatorConfig(replications=40, seed=5)
    # the grid is not chordal, so greedy plays every order step by step
    assert estimate_strategy(g, None, strategies.greedy_gain(), cfg).mean == 395 / 40
    assert _adj_built(g) and g.elimination_arcs is None
    assert estimate_strategy(g, None, strategies.greedy_gain(True), cfg).mean == 398 / 40
    small, _ = graphs.gen_named_family("grid", {"d": 2, "side": 3})
    assert not _adj_built(small)
    for tier in (True, False):
        table = exact.solve_dp(small, exact=tier)
        assert table.root_value == (Fraction(4157, 1890) if tier else 4157 / 1890)
        assert int(table.stop.sum()) == 362
    assert _adj_built(small)
