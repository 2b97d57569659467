"""Incremental activation state vs from-scratch recounts."""

import random
from fractions import Fraction

import numpy as np
import pytest

from stopcc import exact, graphs
from stopcc.activation import (
    ActivationState,
    check_permutation,
    component_count_trace,
    run_permutation,
)
from stopcc.errors import UsageError, ValidationError
from stopcc.graphs import Graph


def test_path_trace_by_hand():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    trace = run_permutation(g, None, [0, 2, 1])
    assert [s.cc for s in trace] == [0, 1, 2, 1]
    assert [s.nbr_sum for s in trace] == [0, 1, 2, 0]
    assert [s.wv for s in trace] == [None] * 4


def test_activation_deltas_and_mask():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    state = ActivationState(g)
    d = state.activate(0)
    assert (d.delta_cc, d.cc, d.nbr_sum) == (1, 1, 1)
    assert state.active_mask == 0b001
    d = state.activate(2)
    assert (d.delta_cc, d.cc, d.nbr_sum) == (1, 2, 2)
    d = state.activate(1)
    assert (d.delta_cc, d.cc, d.nbr_sum) == (-1, 1, 0)
    assert state.active_mask == 0b111


def test_expected_gain_small_cases():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    state = ActivationState(g)
    state.activate(0)
    # two inactive vertices, one adjacent to the active component
    assert state.expected_gain() == Fraction(1, 2)
    state.activate(2)
    assert state.expected_gain() == Fraction(-1, 1)
    state.activate(1)
    with pytest.raises(UsageError):
        state.expected_gain()


def test_usage_errors():
    g = Graph.from_edges(2, [(0, 1)])
    state = ActivationState(g)
    with pytest.raises(UsageError):
        state.activate(5)
    state.activate(0)
    with pytest.raises(UsageError):
        state.activate(0)
    with pytest.raises(UsageError):
        state.adjacent_component_count(0)  # active
    with pytest.raises(UsageError):
        state.component_root(1)  # inactive
    assert state.component_root(0) == 0
    assert state.adjacent_component_count(1) == 1


def test_sequence_graph_mismatch_rejected():
    g = Graph.from_edges(2, [(0, 1)])
    seq = graphs.gen_random_ktree(1, 5, seed=0)
    with pytest.raises(ValidationError):
        ActivationState(g, seq)


def test_check_permutation():
    check_permutation([2, 0, 1], 3)
    check_permutation(np.array([2, 0, 1]), 3)
    check_permutation([], 0)
    bad = [
        [0, 0, 1],
        [0, 1],
        np.array([0, 2, 2]),
        (v for v in [0, 2, 1]),  # one-shot: checking it would consume it
        [[0, 2, 1]],
        ["0", "2", "1"],
    ]
    for sigma in bad:
        with pytest.raises(ValidationError):
            check_permutation(sigma, 3)
    with pytest.raises(ValidationError):
        run_permutation(Graph.from_edges(3, [(0, 1)]), None, iter([0, 2, 1]))


def _random_graph(rng, n):
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def test_invariants_on_random_graphs():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(2, 18)
        g = _random_graph(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        state = ActivationState(g)
        mask = 0
        for v in sigma:
            state.activate(v)
            mask |= 1 << v
            assert state.cc == state.recount_cc()
            assert state.nbr_sum == state.recount_nbr_sum()
            assert state.active_mask == mask


def test_wv_invariant_on_random_sequences():
    rng = random.Random(7)
    for _ in range(15):
        k = rng.randrange(1, 4)
        n = rng.randrange(k + 1, 25)
        seq = graphs.gen_random_kdegenerate(k, n, rng.random())
        g = graphs.graph_from_construction(seq)
        sigma = list(range(n))
        rng.shuffle(sigma)
        state = ActivationState(g, seq)
        for v in sigma:
            state.activate(v)
            assert state.wv == state.recount_wv()


def test_fast_trace_matches_full_engine():
    rng = random.Random(3)
    cases = [Graph.from_edges(0, []), Graph.from_edges(1, []),
             Graph.from_edges(6, [])]
    for _ in range(20):
        cases.append(_random_graph(rng, rng.randrange(2, 20)))
    for _ in range(10):
        n = rng.randrange(2, 20)
        tree, _ = graphs.gen_named_family("random_tree", {"n": n, "seed": n})
        # a sparser forest: a random subset of the tree's edges
        forest = Graph.from_edges(n, [e for e in tree.edges() if rng.random() < 0.5])
        cases += [tree, forest]
    for g in cases:
        n = g.n
        sigma = list(range(n))
        rng.shuffle(sigma)
        full = [s.cc for s in run_permutation(g, None, sigma)]
        assert component_count_trace(g, sigma) == full
        # a prefix of a permutation gives the same trace, cut at its length
        l = rng.randrange(n + 1)
        prefix = component_count_trace(g, sigma[:l])
        assert prefix == full[: l + 1]
        mask = sum(1 << v for v in sigma[:l])
        assert prefix[-1] == exact.cc_of_mask(exact._adjacency_masks(g), mask)


def test_large_graph_skips_mask_but_keeps_counts():
    g, _ = graphs.gen_named_family("random_tree", {"n": 40, "seed": 2})
    state = ActivationState(g)
    assert state.active_mask is None
    sigma = list(range(40))
    random.Random(1).shuffle(sigma)
    for v in sigma[:25]:
        state.activate(v)
    assert state.cc == state.recount_cc()
    assert state.nbr_sum == state.recount_nbr_sum()
