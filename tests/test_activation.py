"""Incremental activation state vs from-scratch recounts."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from stopcc import activation, exact, graphs, strategies
from stopcc.activation import (
    ActivationState,
    check_permutation,
    component_count,
    component_count_trace,
    nbr_sum_trace,
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
    with pytest.raises(UsageError, match="construction sequence"):
        state.recount_wv()  # no sequence, so no witness count


def test_sequence_graph_mismatch_rejected():
    g = Graph.from_edges(2, [(0, 1)])
    seq = graphs.gen_random_ktree(1, 5, seed=0)
    with pytest.raises(ValidationError):
        ActivationState(g, seq)


def test_bad_sequence_contents_are_refused_before_a_play():
    # entry 1 attaches to vertex 2, placed after it, or to 7, outside the
    # graph: a play read both (counts 0, 1, 2, 1, or an IndexError)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    short = Graph.from_edges(2, [(0, 1)])
    rule = strategies.parse_strategy("twophase:alpha=1/2,gamma=1/2,trigger=initial_clique")
    for member in (2, 7):
        seq = graphs.ConstructionSequence(1, ((0, ()), (1, {member}), (2, {1})))
        named = rf"entry 1: attachment references unplaced vertices \[{member}\]"
        with pytest.raises(ValidationError, match=named):
            ActivationState(g, seq)
        with pytest.raises(ValidationError, match=named):
            run_permutation(g, seq, [0, 1, 2])
        # a wrong vertex count is named first, by each of its four callers
        for call in (lambda: ActivationState(short, seq),
                     lambda: strategies.order_scorer(short, seq, [rule]),
                     lambda: exact.strategy_value(short, seq, rule),
                     lambda: exact.brute_force_strategy_value(short, seq, rule)):
            with pytest.raises(ValidationError, match="disagree on vertex count"):
                call()


def test_check_permutation():
    assert check_permutation([2, 0, 1], 3).tolist() == [2, 0, 1]
    check_permutation(np.array([2, 0, 1]), 3)
    assert check_permutation([], 0).dtype.kind == "i"
    assert check_permutation(np.array([1, 2, 0], dtype=np.uint64), 3).tolist() == [1, 2, 0]
    bad = [
        [0, 0, 1],
        [-1, 0, 1],
        [0, 1, 3],
        [0, 1],
        np.array([0, 2, 2]),
        (v for v in [0, 2, 1]),  # one-shot: checking it would consume it
        [[0, 2, 1]],
        ["0", "2", "1"],
        [0.0, 2.0, 1.0],
    ]
    for sigma in bad:
        with pytest.raises(ValidationError, match=r"not a permutation of 0\.\.2"):
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
        for i, v in enumerate(sigma):
            if i == n // 2:
                # a copy plays the rest in another order and leaves state alone
                branch = state.copy()
                for w in reversed(sigma[i:]):
                    branch.activate(w)
                    assert (branch.cc, branch.nbr_sum, branch.wv) == (
                        branch.recount_cc(), branch.recount_nbr_sum(), branch.recount_wv())
            state.activate(v)
            assert (state.cc, state.nbr_sum, state.wv) == (
                state.recount_cc(), state.recount_nbr_sum(), state.recount_wv())


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
        assert all(component_count(g, sigma[:j]) == full[j] for j in range(n + 1))
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


def _flood_fill_labels(g, active):
    """Component label of every active vertex, by a flood fill of its own."""
    label = {}
    for s in range(g.n):
        if active[s] and s not in label:
            label[s] = s
            stack = [s]
            while stack:
                for w in g.adj[stack.pop()]:
                    if active[w] and w not in label:
                        label[w] = s
                        stack.append(w)
    return label


def _merge_rule_orders():
    """Orders of about 200 vertices that move the surviving root often."""
    n = 200
    path, _ = graphs.gen_named_family("path", {"n": n})
    ends = [v for pair in zip(range(n // 2), range(n - 1, n // 2 - 1, -1)) for v in pair]
    yield "path from both ends", path, None, ends
    star, star_seq = graphs.gen_named_family("star", {"n": n - 1})
    yield "star leaves first", star, star_seq, [*range(1, n), 0]
    side = 14
    grid, _ = graphs.gen_named_family("grid", {"d": 2, "side": side})
    yield "grid row-major", grid, None, list(range(side * side))
    snake = [r * side + (c if r % 2 == 0 else side - 1 - c)
             for r in range(side) for c in range(side)]
    yield "grid snake", grid, None, snake
    seq = graphs.gen_random_ktree(3, n, seed=5)
    sigma = list(range(n))
    random.Random(5).shuffle(sigma)
    yield "3-tree random", graphs.graph_from_construction(seq), seq, sigma


def test_merge_survivor_roots_each_component_once():
    for name, g, seq, sigma in _merge_rule_orders():
        assert sorted(sigma) == list(range(g.n)), name
        state = ActivationState(g, seq)
        for v in sigma:
            state.activate(v)
            assert (state.cc, state.nbr_sum) == (
                state.recount_cc(), state.recount_nbr_sum()), (name, v)
            # one root per flood-filled component, a different one for each
            roots = {}
            for u, label in _flood_fill_labels(g, state.active).items():
                roots.setdefault(label, set()).add(state.component_root(u))
            assert all(len(r) == 1 for r in roots.values()), (name, v)
            assert len(set.union(*roots.values())) == len(roots) == state.cc, (name, v)


def _scipy_recount(g, vertices):
    """Components of the subgraph induced by vertices, counted by scipy; the
    other vertices are isolated in the matrix and subtracted."""
    keep = np.zeros(g.n, dtype=bool)
    keep[vertices] = True
    eu, ev = g.edge_arrays
    both = keep[eu] & keep[ev]
    m = csr_matrix((np.ones(int(both.sum())), (eu[both], ev[both])), shape=(g.n, g.n))
    return connected_components(m, directed=False)[0] - (g.n - len(vertices))


@st.composite
def forests_and_ktrees_with_orders(draw):
    """(graph, relabelled, order, prefix length): a random k-tree, k = 1..3,
    or for k = 0 a random forest with several trees and isolated vertices,
    with its construction-order ids or with random ones."""
    k = draw(st.integers(0, 3))
    n = draw(st.integers(max(k, 1), 14))
    if k:
        g = graphs.graph_from_construction(graphs.gen_random_ktree(k, n, draw(st.integers(0, 999))))
    else:  # each vertex hangs from an earlier one or, one time in three, starts a tree
        g = Graph.from_edges(n, [(draw(st.integers(0, v - 1)), v)
                                 for v in range(1, n) if draw(st.integers(0, 2))])
    relabelled = draw(st.booleans())
    if relabelled:
        label = draw(st.permutations(range(n)))
        g = Graph.from_edges(n, [(label[u], label[v]) for u, v in g.edges()])
    return g, relabelled, draw(st.permutations(range(n))), draw(st.integers(0, n))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(forests_and_ktrees_with_orders())
def test_kernel_matches_a_scipy_recount_on_both_labellings(case):
    g, relabelled, sigma, l = case
    # construction-order ids are an elimination order; random ones seldom are
    assert relabelled or g.ids_eliminate
    def spy():
        return mock.patch.object(activation, "spanning_forest", wraps=activation.spanning_forest)
    with spy() as forest:
        counts = [component_count(g, sigma[:t]) for t in range(g.n + 1)]
    # a prefix count needs no merge times
    assert not forest.called
    with spy() as forest:
        trace = component_count_trace(g, sigma)
        prefix = component_count_trace(g, sigma[:l])
    expected = [_scipy_recount(g, sigma[:t]) for t in range(g.n + 1)]
    assert trace == counts == expected
    assert prefix == expected[: l + 1]
    # the witness branch serves every graph with eliminating ids, so the
    # spanning forest serves exactly the non-forests whose ids do not eliminate
    assert forest.called == (not g.is_forest() and not g.ids_eliminate)
    # every input is chordal: the neighbourhood sums agree with the engine's
    assert nbr_sum_trace(g, sigma).tolist() == \
        [s.nbr_sum for s in run_permutation(g, None, sigma)]


def test_prefix_counts_of_large_non_chordal_graphs_match_a_scipy_recount():
    # relabelled ids, so neither the witness branch nor a forest serves them
    rng = np.random.default_rng(28)
    side, n = 60, 3600
    grid = [(v, v + 1) for v in range(n) if v % side < side - 1] + \
        [(v, v + side) for v in range(n - side)]
    cases = [(n, grid), (5000, [(v, (v + 1) % 5000) for v in range(5000)])]
    for m in (3000, 6000):  # random graphs of average degree 1.5 and 3
        pairs = rng.integers(0, 4000, size=(m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        cases.append((4000, np.unique(np.sort(pairs, axis=1), axis=0)))
    for n, edges in cases:
        label = rng.permutation(n)
        g = Graph.from_edges(n, label[np.asarray(edges)])
        assert not g.ids_eliminate and not g.is_forest()
        sigma = rng.permutation(n)
        with mock.patch.object(activation, "component_roots",
                               wraps=activation.component_roots) as hooked:
            for t in (0, 1, n // 10, n // 3, n // 2, 2 * n // 3, n - 1, n):
                assert component_count(g, sigma[:t]) == _scipy_recount(g, sigma[:t]), (n, t)
        assert hooked.call_count == 8


def test_eliminating_ids_never_ask_for_the_component_count():
    # a path numbered along itself eliminates: the witness branch comes
    # first, so the kernel never computes the component count
    n = 50
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    sigma = np.random.default_rng(5).permutation(n)
    assert component_count_trace(g, sigma) == \
        [_scipy_recount(g, sigma[:t]) for t in range(n + 1)]
    assert "_component_count" not in vars(g)


@st.composite
def chordal_graphs_with_orders(draw):
    # every chordal graph arises so, up to labels: vertex i joins a subset of
    # the clique {j} + (j's attachment) of some earlier j (any subset of a
    # clique in a reversed perfect elimination order lies in such a clique)
    n = draw(st.integers(0, 12))
    closed, edges = [], []
    for i in range(n):
        attach = []
        if i:
            j = draw(st.integers(0, i - 1))
            attach = [u for u in closed[j] if draw(st.booleans())]
        closed.append([i, *attach])
        edges += [(u, i) for u in attach]
    label = draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])
    return g, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(chordal_graphs_with_orders())
def test_nbr_sum_trace_matches_the_engine_on_chordal_graphs(case):
    g, sigma = case
    assert g.elimination_arcs is not None
    assert nbr_sum_trace(g, sigma).tolist() == \
        [s.nbr_sum for s in run_permutation(g, None, sigma)]


def test_nbr_sum_trace_needs_a_chordal_graph():
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(UsageError, match="chordal"):
        nbr_sum_trace(cycle, [0, 1, 2, 3])
