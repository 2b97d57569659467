"""Data types, generators, families, and file formats."""

import collections
import gc
import io
import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stopcc import activation, graphs
from stopcc.errors import ParameterError, ResourceLimitError, ValidationError
from stopcc.graphs import ConstructionSequence, Graph


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.is_forest() and g.is_connected()


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValidationError):
        Graph.from_edges(-1, [])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    for bad in ([(0.5, 1)], [(0.0, 1)], [(0, "1")], [(0, 1, 2)], [(0,)], [3],
                np.array([[0.0, 1.0]]), np.array([[0, 1, 2]])):
        with pytest.raises(ValidationError, match="not a pair of integer vertex ids"):
            Graph.from_edges(3, bad)
    # an id too large for int64 is out of range, not an overflow
    with pytest.raises(ValidationError, match="edge \\(99999999999999999999,0\\) out of range"):
        Graph.from_edges(3, [(0, 1), (99999999999999999999, 0)])
    with pytest.raises(ValidationError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(1, 1), (-2**64, 0)])
    with pytest.raises(ValidationError, match="out of range for n=3"):
        graphs.read_graph(io.StringIO("n 3\ne 99999999999999999999 0\n"))


def test_vertex_count_must_fit_the_int32_ids():
    # the edge arrays and every kernel hold vertex ids as int32
    for build in (lambda: Graph.from_edges(3_000_000_000, [(0, 2_999_999_999)]),
                  lambda: graphs.read_graph(io.StringIO("n 3000000000\ne 0 2999999999\n"))):
        with pytest.raises(ValidationError, match="int32 id limit 2147483647"):
            build()
    top = graphs.ID_LIMIT
    assert Graph.from_edges(top, [(0, top - 1)]).edges() == [(0, top - 1)]


def _reference_from_edges(n, edges):
    """The per-edge, set-based build that Graph.from_edges replaced."""
    if n < 0:
        raise ValidationError("vertex count must be nonnegative")
    neighbors = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if v in neighbors[u]:
            raise ValidationError(f"duplicate edge ({u},{v})")
        neighbors[u].add(v)
        neighbors[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in neighbors))


def _assert_same_graph(g, ref):
    assert g == ref
    # one int object per vertex id, shared by every adjacency entry
    ids = {}
    for a in g.adj:
        for w in a:
            assert type(w) is int and ids.setdefault(w, w) is w
    eu, ev = g.edge_arrays
    pairs = [(u, v) for u in range(ref.n) for v in ref.adj[u] if u < v]
    expect = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    for arr, col in ((eu, expect[:, 0]), (ev, expect[:, 1])):
        assert arr.dtype == np.int32 and not arr.flags.writeable
        assert arr.tobytes() == col.tobytes()
    assert g.edges() == pairs and g.edge_count == len(pairs)
    assert all(type(x) is int for e in g.edges() for x in e)


def _random_edges(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    rng.shuffle(pairs)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]


def test_from_edges_matches_set_based_reference():
    rng = random.Random(7)
    for n in range(31):
        for _ in range(3):
            edges = _random_edges(rng, n)
            ref = _reference_from_edges(n, edges)
            _assert_same_graph(Graph.from_edges(n, edges), ref)
            _assert_same_graph(Graph.from_edges(n, iter(edges)), ref)
            array = np.array(edges, dtype=np.int64).reshape(-1, 2)
            _assert_same_graph(Graph.from_edges(n, array), ref)


@st.composite
def _edge_lists(draw):
    """(n, edges): n <= 12 and distinct edges in random order and orientation."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_edge_lists())
def test_from_edges_agrees_with_the_adjacency_constructor(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    ref = _reference_from_edges(n, edges)  # Graph(n, adj)
    assert g == ref and hash(g) == hash(ref)
    for a, b in zip(g.edge_arrays, ref.edge_arrays):
        assert a.dtype == b.dtype == np.int32
        assert not (a.flags.writeable or b.flags.writeable)
        assert a.tobytes() == b.tobytes()
    assert g.edges() == ref.edges() and g.edge_count == ref.edge_count
    assert g.adj == ref.adj
    _assert_same_graph(g, ref)  # adj shares one int object per vertex id
    assert g.is_forest() == ref.is_forest()
    arcs, ref_arcs = g.elimination_arcs, ref.elimination_arcs
    assert (arcs is None) == (ref_arcs is None)
    for a, b in zip(arcs or (), ref_arcs or ()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if edges:
        assert g != Graph.from_edges(n, edges[1:])
    assert g != Graph.from_edges(n + 1, edges)


def test_graph_is_immutable():
    g = Graph.from_edges(3, [(0, 1)])
    for name in ("n", "adj", "edge_arrays"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.n == 3 and g.adj == ((1,), (0,), ()) and g.edges() == [(0, 1)]
    assert repr(g) == "Graph(n=3, edges=[(0, 1)])"
    assert g != "Graph(n=3, edges=[(0, 1)])"  # no Graph: __eq__ defers


def test_from_edges_names_the_same_first_offender_as_the_reference():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        n = rng.randrange(0, 12)
        edges = _random_edges(rng, n)
        valid = len(edges)
        for _ in range(rng.randrange(1, 4)):
            kind = rng.choice(("range", "loop", "duplicate"))
            if kind == "range":
                bad = (rng.choice((-1, n, n + 3, -n - 1, 2**70)), rng.randrange(max(n, 1)))
            elif kind == "loop" and n:
                w = rng.randrange(n)
                bad = (w, w)
            elif kind == "duplicate" and edges:
                u, v = rng.choice(edges)
                bad = rng.choice(((u, v), (v, u)))
            else:
                continue
            edges.insert(rng.randrange(len(edges) + 1), bad[::rng.choice((1, -1))])
        if len(edges) == valid:
            continue
        with pytest.raises(ValidationError) as expected:
            _reference_from_edges(n, edges)
        with pytest.raises(ValidationError) as got:
            Graph.from_edges(n, edges)
        assert str(got.value) == str(expected.value), (n, edges)
        if all(abs(x) < 2**63 for e in edges for x in e):
            with pytest.raises(ValidationError) as got:
                Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
            assert str(got.value) == str(expected.value), (n, edges)
        checked += 1
    assert checked > 300


def _bfs_connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0} if n else set()
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_forest_and_connectivity_flags():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert not triangle.is_forest()
    assert triangle.is_connected()
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert two_parts.is_forest()
    assert not two_parts.is_connected()
    assert Graph.from_edges(0, []).is_connected()
    assert Graph.from_edges(1, []).is_connected()
    assert not Graph.from_edges(3, []).is_connected()
    assert not Graph.from_edges(4, [(0, 1), (1, 2)]).is_connected()
    rng = random.Random(11)
    verdicts = set()
    forest_verdicts = set()
    for _ in range(300):
        n = rng.randint(0, 9)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        expected = _bfs_connected(n, edges)
        g = Graph.from_edges(n, edges)
        assert g.is_connected() == expected, (n, edges)
        verdicts.add(expected)
        assert g.is_forest() == _scipy_forest(g), (n, edges)
        forest_verdicts.add(g.is_forest())
        # a random forest: each vertex hangs from an earlier one or starts a tree
        forest = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        in_order = Graph.from_edges(n, forest)
        assert in_order.is_forest() and _scipy_forest(in_order)
        assert "_component_count" not in vars(in_order)  # no count was needed
        label = rng.sample(range(n), n)
        shuffled = Graph.from_edges(n, [(label[u], label[v]) for u, v in forest])
        assert shuffled.is_forest() and _scipy_forest(shuffled)
    assert verdicts == forest_verdicts == {True, False}


def _scipy_forest(g):
    """m = n - c, with c counted by scipy: the independent forest test."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    eu, ev = g.edge_arrays
    c, _ = connected_components(
        csr_matrix((np.ones(len(eu)), (eu, ev)), shape=(g.n, g.n)), directed=False)
    return g.edge_count == g.n - c


def _differential_cases(rng):
    """(graph, weights): n = 0 and 1, random graphs, random forests with
    isolated vertices, and paths, each with random ids and edge weights 1..4
    (so with ties)."""
    graphs_ = [Graph.from_edges(0, []), Graph.from_edges(1, [])]
    for _ in range(150):
        n = rng.randint(0, 30)
        pairs = list(itertools.combinations(range(n), 2))
        graphs_.append(Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))))
        forest = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        graphs_.append(_relabel(Graph.from_edges(n, forest), rng))
        graphs_.append(_relabel(Graph.from_edges(n, [(v - 1, v) for v in range(1, n)]), rng))
    return [(g, np.array([rng.randint(1, 4) for _ in range(g.edge_count)], dtype=np.int64))
            for g in graphs_]


def test_spanning_forest_and_component_roots_match_scipy():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

    forests = 0
    for g, weights in _differential_cases(random.Random(23)):
        n = g.n
        eu, ev = g.edge_arrays
        adjacency = csr_matrix((np.ones(len(eu)), (eu, ev)), shape=(n, n))
        count, labels = connected_components(adjacency, directed=False)
        # scipy numbers the components by their lowest vertices
        lowest = [int(np.flatnonzero(labels == c)[0]) for c in range(count)]
        root = graphs.component_roots(n, eu, ev)
        assert root.tolist() == [lowest[c] for c in labels], g
        assert g._component_count == count, g
        picked = graphs.spanning_forest(n, eu, ev, weights)
        mst = minimum_spanning_tree(csr_matrix((weights, (eu, ev)), shape=(n, n)))
        assert sorted(picked.tolist()) == sorted(mst.data.tolist()), g
        assert g.is_forest() == (g.edge_count == n - count)
        forests += g.is_forest()
    assert forests > 200


def test_spanning_forest_rounds_are_logarithmic():
    # every round at least halves the components that still have an edge;
    # _roots runs once per round
    n = 10**4
    path = _relabel(Graph.from_edges(n, [(v - 1, v) for v in range(1, n)]), random.Random(4))
    eu, ev = path.edge_arrays
    with mock.patch.object(graphs, "_roots", wraps=graphs._roots) as rounds:
        picked = graphs.spanning_forest(n, eu, ev, np.zeros(n - 1, dtype=np.int64))
    assert len(picked) == n - 1
    assert 1 <= rounds.call_count <= math.ceil(math.log2(n)) + 1
    # the keys weight * m + index must fit int64
    with pytest.raises(ResourceLimitError, match="keys of 2 edges overflow"):
        graphs.spanning_forest(3, np.array([0, 1]), np.array([1, 2]), [2**62, 0])


def test_component_roots_rounds_are_logarithmic():
    # every round, each root that is not a local minimum hooks, and a local
    # minimum that nothing hooked onto hooks in the next round; _roots runs
    # once per round, and every vertex's root is 0, the lowest vertex
    n, side = 10**4, 100
    path = [(v - 1, v) for v in range(1, n)]
    grid = [(v, v + 1) for v in range(n) if v % side < side - 1] + \
        [(v, v + side) for v in range(n - side)]
    cases = {
        "relabelled path": _relabel(Graph.from_edges(n, path), random.Random(5)),
        "ascending path": Graph.from_edges(n, path),
        "star at 0": Graph.from_edges(n, [(0, v) for v in range(1, n)]),
        "star at n-1": Graph.from_edges(n, [(v, n - 1) for v in range(n - 1)]),
        "grid": Graph.from_edges(n, grid),
        "relabelled grid": _relabel(Graph.from_edges(n, grid), random.Random(6)),
    }
    for name, g in cases.items():
        with mock.patch.object(graphs, "_roots", wraps=graphs._roots) as rounds:
            root = graphs.component_roots(n, *g.edge_arrays)
        assert root.dtype == np.int32 and not root.any(), name
        assert 1 <= rounds.call_count <= math.ceil(math.log2(n)) + 1, name
    # no edge, no round
    with mock.patch.object(graphs, "_roots", wraps=graphs._roots) as rounds:
        root = graphs.component_roots(3, np.array([], dtype=np.int32), np.array([], dtype=np.int32))
    assert root.tolist() == [0, 1, 2] and not rounds.called


def _sample_k2_sequence():
    return ConstructionSequence(
        2,
        (
            (0, frozenset()),
            (1, frozenset([0])),
            (2, frozenset([0, 1])),
            (3, frozenset([0, 2])),
        ),
    )


def test_construction_sequence_expands_to_expected_graph():
    seq = _sample_k2_sequence()
    g = graphs.graph_from_construction(seq)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    assert graphs.is_ktree(seq, g)
    assert seq.initial_clique() == frozenset([0, 1])
    assert seq.attachment_map()[3] == frozenset([0, 2])


def test_sequence_validation_names_offending_entry():
    dup = ConstructionSequence(1, ((0, frozenset()), (0, frozenset([0]))))
    with pytest.raises(ValidationError, match="entry 1: vertex 0 appears twice"):
        dup.validate()
    wrong_size = ConstructionSequence(
        2, ((0, frozenset()), (1, frozenset([0])), (2, frozenset([0]))))
    with pytest.raises(ValidationError, match="entry 2: attachment set has size 1"):
        wrong_size.validate()
    unplaced = ConstructionSequence(
        1, ((0, frozenset()), (1, frozenset([5]))))
    with pytest.raises(ValidationError, match="unplaced vertices \\[5\\]"):
        unplaced.validate()
    bad_initial = ConstructionSequence(
        2, ((0, frozenset()), (1, frozenset()), (2, frozenset([0, 1]))))
    with pytest.raises(ValidationError, match="entry 1: initial-clique"):
        bad_initial.validate()
    bad_ids = ConstructionSequence(1, ((0, frozenset()), (7, frozenset([0]))))
    with pytest.raises(ValidationError, match="0..n-1"):
        bad_ids.validate()
    with pytest.raises(ValidationError, match="width k"):
        ConstructionSequence(0, ()).validate()


def test_an_order_of_frozenset_pairs_is_kept_and_any_other_rebuilt():
    order = _sample_k2_sequence().order
    assert type(order) is tuple and ConstructionSequence(2, order).order is order
    entry = collections.namedtuple("Entry", "v m")

    class Ids(frozenset):
        pass

    others = [list(order), iter(order), [list(e) for e in order],
              tuple((v, set(m)) for v, m in order), tuple((v, sorted(m)) for v, m in order),
              tuple(entry(v, m) for v, m in order), tuple((v, Ids(m)) for v, m in order),
              (*order[:3], (3, Ids(order[3][1])))]
    for other in others:
        seq = ConstructionSequence(2, other)
        assert seq.order == order and seq.order is not other
        assert all(type(e) is tuple and type(e[1]) is frozenset for e in seq.order)
    for bad in (((0, frozenset(), 1),), (*order, (4, frozenset([0, 1]), None))):
        with pytest.raises(ValueError, match="too many values to unpack"):
            ConstructionSequence(2, bad)


def test_ksystem_validation():
    graphs.KSystem(4, (((0), frozenset([1, 2])),)).validate()
    with pytest.raises(ValidationError, match="own attachment"):
        graphs.KSystem(4, ((0, frozenset([0, 1])),)).validate()
    with pytest.raises(ValidationError, match="two pairs"):
        graphs.KSystem(4, ((0, frozenset([1])), (0, frozenset([2])))).validate()
    with pytest.raises(ValidationError, match="ground set"):
        graphs.KSystem(2, ((0, frozenset([5])),)).validate()
    with pytest.raises(ValidationError, match="mixed"):
        graphs.KSystem(4, ((0, frozenset([1])), (2, frozenset([1, 3])))).validate()


def test_ksystem_from_construction_drops_initial_clique():
    ks = graphs.ksystem_from_construction(_sample_k2_sequence())
    assert ks.ground_size == 4
    assert ks.pairs == ((2, frozenset([0, 1])), (3, frozenset([0, 2])))
    ks.validate()


def test_random_ktree_is_valid_and_deterministic():
    for k in (1, 2, 3):
        seq = graphs.gen_random_ktree(k, 30, seed=5)
        seq.validate()
        g = graphs.graph_from_construction(seq)
        assert graphs.is_ktree(seq, g)
        # maximal k-degenerate edge count: k*n - k(k+1)/2
        assert g.edge_count == k * 30 - k * (k + 1) // 2
        again = graphs.gen_random_ktree(k, 30, seed=5)
        assert again == seq
        assert graphs.gen_random_ktree(k, 30, seed=6) != seq


def test_random_ktree_width_one_is_a_tree():
    seq = graphs.gen_random_ktree(1, 40, seed=9)
    g = graphs.graph_from_construction(seq)
    assert g.is_forest() and g.is_connected()


def test_random_ktree_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        graphs.gen_random_ktree(0, 5, 0)
    with pytest.raises(ParameterError):
        graphs.gen_random_ktree(3, 2, 0)


def test_random_kdegenerate_usually_not_a_ktree():
    hits = 0
    for seed in range(10):
        seq = graphs.gen_random_kdegenerate(2, 30, seed)
        seq.validate()
        g = graphs.graph_from_construction(seq)
        assert g.edge_count == 2 * 30 - 3
        hits += graphs.is_ktree(seq, g)
    assert hits <= 2


def _reference_random_ktree(k, n, seed):
    """The clique-list generator that gen_random_ktree replaced: it keeps
    every clique created so far and picks one with choice."""
    order = [(i, frozenset(range(i))) for i in range(k)]
    rng = random.Random(("ktree", k, n, seed).__repr__())
    cliques = [frozenset(range(k))]
    for v in range(k, n):
        m = rng.choice(cliques)
        order.append((v, m))
        for w in m:
            cliques.append((m - {w}) | {v})
    return ConstructionSequence(k, tuple(order))


def test_random_ktree_draws_what_the_clique_list_drew():
    cases = [(k, n, seed) for k in range(1, 6) for n in range(k, 201) for seed in range(10)]
    # the size of the greedy_ktree benchmark's 2-tree
    cases += [(2, 10**4, seed) for seed in range(4)]
    for case in cases:
        seq, ref = graphs.gen_random_ktree(*case), _reference_random_ktree(*case)
        assert seq.order == ref.order, case
        # later draws read the sets' iteration order, so it is pinned too
        assert [tuple(m) for _, m in seq.order] == [tuple(m) for _, m in ref.order], case


def test_draws_below_are_what_randrange_draws():
    # 2^j - 1, 2^j and 2^j + 1 up to 2^40: above 32 bits getrandbits reads
    # several words; then the bounds of the k-tree's picks and of the random
    # tree's Pruefer code
    powers = [1, 2, *(2**j + d for j in range(2, 41) for d in (-1, 0, 1))]
    cases = [powers, *(range(1, 1 + (60 - k) * k, k) for k in range(1, 6)), [40] * 38]
    for seed in range(5):
        for bounds in cases:
            rng, twin = random.Random(seed), random.Random(seed)
            assert graphs._draw_below(rng, bounds) == [twin.randrange(c) for c in bounds]
            assert rng.getstate() == twin.getstate()


def test_random_ktree_memory_is_linear_in_n_times_k():
    # the clique list held (n - k) * k sets of k ids: a 76.5 MiB peak here,
    # against 13.4 MiB for the n sets of the sequence alone
    tracemalloc.start()
    try:
        graphs.gen_random_ktree(8, 20000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20, f"peak {peak / 2**20:.1f} MiB"


_WIDTH_K_MAKERS = (lambda k, n: graphs.gen_random_ktree(k, n, 0),
                   lambda k, n: graphs.gen_random_kdegenerate(k, n, 0),
                   lambda k, n: graphs.gen_named_family("k_star", {"k": k, "n": n}))


def test_wide_initial_clique_is_refused_before_it_is_built(monkeypatch):
    # k = 10^4 would build 5 * 10^7 ids, about 4.5 GB; the refusal names the
    # estimate, and the id limit is still checked first
    big = graphs.ID_LIMIT + 1
    for make in _WIDTH_K_MAKERS:
        with pytest.raises(ResourceLimitError, match="width-10000 sequence needs about 4999 MB"):
            make(10_000, 10_000)
        with pytest.raises(ParameterError, match="int32 id limit"):
            make(big, big)
    # the budget is inclusive.  At n = 60 a 51-clique would be cheaper than
    # a 50-clique: it turns one later entry of 50 ids, at _LATER_ID_BYTES
    # each, into clique ids at SEQUENCE_ID_BYTES; at n = 100 it costs more
    for make, later_ids in zip(_WIDTH_K_MAKERS, (50, 50, 0)):
        monkeypatch.setattr(graphs, "SEQUENCE_BUDGET", graphs._sequence_bytes(50, 100, later_ids))
        assert make(50, 100) is not None
        with pytest.raises(ResourceLimitError, match="width-51 sequence"):
            make(51, 100)
        with pytest.raises(ResourceLimitError, match="width-50 sequence"):
            make(50, 101)


def test_long_sequences_are_refused_before_they_are_built():
    # the later entries are estimated too: 10^7 entries of a 2-tree would
    # take about 3.5 GB, and of a 100-tree tens of GB; the k_star family
    # shares one set, so its entries cost the fixed part alone
    for make in _WIDTH_K_MAKERS[:2]:
        with pytest.raises(ResourceLimitError, match="width-2 sequence needs about 7999 MB"):
            make(2, 10**7)
        with pytest.raises(ResourceLimitError, match="width-100 sequence"):
            make(100, 10**7)
    with pytest.raises(ResourceLimitError, match="width-2 sequence needs about 4999 MB"):
        _WIDTH_K_MAKERS[2](2, 10**7)


def test_random_ktree_puts_back_the_callers_collector_state():
    # the generator pauses the cyclic collector while it builds; afterwards
    # gc.isenabled() is what it was, after a normal call, after a call that
    # raises, and when the caller had the collector off
    collecting = []

    def build(k, order):
        collecting.append(gc.isenabled())
        return ConstructionSequence(k, order)

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with mock.patch.object(graphs, "ConstructionSequence", build):
                seq = graphs.gen_random_ktree(2, 50, 1)
            assert seq == graphs.gen_random_ktree(2, 50, 1)
            assert gc.isenabled() is enabled
            with pytest.raises(ParameterError, match="k must be >= 1"):
                graphs.gen_random_ktree(0, 5, 1)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collecting == [False, False]


def _reference_is_ktree(seq, g):
    """The pair-by-pair check that is_ktree replaced."""
    return all(g.has_edge(a, b) for _, m in seq.order[seq.k:]
               for a, b in itertools.combinations(sorted(m), 2))


def test_is_ktree_matches_the_pairwise_check():
    answers = []
    for k in range(1, 5):
        for n in (k, k + 1, 8, 30):
            for seed in range(5):
                for make in (graphs.gen_random_ktree, graphs.gen_random_kdegenerate):
                    seq = make(k, n, seed)
                    for g in (graphs.graph_from_construction(seq), Graph.from_edges(n, [])):
                        answers.append(graphs.is_ktree(seq, g))
                        assert answers[-1] == _reference_is_ktree(seq, g), (make, k, n, seed)
    assert True in answers and False in answers


# ids the array check must not read as vertices: out of int64, negative,
# not integers, or only equal to one
_BAD_IDS = (-1, 2**70, -2**70, 1.5, 1.0, "a")


def _as_float(x):
    return float(x) if isinstance(x, int) else x


@st.composite
def _faulty_sequences(draw):
    """A random k-tree or k-degenerate sequence, its ids permuted, with up to
    three faults: a vertex id replaced, a member added, dropped or replaced,
    two entries swapped, an entry's ids made floats, or another width."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 10))
    make = draw(st.sampled_from((graphs.gen_random_ktree, graphs.gen_random_kdegenerate)))
    label = draw(st.permutations(range(n)))
    order = [[label[v], {label[w] for w in m}]
             for v, m in make(k, n, draw(st.integers(0, 99))).order]
    ids = st.sampled_from((*range(-1, n + 2), *_BAD_IDS))
    for _ in range(draw(st.integers(0, 3))):
        entry = order[draw(st.integers(0, n - 1))]
        fault = draw(st.sampled_from(
            ("vertex", "add", "drop", "replace", "swap", "float", "width")))
        if fault == "vertex":
            entry[0] = draw(ids)
        if fault in ("drop", "replace") and entry[1]:
            entry[1].discard(draw(st.sampled_from(sorted(entry[1], key=repr))))
        if fault in ("add", "replace"):
            entry[1].add(draw(ids))
        if fault == "swap":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            order[i], order[j] = order[j], order[i]
        if fault == "float":
            entry[:] = _as_float(entry[0]), set(map(_as_float, entry[1]))
        if fault == "width":
            k = draw(st.integers(0, 5))
    return ConstructionSequence(k, tuple(order))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_faulty_sequences())
# ids that only equal an integer, and ids that do not compare
@example(ConstructionSequence(1, ((0, ()), (1.0, (0,)))))
@example(ConstructionSequence(2, ((0, ()), (1, (0,)), (2, ("a", 5)))))
def test_array_check_agrees_with_the_per_entry_loop(seq):
    try:
        seq._name_fault()
    except ValidationError as e:
        expected = str(e)
    else:
        expected = None
    for check in (seq.validate, lambda: graphs.graph_from_construction(seq)):
        if expected is None:
            check()
        else:
            with pytest.raises(ValidationError) as got:
                check()
            assert str(got.value) == expected
    if expected is None:
        pairs = [(v, w) for v, m in seq.order for w in m]
        assert graphs.graph_from_construction(seq) == Graph.from_edges(seq.n, pairs)


def test_family_path_star_kstar():
    g, seq = graphs.gen_named_family("path", {"n": 5})
    assert g.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    seq.validate()

    g, seq = graphs.gen_named_family("star", {"n": 4})
    assert g.n == 5 and g.edge_count == 4
    assert len(g.adj[0]) == 4
    seq.validate()

    g, seq = graphs.gen_named_family("k_star", {"k": 3, "n": 8})
    seq.validate()
    assert graphs.is_ktree(seq, g)
    assert all(m == frozenset([0, 1, 2]) for _, m in seq.order[3:])


def test_family_star_plus_path_shape():
    g, seq = graphs.gen_named_family("star_plus_path", {"n": 3})
    # star with n+1 leaves plus a path on n-1 vertices hanging off the center
    assert g.n == 7 and g.edge_count == 6
    assert len(g.adj[4]) == 5  # center: 4 leaves + first path vertex
    seq.validate()
    assert g.is_forest() and g.is_connected()


def _reference_tree_family_orders(n):
    """Hand-written construction orders of the path, star and star_plus_path
    families with parameter n, as (vertex, attachment vertex or None) lists."""
    path = [(0, None)] + [(v, v - 1) for v in range(1, n)]
    star = [(0, None)] + [(leaf, 0) for leaf in range(1, n + 1)]
    center = n + 1  # leaves 0..n, then the path n+2..2n hanging off the center
    spp = [(center, None)] + [(leaf, center) for leaf in range(n + 1)]
    if n >= 2:
        spp += [(n + 2, center)] + [(v, v - 1) for v in range(n + 3, 2 * n + 1)]
    return {"path": path, "star": star, "star_plus_path": spp}


def test_tree_family_sequences_are_pinned():
    for n in range(1, 31):
        for family, ref in _reference_tree_family_orders(n).items():
            if family == "star_plus_path" and n < 2:
                continue
            _, seq = graphs.gen_named_family(family, {"n": n})
            expected = tuple((v, frozenset() if m is None else frozenset([m]))
                             for v, m in ref)
            assert seq == ConstructionSequence(1, expected), (family, n)


def test_family_two_star_plus_star_shape():
    g, seq = graphs.gen_named_family(
        "two_star_plus_star", {"n": 20, "ratio": Fraction(3, 4)})
    assert seq is None
    assert g.n == 20
    # 2-star on 15 vertices (1 + 2*13 edges), star on 5 (4 edges), 1 joining edge
    assert g.edge_count == 27 + 4 + 1
    assert g.has_edge(0, 1) and g.has_edge(2, 15)
    with pytest.raises(ParameterError, match="split"):
        graphs.gen_named_family("two_star_plus_star", {"n": 6})
    with pytest.raises(ParameterError, match="attach"):
        graphs.gen_named_family("two_star_plus_star", {"n": 3000, "attach": "cneter"})


def test_family_random_tree_uniform_and_seeded():
    g, seq = graphs.gen_named_family("random_tree", {"n": 25, "seed": 3})
    assert g.edge_count == 24 and g.is_forest() and g.is_connected()
    seq.validate()
    assert graphs.graph_from_construction(seq).edges() == g.edges()
    g2, _ = graphs.gen_named_family("random_tree", {"n": 25, "seed": 3})
    assert g2.edges() == g.edges()
    one, seq = graphs.gen_named_family("random_tree", {"n": 1, "seed": 3})
    assert one.n == 1 and one.edges() == []
    assert seq.order == ((0, frozenset()),)


def test_family_grid_shape():
    g, seq = graphs.gen_named_family("grid", {"d": 2, "side": 3})
    assert seq is None
    assert g.n == 9 and g.edge_count == 12


def _reference_grid_edges(d, side):
    points = list(itertools.product(range(side), repeat=d))
    index = {pt: i for i, pt in enumerate(points)}
    edges = []
    for pt in points:
        for axis in range(d):
            if pt[axis] + 1 < side:
                nxt = pt[:axis] + (pt[axis] + 1,) + pt[axis + 1:]
                edges.append((index[pt], index[nxt]))
    return edges


def _reference_two_star_plus_star_edges(n, m2, attach):
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, m2)]
    edges += [(1, v) for v in range(2, m2)]
    edges += [(m2, v) for v in range(m2 + 1, n)]
    edges.append((2, m2 if attach == "center" else m2 + 1))
    return edges


def test_family_builders_match_reference_edge_lists():
    for d in (1, 2, 3):
        for side in range(1, 6):
            g, _ = graphs.gen_named_family("grid", {"d": d, "side": side})
            ref = _reference_from_edges(side**d, _reference_grid_edges(d, side))
            _assert_same_graph(g, ref)
    # ids above 256 are not interned by Python, so this checks the sharing
    g, _ = graphs.gen_named_family("grid", {"d": 2, "side": 30})
    _assert_same_graph(g, _reference_from_edges(900, _reference_grid_edges(2, 30)))
    for n, ratio in ((5, Fraction(3, 5)), (20, Fraction(3, 4)), (57, Fraction(9, 10))):
        for attach in ("center", "leaf"):
            g, _ = graphs.gen_named_family(
                "two_star_plus_star", {"n": n, "ratio": ratio, "attach": attach})
            m2 = math.ceil(ratio * n)
            ref = _reference_from_edges(n, _reference_two_star_plus_star_edges(n, m2, attach))
            _assert_same_graph(g, ref)
    for k in (1, 2, 3):
        for n in (k, k + 1, 10, 31):
            for seed in range(3):
                seq = graphs.gen_random_ktree(k, n, seed)
                ref = _reference_from_edges(n, [(v, w) for v, m in seq.order for w in m])
                _assert_same_graph(graphs.graph_from_construction(seq), ref)


def test_family_parameter_errors():
    with pytest.raises(ParameterError, match="unknown family"):
        graphs.gen_named_family("widget", {})
    with pytest.raises(ParameterError, match="missing parameter"):
        graphs.gen_named_family("path", {})
    with pytest.raises(ParameterError, match="unknown parameters"):
        graphs.gen_named_family("path", {"n": 4, "k": 2})
    with pytest.raises(ParameterError, match="integer"):
        graphs.gen_named_family("path", {"n": 2.5})
    # side**d above the int32 ids is refused before any array is built
    with mock.patch.object(np, "arange", side_effect=AssertionError("grid built")):
        with pytest.raises(ParameterError, match="9999800001 vertices"):
            graphs.gen_named_family("grid", {"d": 2, "side": 99999})


def test_graph_file_roundtrip():
    instances = [
        graphs.gen_named_family("random_tree", {"n": 12, "seed": 1})[0],
        graphs.gen_named_family("grid", {"d": 2, "side": 4})[0],
        graphs.graph_from_construction(graphs.gen_random_ktree(2, 15, seed=3)),
        Graph.from_edges(4, []),
    ]
    for g in instances:
        buf = io.StringIO()
        graphs.write_graph(g, buf)
        # one line per edge u < v, in lexicographic order
        lines = [f"n {g.n}"] + [f"e {u} {v}" for u in range(g.n) for v in g.adj[u] if u < v]
        assert buf.getvalue() == "".join(line + "\n" for line in lines)
        back = graphs.read_graph(io.StringIO(buf.getvalue()))
        assert back == g
        _assert_same_graph(back, g)


def test_sequence_file_roundtrip():
    seq = graphs.gen_random_ktree(2, 12, seed=4)
    buf = io.StringIO()
    graphs.write_sequence(seq, buf)
    back = graphs.read_sequence(io.StringIO(buf.getvalue()))
    assert back == seq
    # read_sequence checked it once: expanding it and testing its sets read
    # the checked arrays, with no second pass over the ids
    with mock.patch.object(graphs, "operator", wraps=operator) as ids:
        g = graphs.graph_from_construction(back)
        assert graphs.is_ktree(back, g)
        back.validate()
    assert ids.mock_calls == []
    assert g == graphs.graph_from_construction(seq)
    assert not any(x.flags.writeable for x in back._attachment_arrays)


def test_file_parse_errors_carry_line_numbers():
    with pytest.raises(ValidationError, match="line 1"):
        graphs.read_graph(io.StringIO("m 4\n"))
    with pytest.raises(ValidationError, match="line 2"):
        graphs.read_graph(io.StringIO("n 4\ne 0\n"))
    with pytest.raises(ValidationError, match="line 2: 'x' is not an integer"):
        graphs.read_graph(io.StringIO("n 4\ne 0 x\n"))
    with pytest.raises(ValidationError, match="empty"):
        graphs.read_graph(io.StringIO(""))
    with pytest.raises(ValidationError, match="line 1"):
        graphs.read_sequence(io.StringIO("q 2\n"))
    with pytest.raises(ValidationError, match="line 3"):
        graphs.read_sequence(io.StringIO("k 1\nv 0 m\nv 1 n 0\n"))
    with pytest.raises(ValidationError, match="line 4: duplicate ids"):
        graphs.read_sequence(io.StringIO("k 2\nv 0 m\nv 1 m 0\nv 2 m 0 0\n"))


def test_random_tree_edges_match_prufer_degrees():
    # vertex degree in the decoded tree = 1 + multiplicity in the code
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(3, 40)
        g, _ = graphs.gen_named_family("random_tree", {"n": n, "seed": rng.random()})
        degrees = sorted(len(a) for a in g.adj)
        assert sum(degrees) == 2 * (n - 1)
        assert degrees[0] >= 1


def _chordal_by_elimination(g):
    # the oracle: a graph is chordal iff deleting simplicial vertices, whose
    # remaining neighbours are pairwise adjacent, one at a time empties it
    left = set(range(g.n))
    while left:
        for v in left:
            nbrs = [u for u in g.adj[v] if u in left]
            if all(g.has_edge(a, b) for a, b in itertools.combinations(nbrs, 2)):
                left.remove(v)
                break
        else:
            return False
    return True


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _check_elimination_arcs(g):
    later, earlier, depth = g.elimination_arcs
    assert sorted(map(tuple, np.sort(np.stack((later, earlier), 1), 1).tolist())) == g.edges()
    assert depth.tolist() == np.bincount(later, minlength=g.n).tolist()
    assert np.all(later[1:] >= later[:-1])
    earlier_of = [earlier[later == v].tolist() for v in range(g.n)]
    for ks in earlier_of:  # each K_v is a clique
        assert all(g.has_edge(a, b) for a, b in itertools.combinations(ks, 2))
    placed = set()  # and the arcs point back along one order
    while len(placed) < g.n:
        v = next(v for v in range(g.n) if v not in placed and placed >= set(earlier_of[v]))
        placed.add(v)


def test_elimination_arcs_decide_chordality_like_the_elimination_oracle():
    rng = random.Random(8)
    chordal = [Graph.from_edges(0, []), Graph.from_edges(1, []),
               Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)])]
    for k in range(1, 5):
        for n in (k, k + 1, 7, 10):
            seq = graphs.gen_random_ktree(k, n, seed=n)
            chordal.append(_relabel(graphs.graph_from_construction(seq), rng))
    chordal.append(graphs.gen_named_family("k_star", {"k": 3, "n": 9})[0])
    chordal.append(graphs.gen_named_family(
        "two_star_plus_star", {"n": 9, "ratio": Fraction(2, 3)})[0])
    cycle = lambda n: Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    not_chordal = [cycle(4), cycle(6), graphs.gen_named_family("grid", {"d": 2, "side": 3})[0]]
    for g in chordal + not_chordal:
        assert _chordal_by_elimination(g) == (g in chordal)
        assert (g.elimination_arcs is not None) == (g in chordal)
    for g in chordal:
        _check_elimination_arcs(g)
    # random 2-degenerate and random graphs, decided by the oracle
    found = set()
    for seed in range(40):
        g = graphs.graph_from_construction(graphs.gen_random_kdegenerate(2, 8, seed))
        pairs = list(itertools.combinations(range(7), 2))
        h = Graph.from_edges(7, [p for p in pairs if rng.random() < 0.4])
        for x in (g, h):
            is_chordal = _chordal_by_elimination(x)
            assert (x.elimination_arcs is not None) == is_chordal
            if is_chordal:
                _check_elimination_arcs(x)
            found.add(is_chordal)
    assert found == {True, False}


@st.composite
def _graphs_up_to_ten(draw):
    """A graph on n <= 10 vertices, each pair an edge with one drawn density;
    a k-tree in construction order, whose ids eliminate, one time in four."""
    n = draw(st.integers(0, 10))
    if n and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(1, n))
        return graphs.graph_from_construction(graphs.gen_random_ktree(k, n, draw(st.integers(0, 99))))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    pairs = list(itertools.combinations(range(n), 2))
    flags = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, x in zip(pairs, flags) if x < density])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_graphs_up_to_ten())
def test_ids_eliminate_matches_the_lower_clique_oracle(g):
    lower = [[u for u in range(v) if g.has_edge(u, v)] for v in range(g.n)]
    oracle = all(g.has_edge(a, b) for ks in lower for a, b in itertools.combinations(ks, 2))
    h = Graph.from_edges(g.n, g.edges())  # a fresh graph: the flag must not build adj
    assert h.ids_eliminate == oracle and "adj" not in vars(h)
    if oracle:
        _check_elimination_arcs(g)
        later, earlier, _ = g.elimination_arcs
        assert np.all(later > earlier)  # ranked by id


def test_edge_lookup_stops_at_a_failing_probe_and_checks_the_rest():
    # a strip of triangles: each vertex's lower neighbours are v-1 and v-2
    n = 3 * graphs._PROBE
    strip = [(v - d, v) for v in range(1, n) for d in (1, 2) if v >= d]
    assert Graph.from_edges(n, strip).ids_eliminate
    # without edge (n-3, n-2) only the last vertex fails, past the probe
    torn = Graph.from_edges(n, [e for e in strip if e != (n - 3, n - 2)])
    assert not torn.ids_eliminate and torn.elimination_arcs is None
    # a grid fails at its first pair: only the probe is looked up
    grid, _ = graphs.gen_named_family("grid", {"d": 2, "side": 30})
    with mock.patch.object(graphs.np, "searchsorted", wraps=np.searchsorted) as search:
        assert not grid.ids_eliminate
    (keys, wanted), = [c.args for c in search.call_args_list]
    assert len(keys) == graphs._PROBE and 0 < len(wanted) <= graphs._PROBE


def test_elimination_arcs_skip_the_search_when_the_ids_eliminate():
    seq = graphs.gen_random_ktree(2, 300, seed=5)
    g = graphs.graph_from_construction(seq)
    relabelled = _relabel(g, random.Random(5))
    with mock.patch.object(graphs, "_mcs_order", wraps=graphs._mcs_order) as mcs:
        assert g.ids_eliminate and g.elimination_arcs is not None
        assert not mcs.called and "adj" not in vars(g)
        assert not relabelled.ids_eliminate and relabelled.elimination_arcs is not None
        assert mcs.call_count == 1
    for x in (g, relabelled):
        _check_elimination_arcs(x)


def _reference_elimination_arcs(g):
    """(later, earlier) as a stable argsort of the later ids built them, in
    id order, and a lexsort by later vertex and earlier rank otherwise."""
    eu, ev = g.edge_arrays
    if g.ids_eliminate:
        arcs = np.argsort(ev, kind="stable")
        return ev[arcs], eu[arcs]
    rank = np.empty(g.n, dtype=np.int32)
    rank[graphs._mcs_order(g.adj)] = np.arange(g.n, dtype=np.int32)
    u_later = rank[eu] > rank[ev]
    later, earlier = np.where(u_later, eu, ev), np.where(u_later, ev, eu)
    arcs = np.lexsort((rank[earlier], later))
    return later[arcs], earlier[arcs]


def test_elimination_arcs_are_the_argsort_and_lexsort_arcs():
    rng = random.Random(33)
    cases = []
    for k in (1, 2, 3):
        for n in (5, 50, 2 * 10**4):
            g = graphs.graph_from_construction(graphs.gen_random_ktree(k, n, seed=n))
            cases += [g, _relabel(g, rng)]
    for family, params in (("k_star", {"k": 3, "n": 40}), ("path", {"n": 30}),
                           ("two_star_plus_star", {"n": 40, "ratio": Fraction(3, 4)})):
        g = graphs.gen_named_family(family, params)[0]
        cases += [g, _relabel(g, rng)]
    assert {g.ids_eliminate for g in cases} == {True, False}
    for g in cases:
        later, earlier, depth = g.elimination_arcs
        for a, b in zip((later, earlier), _reference_elimination_arcs(g)):
            assert a.dtype == np.int32 and not a.flags.writeable
            assert a.tobytes() == b.tobytes()
        assert depth.dtype == np.int32 and not depth.flags.writeable


def test_forests_whose_ids_do_not_eliminate_need_no_orientation():
    # a forest with several trees and isolated vertices, in id order and shuffled
    rng = random.Random(21)
    n = 300
    forest = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.9]
    in_order = Graph.from_edges(n, forest)
    shuffled = _relabel(in_order, rng)
    sigma = np.random.default_rng(21).permutation(n)
    mcs = mock.patch.object(graphs, "_mcs_order", wraps=graphs._mcs_order)
    kernel = mock.patch.object(activation, "_merge_times", wraps=activation._merge_times)
    roots = mock.patch.object(activation, "component_roots", wraps=activation.component_roots)
    with mcs as mcs_order, kernel as merge_times, roots as hooked:
        assert not shuffled.ids_eliminate
        counts = [activation.component_count(shuffled, sigma[:t]) for t in range(n + 1)]
        nbr_sums = activation.nbr_sum_trace(shuffled, sigma).tolist()
        # the edges alone give both: no search, no merge times, no hooking
        assert not mcs_order.called and not merge_times.called and not hooked.called
        assert in_order.ids_eliminate
        in_order_counts = [activation.component_count(in_order, sigma[:t]) for t in range(n + 1)]
        assert not merge_times.called  # a forest takes its edges before the witnesses
    assert counts == activation.component_count_trace(shuffled, sigma)
    assert nbr_sums == [s.nbr_sum for s in activation.run_permutation(shuffled, None, sigma)]
    assert in_order_counts == activation.component_count_trace(in_order, sigma)
    assert "_component_count" not in vars(in_order)  # the edge count needs none
    for g in (in_order, shuffled):
        _check_elimination_arcs(g)
