"""Closed forms, brute-force oracles, and the subset DP."""

import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stopcc import exact, graphs, strategies
from stopcc.errors import (
    ParameterError,
    ResourceLimitError,
    UsageError,
    ValidationError,
)
from stopcc.graphs import Graph


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_blind_expectation_tree_values():
    assert exact.blind_expectation_tree(5, 3) == Fraction(9, 5)
    assert exact.blind_expectation_tree(5, 0) == 0
    assert exact.blind_expectation_tree(5, 5) == 1
    with pytest.raises(ParameterError):
        exact.blind_expectation_tree(5, 6)
    with pytest.raises(ParameterError):
        exact.blind_expectation_tree(0, 0)


def test_blind_expectation_ktree_width_one_matches_tree():
    # the tree reads the width-1 curve, so check both against the closed form
    for n in range(1, 13):
        for l in range(n + 1):
            assert exact.blind_expectation_ktree(1, n, l) == \
                exact.blind_expectation_tree(n, l) == Fraction(l * (n - l + 1), n)


def test_blind_expectation_ktree_edge_cases():
    # l = n leaves exactly the initial vertex as a witness
    assert exact.blind_expectation_ktree(2, 6, 6) == 1
    # two active vertices of a triangle always form one component
    assert exact.blind_expectation_ktree(3, 3, 2) == 1
    with pytest.raises(ParameterError):
        exact.blind_expectation_ktree(0, 5, 2)
    with pytest.raises(ParameterError):
        exact.blind_expectation_ktree(3, 2, 1)
    with pytest.raises(ParameterError):
        exact.blind_expectation_ktree(2, 5, 9)  # l > n


def test_blind_expectation_ktree_matches_fraction_products():
    # the per-vertex witness probabilities multiplied out as Fractions
    def reference(k, n, l):
        def witness(m):
            p = Fraction(l, n - m)
            for j in range(m):
                p *= Fraction(n - l - j, n - j)
            return p

        return sum(witness(m) for m in range(k)) + (n - k) * (witness(k) if n > k else 0)

    for k in range(1, 5):
        for n in range(k, 30):
            for l in range(n + 1):
                assert exact.blind_expectation_ktree(k, n, l) == reference(k, n, l)


def test_brute_force_blind_known_values():
    assert exact.brute_force_blind(_path(3), 2) == Fraction(4, 3)
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert exact.brute_force_blind(star, 2) == Fraction(8, 5)
    assert exact.brute_force_blind(star, 0) == 0


def test_brute_force_blind_matches_tree_formula():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(3, 11)
        g, _ = graphs.gen_named_family("random_tree", {"n": n, "seed": rng.random()})
        for l in range(n + 1):
            assert exact.brute_force_blind(g, l) == exact.blind_expectation_tree(n, l)


def test_brute_force_blind_caps():
    with pytest.raises(ResourceLimitError):
        exact.brute_force_blind(_path(31), 2)
    with pytest.raises(ParameterError):
        exact.brute_force_blind(_path(3), -1)


def test_cc_of_mask():
    masks = exact._adjacency_masks(_path(4))
    assert exact.cc_of_mask(masks, 0b0000) == 0
    assert exact.cc_of_mask(masks, 0b0101) == 2
    assert exact.cc_of_mask(masks, 0b0111) == 1
    assert exact.cc_of_mask(masks, 0b1111) == 1


def test_solve_dp_path3_by_hand():
    table = exact.solve_dp(_path(3), exact=True)
    assert table.root_value == Fraction(4, 3)
    assert table.should_stop(0b101)
    assert not table.should_stop(0b000)
    assert table.value(0b101) == Fraction(2)


def _assert_table_matches_flood_fill(g):
    adj_masks = exact._adjacency_masks(g)
    table = exact._component_counts(g)
    assert table.dtype == np.uint8
    assert table.tolist() == [exact.cc_of_mask(adj_masks, mask) for mask in range(1 << g.n)]


def test_component_count_table_matches_flood_fill(monkeypatch):
    rng = random.Random(11)
    forests = [Graph.from_edges(0, []), Graph.from_edges(1, []),
               Graph.from_edges(7, [])]
    cyclic = []
    for _ in range(6):
        n = rng.randrange(3, 11)
        tree, _ = graphs.gen_named_family("random_tree", {"n": n, "seed": rng.random()})
        forests.append(tree)
        forests.append(Graph.from_edges(n, [e for e in tree.edges() if rng.random() < 0.6]))
        triangle = [(0, 1), (0, 2), (1, 2)]
        extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in triangle and rng.random() < 0.3]
        cyclic.append(Graph.from_edges(n, triangle + extra))
    # non-forests whose ids eliminate: the paper's k-trees, a k-star and a
    # two_star_plus_star; then the k-trees with shuffled ids
    ktrees = [graphs.graph_from_construction(graphs.gen_random_ktree(k, n, seed))
              for k in (2, 3) for n, seed in ((k + 1, 0), (7, 1), (10, 2))]
    eliminating = ktrees + [
        graphs.gen_named_family("k_star", {"k": 3, "n": 9})[0],
        graphs.gen_named_family("two_star_plus_star", {"n": 9, "ratio": Fraction(1, 2)})[0],
    ]
    for g in ktrees:
        ids = list(range(g.n))
        rng.shuffle(ids)
        cyclic.append(Graph.from_edges(g.n, [(ids[u], ids[v]) for u, v in g.edges()]))
    # a grid whose components take many frontier steps to grow, and a cycle
    # whose lowest-vertex component grows both ways
    grid = graphs.gen_named_family("grid", {"d": 2, "side": 4})[0]
    cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    cyclic += [grid, cycle]
    assert all(g.ids_eliminate for g in eliminating)
    assert not grid.ids_eliminate and not cycle.ids_eliminate
    # the frontier growth runs exactly on the graphs that are neither
    # forests nor id-eliminating
    frontier_counts, grown = exact._frontier_counts, []
    monkeypatch.setattr(exact, "_frontier_counts",
                        lambda *args: grown.append(args) or frontier_counts(*args))
    for g in forests + eliminating + cyclic:
        assert g.is_forest() == (g in forests)
        grown.clear()
        _assert_table_matches_flood_fill(g)
        assert len(grown) == (not g.is_forest() and not g.ids_eliminate)
    # numpy < 2 has no bitwise_count; the forest doubling needs the fallback
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for g in forests + eliminating + cyclic:
        _assert_table_matches_flood_fill(g)


def test_popcounts_without_bitwise_count(monkeypatch):
    # numpy < 2 has no bitwise_count; the shift loop must agree with it
    for size in (1, 2, 1 << 10):
        expected = [mask.bit_count() for mask in range(size)]
        assert exact._popcounts(size).tolist() == expected
        with monkeypatch.context() as m:
            m.delattr(np, "bitwise_count", raising=False)
            assert exact._popcounts(size).tolist() == expected


def test_solve_dp_float_matches_exact():
    rng = random.Random(9)
    # n = 0 and 1, and the 12-vertex path at the exact tier's cap
    cases = [Graph.from_edges(0, []), Graph.from_edges(1, []), _path(exact.DP_EXACT_CAP)]
    for _ in range(8):
        n = rng.randrange(2, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3]
        cases.append(Graph.from_edges(n, edges))
    # random G(n, p) up to the cap: the CLI binds the exact tier there, and
    # Monte Carlo reads only the stop flags
    for n, p in ((11, 0.15), (11, 0.5), (12, 0.15), (12, 0.3), (12, 0.5)):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        cases.append(Graph.from_edges(n, edges))
    for g in cases:
        ft = exact.solve_dp(g, exact=False)
        et = exact.solve_dp(g, exact=True)
        for mask in range(1 << g.n):
            assert abs(ft.value(mask) - float(et.value(mask))) < 1e-9
            assert ft.should_stop(mask) == et.should_stop(mask)


def _reference_dp(g):
    """Per-mask backward induction in Python numbers: masks by descending
    popcount; V(S|bit) summed over the absent bits in ascending bit order,
    starting from 0.0, and divided by n - t; ties stop within DP_TIE_TOL.
    Returns the float V, its stop flags, and the exact tier's W and flags."""
    n = g.n
    adj_masks = exact._adjacency_masks(g)
    v, w, v_stop, w_stop = {}, {}, {}, {}
    for mask in sorted(range(1 << n), key=lambda m: -m.bit_count()):
        cc = exact.cc_of_mask(adj_masks, mask)
        t = mask.bit_count()
        if t == n:
            v[mask], w[mask], v_stop[mask], w_stop[mask] = float(cc), cc, True, True
            continue
        v_sum, w_sum = 0.0, 0
        for b in range(n):
            if not mask >> b & 1:
                v_sum += v[mask | 1 << b]
                w_sum += w[mask | 1 << b]
        cont, here = v_sum / (n - t), cc * math.factorial(n - t)
        v[mask], v_stop[mask] = max(float(cc), cont), cc >= cont - exact.DP_TIE_TOL
        w[mask], w_stop[mask] = max(here, w_sum), here >= w_sum
    masks = range(1 << n)
    return ([v[m] for m in masks], [v_stop[m] for m in masks],
            [w[m] for m in masks], [w_stop[m] for m in masks])


def test_solve_dp_matches_per_mask_reference_bit_for_bit(monkeypatch):
    rng = random.Random(23)
    cases = [Graph.from_edges(0, []), _path(9),
             graphs.graph_from_construction(graphs.gen_random_ktree(2, 9, 4))]
    for _ in range(6):
        n = rng.randrange(2, 10)
        cases.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < 0.4]))
        cases.append(graphs.gen_named_family("random_tree", {"n": n, "seed": rng.random()})[0])
    references = [(g, _reference_dp(g)) for g in cases]
    # the default width solves these in one block; widths of 0, 1 and 3 bits
    # split them into up to 2^9 blocks that read each other's values
    for width in (exact._DP_BLOCK_BITS, 0, 1, 3):
        monkeypatch.setattr(exact, "_DP_BLOCK_BITS", width)
        for g, (v, v_stop, w, w_stop) in references:
            ft = exact.solve_dp(g, exact=False)
            assert ft.values.tobytes() == np.array(v, dtype=np.float64).tobytes()
            assert ft.stop.tolist() == v_stop
            et = exact.solve_dp(g, exact=True)
            assert et.values.tolist() == w
            assert et.stop.tolist() == w_stop


def test_solve_dp_blocks_match_one_block_bit_for_bit(monkeypatch):
    # above the block width the float tier is split into blocks; its bytes
    # must equal those of one sweep over all 2^n masks
    rng = random.Random(19)
    gnp = Graph.from_edges(19, [(u, v) for u in range(19) for v in range(u + 1, 19)
                                if rng.random() < 0.2])
    assert not gnp.is_forest()
    for g in (_path(20), gnp):
        assert g.n > exact._DP_BLOCK_BITS
        blocked = exact.solve_dp(g)
        with monkeypatch.context() as m:
            m.setattr(exact, "_DP_BLOCK_BITS", g.n)
            single = exact.solve_dp(g)
        assert blocked.values.tobytes() == single.values.tobytes()
        assert blocked.stop.tobytes() == single.stop.tobytes()


def test_successor_table_lists_each_successor_once_in_bit_order():
    for width in range(7):
        table = exact._successor_table(width)
        assert [len(layer) for layer, _ in table] == \
            [math.comb(width, tau) for tau in range(width + 1)]
        assert sum(successors.size for _, successors in table) == width << width >> 1
        seen = []
        for tau, (layer, successors) in enumerate(table):
            masks = layer.tolist()
            assert masks == sorted(masks) and all(s.bit_count() == tau for s in masks)
            assert successors.dtype == np.intp and successors.shape == (width - tau, len(masks))
            for s, column in zip(masks, successors.T.tolist()):
                bits = [(t ^ s).bit_length() - 1 for t in column]
                assert all(t == s | 1 << v for t, v in zip(column, bits))
                # each missing bit once, ascending
                assert bits == [v for v in range(width) if not s >> v & 1]
            seen += masks
        assert sorted(seen) == list(range(1 << width))


def test_one_mask_layers_add_their_successors_in_order():
    # the root layer holds one mask, so NumPy would sum its column pairwise
    # (8 partial sums from 8 successors on); it must add them one at a time,
    # as this loop does.  On paths of 14, 16 and 17 vertices the pairwise
    # sum of the root's low successors differs in its last bit
    for n in range(exact._DP_BLOCK_BITS, 21):
        table = exact.solve_dp(_path(n))
        acc = 0.0
        for v in range(n):
            acc += float(table.values[1 << v])
        assert table.values[0] == acc / n, n


def test_solve_dp_peak_memory_is_the_tables_plus_slack():
    # each bound was set at the measured peak plus 1 byte per mask.  The CC,
    # value and stop tables take 1 + 8 + 1 bytes per mask, and the block
    # sweep, its 0.92 MB successor table included, 1.43 more at n = 20 (11.43
    # on both graphs; 11.98 with 2^17-mask blocks and no table): a 2^n layer
    # order, 8 bytes per mask, would break the bound, and so would the
    # 8.9 MB table of 17-bit blocks.  The doubling CC build of a forest or of
    # a graph whose ids eliminate peaks at its 1-byte table plus 3: a 2^n
    # uint32 mask array, as the frontier growth takes, would break that bound
    path = _path(20)
    ktree = graphs.graph_from_construction(graphs.gen_random_ktree(2, 20, 0))
    for g in (path, ktree):
        for build, bytes_per_mask in ((exact._component_counts, 5.0), (exact.solve_dp, 12.89)):
            tracemalloc.start()
            try:
                build(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bytes_per_mask * (1 << g.n), \
                f"{build.__name__}: peak {peak / (1 << g.n):.2f} bytes per mask"


def test_solve_dp_caps():
    with pytest.raises(ResourceLimitError):
        exact.solve_dp(_path(25))
    with pytest.raises(ResourceLimitError):
        exact.solve_dp(_path(13), exact=True)


def test_dp_value_dominates_blind():
    g, _ = graphs.gen_named_family("random_tree", {"n": 9, "seed": 8})
    table = exact.solve_dp(g, exact=True)
    for l in range(10):
        assert table.root_value >= exact.blind_expectation_tree(9, l)


def test_brute_force_strategy_value_blind_matches_subset_mean():
    # a blind threshold's permutation mean equals the subset mean
    g, _ = graphs.gen_named_family("random_tree", {"n": 6, "seed": 0})
    for l in range(7):
        assert exact.brute_force_strategy_value(
            g, None, strategies.blind_threshold(l)
        ) == exact.brute_force_blind(g, l)


def test_brute_force_strategy_value_cap():
    with pytest.raises(ResourceLimitError):
        exact.brute_force_strategy_value(
            _path(10), None, strategies.blind_threshold(2))


def _mean_over_orders(graph, seq, spec):
    total = sum(strategies.run_strategy(graph, seq, spec, sigma)[1]
                for sigma in itertools.permutations(range(graph.n)))
    return Fraction(total, math.factorial(graph.n))


def _oracle_instances():
    rng = random.Random(71)
    instances = [Graph.from_edges(0, []), Graph.from_edges(1, []),
                 _path(6), graphs.gen_named_family("star", {"n": 5})[0],
                 Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])]
    for n in (4, 5, 6):
        instances.append(graphs.gen_named_family(
            "random_tree", {"n": n, "seed": rng.random()})[0])
        instances.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]))
    return instances


def _catalog(g):
    """Every rule kind, blind l and alpha at their edges, and two-phase with
    each kind of trigger, with the sequence its initial clique is read from."""
    n = g.n
    # any sequence on n vertices names an initial clique; n = 0 never reads it
    seq = graphs.gen_named_family("path", {"n": n})[1] if n else None
    specs = [strategies.blind_threshold(l) for l in (0, 3, n)]
    specs += [strategies.blind_fraction(a) for a in (0, Fraction(1, 3), 1)]
    specs += [strategies.fixed_permutation_oracle(s) for s in (0, 3, n + 1)]
    for trigger in ("initial_clique", frozenset([0]), frozenset(range(max(n, 1)))):
        specs.append(strategies.two_phase(Fraction(1, 3), Fraction(2, 3), trigger))
    specs += [strategies.greedy_gain(), strategies.greedy_gain(strict=True),
              strategies.dp_optimal(exact.solve_dp(g, exact=True))]
    return seq, specs


def test_brute_force_strategy_value_matches_every_order():
    for g in _oracle_instances():
        seq, specs = _catalog(g)
        for spec in specs:
            assert exact.brute_force_strategy_value(g, seq, spec) == \
                _mean_over_orders(g, seq, spec), (g.n, g.edges(), spec.describe())


def test_strategy_value_matches_the_oracle(monkeypatch):
    rng = random.Random(29)
    instances = _oracle_instances()
    # the oracle walks up to n! prefixes, so n stays below 8
    for n in (6, 7):
        instances.append(graphs.gen_named_family(
            "random_tree", {"n": n, "seed": rng.random()})[0])
        instances.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]))
    for k in (1, 2, 3):
        for n in (k + 3, 7):
            instances.append(graphs.graph_from_construction(
                graphs.gen_random_ktree(k, n, rng.randrange(1000))))
    for g in instances:
        seq, specs = _catalog(g)
        for spec in specs:
            value = exact.brute_force_strategy_value(g, seq, spec)
            assert exact.strategy_value(g, seq, spec) == value, \
                (g.n, g.edges(), spec.describe())
            # blocks of 2 masks read each other's values, margins and counts
            with monkeypatch.context() as m:
                m.setattr(exact, "_DP_BLOCK_BITS", 1)
                assert exact.strategy_value(g, seq, spec) == value


def _check_strategy_value_errors(score):
    g = _path(6)
    _, short_seq = graphs.gen_named_family("path", {"n": 5})
    catalog = [strategies.blind_threshold(3), strategies.blind_fraction(Fraction(1, 2)),
               strategies.fixed_permutation_oracle(2), strategies.greedy_gain(),
               strategies.two_phase(Fraction(1, 3), Fraction(1, 2), frozenset([0])),
               strategies.dp_optimal(exact.solve_dp(g, exact=True))]
    for spec in catalog:
        with pytest.raises(ValidationError, match="vertex count"):
            score(g, short_seq, spec)
    # the trigger is read, so it must be known and below n
    with pytest.raises(UsageError, match="construction sequence"):
        score(g, None, strategies.two_phase(Fraction(1, 3), 1, "initial_clique"))
    with pytest.raises(ValidationError, match="trigger vertex 99"):
        score(g, None, strategies.two_phase(Fraction(1, 3), 1, frozenset([0, 99])))
    # alpha = 1 stops at n before the trigger is read
    for trigger in ("initial_clique", frozenset([99])):
        assert score(g, None, strategies.two_phase(1, 1, trigger)) == 1
    with pytest.raises(UsageError, match="value table"):
        score(g, None, strategies.dp_optimal(None))


def test_brute_force_strategy_value_errors():
    _check_strategy_value_errors(exact.brute_force_strategy_value)


def test_strategy_value_errors():
    _check_strategy_value_errors(exact.strategy_value)
    with pytest.raises(ResourceLimitError):
        exact.strategy_value(_path(exact.DP_EXACT_CAP + 1), None, strategies.greedy_gain())


def test_value_table_export():
    table = exact.solve_dp(_path(3), exact=True)
    buf = io.StringIO()
    table.export(buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 8
    assert lines[0].split()[0] == "0"
    assert lines[0b101] == "5 2 1"


def test_remark_continuation_values():
    rv = exact.remark_continuation_value(101)
    assert rv.displayed == Fraction(23, 101)
    assert rv.independent == Fraction(24, 101)
    with pytest.raises(ParameterError):
        exact.remark_continuation_value(100)
    with pytest.raises(ParameterError):
        exact.remark_continuation_value(1)


def test_remark_displayed_limit_is_one_quarter():
    # the closed expression tends to 1/4 from below as n grows
    vals = [float(exact.remark_continuation_value(n).displayed)
            for n in (11, 101, 1001, 10001)]
    assert vals == sorted(vals)
    assert abs(vals[-1] - 0.25) < 1e-3
