"""Closed forms, brute-force oracles, and the subset DP."""

import io
import itertools
import math
import random
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
    assert table.dtype == np.int64
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
    # the paper's k-trees, a grid whose components take many frontier steps
    # to grow, and a cycle whose lowest-vertex component grows both ways
    for k in (2, 3):
        for n, seed in ((k + 1, 0), (7, 1), (10, 2)):
            cyclic.append(graphs.graph_from_construction(graphs.gen_random_ktree(k, n, seed)))
    cyclic.append(graphs.gen_named_family("grid", {"d": 2, "side": 4})[0])
    cyclic.append(Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)]))
    for g in forests + cyclic:
        assert g.is_forest() == (g in forests)
        _assert_table_matches_flood_fill(g)
    # numpy < 2 has no bitwise_count; the forest doubling needs the fallback
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for g in forests + cyclic:
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


def test_solve_dp_matches_per_mask_reference_bit_for_bit():
    rng = random.Random(23)
    cases = [Graph.from_edges(0, []), _path(9),
             graphs.graph_from_construction(graphs.gen_random_ktree(2, 9, 4))]
    for _ in range(6):
        n = rng.randrange(2, 10)
        cases.append(Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < 0.4]))
        cases.append(graphs.gen_named_family("random_tree", {"n": n, "seed": rng.random()})[0])
    for g in cases:
        v, v_stop, w, w_stop = _reference_dp(g)
        ft = exact.solve_dp(g, exact=False)
        assert ft.values.tobytes() == np.array(v, dtype=np.float64).tobytes()
        assert ft.stop.tolist() == v_stop
        et = exact.solve_dp(g, exact=True)
        assert et.values.tolist() == w
        assert et.stop.tolist() == w_stop


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


def test_brute_force_strategy_value_matches_every_order():
    rng = random.Random(71)
    instances = [Graph.from_edges(0, []), Graph.from_edges(1, []),
                 _path(6), graphs.gen_named_family("star", {"n": 5})[0],
                 Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])]
    for n in (4, 5, 6):
        instances.append(graphs.gen_named_family(
            "random_tree", {"n": n, "seed": rng.random()})[0])
        instances.append(Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]))
    for g in instances:
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
        for spec in specs:
            assert exact.brute_force_strategy_value(g, seq, spec) == \
                _mean_over_orders(g, seq, spec), (n, g.edges(), spec.describe())


def test_brute_force_strategy_value_errors():
    g = _path(6)
    _, short_seq = graphs.gen_named_family("path", {"n": 5})
    catalog = [strategies.blind_threshold(3), strategies.blind_fraction(Fraction(1, 2)),
               strategies.fixed_permutation_oracle(2), strategies.greedy_gain(),
               strategies.two_phase(Fraction(1, 3), Fraction(1, 2), frozenset([0])),
               strategies.dp_optimal(exact.solve_dp(g, exact=True))]
    for spec in catalog:
        with pytest.raises(ValidationError, match="vertex count"):
            exact.brute_force_strategy_value(g, short_seq, spec)
    # the trigger is read, so it must be known and below n
    with pytest.raises(UsageError, match="construction sequence"):
        exact.brute_force_strategy_value(
            g, None, strategies.two_phase(Fraction(1, 3), 1, "initial_clique"))
    with pytest.raises(ValidationError, match="trigger vertex 99"):
        exact.brute_force_strategy_value(
            g, None, strategies.two_phase(Fraction(1, 3), 1, frozenset([0, 99])))
    # alpha = 1 stops at n before the trigger is read
    for trigger in ("initial_clique", frozenset([99])):
        assert exact.brute_force_strategy_value(
            g, None, strategies.two_phase(1, 1, trigger)) == 1
    with pytest.raises(UsageError, match="value table"):
        exact.brute_force_strategy_value(g, None, strategies.dp_optimal(None))


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
