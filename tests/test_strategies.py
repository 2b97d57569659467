"""Stopping rules, information regimes, and the threshold optimizers."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from stopcc import exact, graphs, strategies
from stopcc.activation import ActivationState
from stopcc.errors import ParameterError, UsageError, ValidationError
from stopcc.graphs import Graph
from stopcc.strategies import (
    BlindView,
    FullView,
    CONTINUE,
    STOP,
    blind_fraction,
    blind_optimal_threshold,
    blind_threshold,
    decide,
    dp_optimal,
    fixed_permutation_oracle,
    greedy_gain,
    parse_strategy,
    run_strategy,
    two_phase,
)


def _path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_blind_threshold_stops_at_l():
    g = _path(6)
    stop_t, cc = run_strategy(g, None, blind_threshold(3), [0, 2, 4, 1, 3, 5])
    assert stop_t == 3 and cc == 3
    stop_t, _ = run_strategy(g, None, blind_threshold(99), list(range(6)))
    assert stop_t == 6  # never past n
    stop_t, cc = run_strategy(g, None, blind_threshold(0), list(range(6)))
    assert (stop_t, cc) == (0, 0)


def test_blind_fraction_uses_ceiling():
    g = _path(5)
    stop_t, _ = run_strategy(g, None, blind_fraction(Fraction(1, 2)), list(range(5)))
    assert stop_t == 3


def test_greedy_on_path_and_star():
    g = _path(3)
    # after {0, 2} the only move destroys a component, so greedy stops
    stop_t, cc = run_strategy(g, None, greedy_gain(), [0, 2, 1])
    assert (stop_t, cc) == (2, 2)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    state = ActivationState(star)
    state.activate(0)
    view = FullView(state)
    # zero expected gain: lax greedy continues, strict greedy stops
    assert decide(greedy_gain(), view) == CONTINUE
    assert decide(greedy_gain(strict=True), view) == STOP


def test_greedy_decides_by_the_sign_of_expected_gain():
    instances = [
        _path(5),
        Graph.from_edges(5, [(0, v) for v in range(1, 5)]),
        Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)]),
        Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        Graph.from_edges(4, []),
    ]
    signs = set()
    for g in instances:
        for sigma in itertools.permutations(range(g.n)):
            state = ActivationState(g)
            for v in sigma:  # every prefix with t < n, the empty one included
                gain = state.expected_gain()
                signs.add((gain > 0) - (gain < 0))
                assert decide(greedy_gain(), FullView(state)) == \
                    (CONTINUE if gain >= 0 else STOP)
                assert decide(greedy_gain(strict=True), FullView(state)) == \
                    (CONTINUE if gain > 0 else STOP)
                state.activate(v)
    assert signs == {-1, 0, 1}


def test_full_information_spec_rejects_blind_view():
    with pytest.raises(UsageError, match="full information"):
        decide(greedy_gain(), BlindView(5, 2))


def test_two_phase_trigger_extends_phase():
    g = _path(6)
    spec = two_phase(Fraction(1, 3), Fraction(2, 3), frozenset([0]))
    # trigger vertex 0 arrives first: run to ceil(2/3 * 6) = 4
    stop_t, _ = run_strategy(g, None, spec, [0, 2, 4, 1, 3, 5])
    assert stop_t == 4
    # trigger never active by phase one: stop at ceil(1/3 * 6) = 2
    stop_t, _ = run_strategy(g, None, spec, [1, 3, 5, 0, 2, 4])
    assert stop_t == 2


def test_two_phase_initial_clique_trigger_needs_sequence():
    g, seq = graphs.gen_named_family("path", {"n": 4})
    spec = two_phase(Fraction(1, 2), Fraction(3, 4), "initial_clique")
    stop_t, _ = run_strategy(g, seq, spec, [0, 1, 2, 3])  # 0 is the initial vertex
    assert stop_t == 3
    with pytest.raises(UsageError, match="construction sequence"):
        run_strategy(g, None, spec, [0, 1, 2, 3])


def test_dp_strategy_follows_table_and_needs_one():
    g = _path(3)
    table = exact.solve_dp(g, exact=True)
    value = exact.brute_force_strategy_value(g, None, dp_optimal(table))
    assert value == table.root_value == Fraction(4, 3)
    state = ActivationState(g)
    with pytest.raises(UsageError, match="value table"):
        decide(dp_optimal(None), FullView(state))


def test_fixed_permutation_oracle():
    g = _path(4)
    stop_t, cc = run_strategy(g, None, fixed_permutation_oracle(2), [0, 2, 1, 3])
    assert (stop_t, cc) == (2, 2)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        blind_threshold(-1)
    with pytest.raises(ParameterError):
        blind_fraction(Fraction(3, 2))
    with pytest.raises(ParameterError):
        two_phase(Fraction(1, 2), Fraction(1, 3), frozenset())
    with pytest.raises(ParameterError):
        two_phase(Fraction(1, 3), Fraction(1, 2), frozenset())
    with pytest.raises(ParameterError):
        two_phase(Fraction(1, 3), Fraction(1, 2), frozenset([-1]))
    # an id past the graph is caught when the rule reads its trigger
    spec = two_phase(Fraction(1, 3), Fraction(1, 2), frozenset([0, 99]))
    with pytest.raises(ValidationError, match="trigger vertex 99"):
        run_strategy(_path(6), None, spec, list(range(6)))


def test_blind_optimal_threshold_tree():
    assert blind_optimal_threshold("tree", 5) == (3, Fraction(9, 5))
    l, v = blind_optimal_threshold("tree", 4)
    assert v == Fraction(3, 2) and l in (2, 3)
    # the width-1 curve agrees with a full scan of the closed form
    for n in range(1, 31):
        _, v = blind_optimal_threshold("tree", n)
        assert v == max(exact.blind_expectation_tree(n, l) for l in range(n + 1))


def test_blind_optimal_threshold_ktree_small_and_prescan():
    def exhaustive(k, n):
        values = [exact.blind_expectation_ktree(k, n, x) for x in range(n + 1)]
        best = max(values)
        return values.index(best), best

    l, v = blind_optimal_threshold("ktree", 9, k=2)
    assert v == max(exact.blind_expectation_ktree(2, 9, x) for x in range(10))
    # one integer argmax over every l, on both sides of n = 2000, where a
    # float prescan with a +-50 exact window once took over
    for k in range(1, 5):
        for n in [*range(k + 1, 61), 1999, 2000, 2001]:
            assert blind_optimal_threshold("ktree", n, k=k) == exhaustive(k, n), (k, n)
    n = 2500
    l_fast, v_fast = blind_optimal_threshold("ktree", n, k=2)
    v_slow = max(exact.blind_expectation_ktree(2, n, x) for x in range(n + 1))
    assert v_fast == v_slow
    with pytest.raises(ParameterError):
        blind_optimal_threshold("ktree", 9)
    with pytest.raises(ParameterError):
        blind_optimal_threshold("ktree", 3, k=3)
    with pytest.raises(ParameterError):
        blind_optimal_threshold("mystery", 9)


def test_parse_strategy_roundtrip():
    cases = {
        "blind:l=42": "blind:l=42",
        "blind:alpha=1/3": "blind:alpha=1/3",
        "blind:alpha=0.25": "blind:alpha=1/4",
        "greedy": "greedy",
        "greedy:strict": "greedy:strict",
        "twophase:alpha=1/3,gamma=1/2,trigger=initial_clique":
            "twophase:alpha=1/3,gamma=1/2,trigger=initial_clique",
        "twophase:alpha=1/3,gamma=1/2,trigger=0|1":
            "twophase:alpha=1/3,gamma=1/2,trigger=0|1",
        "dp": "dp",
    }
    for text, described in cases.items():
        spec = parse_strategy(text)
        assert spec.describe() == described
        assert parse_strategy(described) == spec


def test_parse_strategy_errors():
    for bad in ("blind", "blind:x=3", "greedy:fast", "twophase:alpha=1/3",
                "mystery", "blind:alpha=1/0", "blind:l=abc",
                "twophase:alpha=1/3,gamma=1/2,trigger=a",
                "twophase:alpha=1/3,gamma=1/2,trigger="):
        with pytest.raises(ParameterError):
            parse_strategy(bad)


def test_every_strategy_scores_within_dp_value():
    # sanity on a random tree: no strategy beats backward induction
    g, seq = graphs.gen_named_family("random_tree", {"n": 7, "seed": 13})
    table = exact.solve_dp(g, exact=True)
    catalog = [
        blind_threshold(4),
        blind_fraction(Fraction(1, 2)),
        greedy_gain(),
        two_phase(Fraction(1, 3), Fraction(1, 2), "initial_clique"),
        dp_optimal(table),
    ]
    for spec in catalog:
        value = exact.brute_force_strategy_value(g, seq, spec)
        assert value <= table.root_value


def test_run_strategy_validates_permutation():
    g = _path(3)
    assert run_strategy(g, None, greedy_gain(), np.array([0, 2, 1])) == (2, 2)
    bad = [
        [0, 0, 1],
        np.array([0, 2, 2]),
        (v for v in [0, 2, 1]),  # one-shot: checking it would leave nothing to play
        iter([0, 2, 1]),
        [[0, 2, 1]],
        ["0", "2", "1"],
        [0.0, 2.0, 1.0],  # floats: the engine indexes vertices by integer id
        np.array([0.0, 2.0, 1.0]),
    ]
    specs = (blind_threshold(1), blind_threshold(2), greedy_gain(),
             two_phase(Fraction(1, 3), Fraction(1, 2), frozenset([0])))
    for spec in specs:
        for sigma in bad:
            with pytest.raises(ValidationError):
                run_strategy(g, None, spec, sigma)


def _per_step(graph, seq, specs, sigma):
    # the reference: replay sigma once and consult every rule after each
    # arrival, a blind rule from t = 0 on its blind view, a full-information
    # rule from t = 1 on the state; a rule scores where it first stops
    state = ActivationState(graph)
    scores = [None] * len(specs)
    for t in range(graph.n + 1):
        if t:
            state.activate(sigma[t - 1])
        for i, spec in enumerate(specs):
            if scores[i] is not None or not (t or spec.is_blind()):
                continue
            view = BlindView(graph.n, t) if spec.is_blind() else FullView(state)
            if decide(spec, view, seq) == STOP:
                scores[i] = (t, state.cc)
    return [score or (graph.n, state.cc) for score in scores]


def test_run_strategy_position_rules_match_per_step_rule():
    n = 6
    fractions = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    specs = [
        blind_threshold(0),
        blind_threshold(3),
        blind_threshold(n + 1),
        blind_fraction(0),
        blind_fraction(Fraction(1, 3)),
        blind_fraction(1),
        fixed_permutation_oracle(0),
        fixed_permutation_oracle(3),
        fixed_permutation_oracle(n + 1),
        greedy_gain(),
        greedy_gain(strict=True),
    ]
    for alpha, gamma in itertools.combinations_with_replacement(fractions, 2):
        for trigger in ("initial_clique", frozenset([0]), frozenset(range(n))):
            specs.append(two_phase(alpha, gamma, trigger))
    _, path_seq = graphs.gen_named_family("path", {"n": n})
    instances = [
        _path(n),
        Graph.from_edges(n, [(0, v) for v in range(1, n)]),
        Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)]),
        Graph.from_edges(n, []),
        Graph.from_edges(0, []),
    ]
    for g in instances:
        seq = path_seq if g.n == n else None  # n = 0 never reads a trigger
        for sigma in itertools.permutations(range(g.n)):
            scores = [run_strategy(g, seq, spec, sigma) for spec in specs]
            assert scores == _per_step(g, seq, specs, sigma)
    # with a = n the trigger is never read, so no sequence is needed
    spec = two_phase(1, 1, "initial_clique")
    assert run_strategy(_path(n), None, spec, list(range(n))) == (n, 1)
    with pytest.raises(UsageError, match="construction sequence"):
        run_strategy(_path(n), None, two_phase(Fraction(5, 6), 1, "initial_clique"),
                     list(range(n)))
    _, seq = graphs.gen_named_family("path", {"n": n - 1})
    for spec in specs:
        with pytest.raises(ValidationError, match="vertex count"):
            run_strategy(_path(n), seq, spec, list(range(n)))


def _greedy_by_gain(graph, strict, sigma):
    # greedy from its definition, apart from decide: stop at the first t in
    # 1..n-1 where the exact expected gain is negative, or zero when strict
    state = ActivationState(graph)
    for t, v in enumerate(sigma, start=1):
        state.activate(v)
        if t == graph.n:
            break
        gain = state.expected_gain()
        if gain < 0 or (strict and gain == 0):
            break
    return t, state.cc


def test_greedy_on_chordal_graphs_matches_per_step_rule():
    # seeded orders on graphs large enough for long greedy runs
    instances = [
        graphs.graph_from_construction(graphs.gen_random_ktree(k, n, seed))
        for k in (1, 2, 3) for n, seed in ((k + 1, 1), (12, 2), (60, 3), (300, 4))
    ]
    instances.append(graphs.gen_named_family(
        "two_star_plus_star", {"n": 60, "ratio": Fraction(2, 3)})[0])
    specs = [greedy_gain(), greedy_gain(strict=True)]
    rng = np.random.default_rng(12)
    for g in instances:
        assert g.elimination_arcs is not None
        for _ in range(8):
            sigma = rng.permutation(g.n)
            scores = [run_strategy(g, None, spec, sigma) for spec in specs]
            assert scores == _per_step(g, None, specs, sigma)
            assert scores == [_greedy_by_gain(g, spec.strict_gain, sigma) for spec in specs]


def test_greedy_takes_the_trace_on_chordal_graphs_only(monkeypatch):
    played = []

    class CountingState(ActivationState):
        def activate(self, v):
            played.append(v)
            return super().activate(v)

    monkeypatch.setattr(strategies, "ActivationState", CountingState)
    traced = []
    real_trace = strategies.nbr_sum_trace
    monkeypatch.setattr(strategies, "nbr_sum_trace",
                        lambda g, sigma: traced.append(g) or real_trace(g, sigma))
    n = 6
    chordal = _path(n)
    cycle = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    grid, _ = graphs.gen_named_family("grid", {"d": 2, "side": 3})
    for g in (chordal, cycle, grid):
        played.clear()
        traced.clear()
        run_strategy(g, None, greedy_gain(), list(range(g.n)))
        assert (traced, bool(played)) == (([g], False) if g is chordal else ([], True))
    played.clear()
    table = exact.solve_dp(chordal, exact=True)
    run_strategy(chordal, None, dp_optimal(table), list(range(n)))
    assert played and traced == []


def test_blind_runs_are_permutation_prefix_functions():
    # a blind rule's stop time may depend on (n, t) only
    g, _ = graphs.gen_named_family("random_tree", {"n": 9, "seed": 4})
    rng = random.Random(2)
    spec = blind_fraction(Fraction(2, 5))
    stop_times = set()
    for _ in range(10):
        sigma = list(range(9))
        rng.shuffle(sigma)
        stop_t, _ = run_strategy(g, None, spec, sigma)
        stop_times.add(stop_t)
    assert stop_times == {4}
