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


def test_blind_optimal_threshold_tree():
    assert blind_optimal_threshold("tree", 5) == (3, Fraction(9, 5))
    l, v = blind_optimal_threshold("tree", 4)
    assert v == Fraction(3, 2) and l in (2, 3)
    # the two-candidate shortcut agrees with a full scan
    for n in range(1, 31):
        _, v = blind_optimal_threshold("tree", n)
        assert v == max(exact.blind_expectation_tree(n, l) for l in range(n + 1))


def test_blind_optimal_threshold_ktree_small_and_prescan():
    l, v = blind_optimal_threshold("ktree", 9, k=2)
    assert v == max(exact.blind_expectation_ktree(2, 9, x) for x in range(10))
    # the float prescan tier must agree with an exhaustive exact scan
    n = 2500
    l_fast, v_fast = blind_optimal_threshold("ktree", n, k=2)
    v_slow = max(exact.blind_expectation_ktree(2, n, x) for x in range(n + 1))
    assert v_fast == v_slow
    with pytest.raises(ParameterError):
        blind_optimal_threshold("ktree", 9)
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
    ]
    for spec in (blind_threshold(1), blind_threshold(2), greedy_gain()):
        for sigma in bad:
            with pytest.raises(ValidationError):
                run_strategy(g, None, spec, sigma)


def _per_step_blind(graph, spec, sigma):
    # the reference: consult the blind rule after every arrival
    state = ActivationState(graph)
    for t in range(graph.n + 1):
        if t:
            state.activate(sigma[t - 1])
        if decide(spec, BlindView(graph.n, t)) == STOP:
            return t, state.cc


def test_run_strategy_blind_matches_per_step_rule():
    n = 6
    specs = [
        blind_threshold(0),
        blind_threshold(3),
        blind_threshold(n + 1),
        blind_fraction(0),
        blind_fraction(Fraction(1, 3)),
        blind_fraction(1),
    ]
    instances = [
        _path(n),
        Graph.from_edges(n, [(0, v) for v in range(1, n)]),
        Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)]),
        Graph.from_edges(n, []),
        Graph.from_edges(0, []),
    ]
    for g in instances:
        for sigma in itertools.permutations(range(g.n)):
            for spec in specs:
                assert run_strategy(g, None, spec, sigma) == _per_step_blind(g, spec, sigma)
    _, seq = graphs.gen_named_family("path", {"n": n - 1})
    for spec in specs + [greedy_gain()]:
        with pytest.raises(ValidationError, match="vertex count"):
            run_strategy(_path(n), seq, spec, list(range(n)))


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
