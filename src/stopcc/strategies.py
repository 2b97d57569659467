"""Stopping strategies: deterministic rules mapping observable history to
continue/stop, with the information regime enforced by the view type.

Blind strategies see only (n, t); full-information strategies see the whole
activation state.  Every strategy stops at t = n at the latest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .activation import ActivationState, check_permutation, component_count, nbr_sum_trace
from .errors import ParameterError, UsageError, ValidationError

CONTINUE = "continue"
STOP = "stop"

BLIND_KINDS = {"blind_threshold", "blind_fraction"}


@dataclass(frozen=True)
class BlindView:
    """What a blind strategy is allowed to observe."""

    n: int
    t: int


@dataclass(frozen=True)
class FullView:
    """Full-information view: the entire activation state (read-only use)."""

    state: ActivationState

    @property
    def n(self):
        return self.state.n

    @property
    def t(self):
        return self.state.t


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    l: int | None = None
    alpha: Fraction | None = None
    gamma: Fraction | None = None
    trigger: object = None  # frozenset of vertex ids, or "initial_clique"
    strict_gain: bool = False  # greedy: stop on zero expected gain too
    table: object = None  # ValueTable for dp_optimal
    stop_time: int | None = None  # fixed_permutation_oracle (test-only)

    def is_blind(self):
        return self.kind in BLIND_KINDS

    def describe(self):
        if self.kind == "blind_threshold":
            return f"blind:l={self.l}"
        if self.kind == "blind_fraction":
            return f"blind:alpha={self.alpha}"
        if self.kind == "greedy_gain":
            return "greedy" + (":strict" if self.strict_gain else "")
        if self.kind == "two_phase":
            trig = (
                "initial_clique"
                if self.trigger == "initial_clique"
                else "|".join(str(v) for v in sorted(self.trigger))
            )
            return f"twophase:alpha={self.alpha},gamma={self.gamma},trigger={trig}"
        if self.kind == "dp_optimal":
            return "dp"
        return self.kind


def blind_threshold(l):
    if l < 0:
        raise ParameterError(f"threshold l={l} must be >= 0")
    return StrategySpec("blind_threshold", l=l)


def blind_fraction(alpha):
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ParameterError(f"fraction alpha={alpha} must lie in [0,1]")
    return StrategySpec("blind_fraction", alpha=alpha)


def greedy_gain(strict=False):
    return StrategySpec("greedy_gain", strict_gain=strict)


def two_phase(alpha, gamma, trigger):
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    if not 0 <= alpha <= gamma <= 1:
        raise ParameterError("two_phase needs 0 <= alpha <= gamma <= 1")
    if trigger != "initial_clique":
        trigger = frozenset(trigger)
        if not trigger:
            raise ParameterError("two_phase needs at least one trigger vertex")
        if min(trigger) < 0:
            raise ParameterError(f"trigger vertex {min(trigger)} is negative")
    return StrategySpec("two_phase", alpha=alpha, gamma=gamma, trigger=trigger)


def dp_optimal(table):
    return StrategySpec("dp_optimal", table=table)


def fixed_permutation_oracle(stop_time):
    return StrategySpec("fixed_permutation_oracle", stop_time=stop_time)


def stop_count(alpha, n):
    """Arrivals after which a fraction-alpha rule stops: ceil(alpha n).

    The paper writes alpha*n assuming divisibility; the ceiling keeps t >= 1.
    Pass alpha as a Fraction to keep it exact: ceil(0.07 * 100) is 8.
    """
    return math.ceil(alpha * n)


def position_stop_time(spec, n, triggered):
    """Stop time on n vertices of a rule that reads only arrival positions;
    None for greedy and dp.  triggered(a) says whether a trigger vertex is
    among the first a arrivals; two-phase asks it only when a < n."""
    if spec.kind == "blind_threshold":
        return min(spec.l, n)
    if spec.kind == "blind_fraction":
        return stop_count(spec.alpha, n)
    if spec.kind == "fixed_permutation_oracle":
        return min(max(spec.stop_time, 1), n)  # first consulted at t = 1
    if spec.kind in ("greedy_gain", "dp_optimal"):
        return None
    if spec.kind != "two_phase":
        raise UsageError(f"unknown strategy kind {spec.kind!r}")
    a = min(max(stop_count(spec.alpha, n), 1), n)  # first consulted at t = 1
    if a < n and triggered(a):
        return min(max(a, stop_count(spec.gamma, n)), n)
    return a


def _trigger_set(spec, seq, n):
    trigger = spec.trigger
    if trigger == "initial_clique":
        if seq is None:
            raise UsageError("trigger=initial_clique needs a construction sequence")
        trigger = seq.initial_clique()
    if max(trigger) >= n:
        raise ValidationError(f"trigger vertex {max(trigger)} is not below n={n}")
    return trigger


def _greedy_continues(spec, margin):
    """Greedy's one test, on the margin n - t - nbr_sum at t < n (an int or an
    array): expected_gain() is margin / (n - t).  Continue on a positive
    gain, and on a zero one unless the rule is strict."""
    return margin > 0 if spec.strict_gain else margin >= 0


def decide(spec, view, seq=None):
    """One stop/continue decision from the observable view."""
    if not (spec.is_blind() or isinstance(view, FullView)):
        raise UsageError(f"{spec.kind} needs full information, got a blind view")
    n, t = view.n, view.t
    if t >= n:
        return STOP
    if spec.kind == "greedy_gain":
        return CONTINUE if _greedy_continues(spec, n - t - view.state.nbr_sum) else STOP
    if spec.kind == "dp_optimal":
        if spec.table is None:
            raise UsageError("dp_optimal needs a solved value table attached")
        mask = view.state.active_mask
        if mask is None:
            raise UsageError("dp_optimal requires n within the subset-DP cap")
        return STOP if spec.table.should_stop(mask) else CONTINUE

    def triggered(a):  # active now; in a replay a trigger seen by a stays active
        return t >= a and any(view.state.active[v] for v in _trigger_set(spec, seq, n))

    return STOP if t >= position_stop_time(spec, n, triggered) else CONTINUE


def _greedy_stop_time(spec, graph, sigma):
    """Stop time of a greedy rule on the order sigma of a chordal graph, read
    off the whole nbr_sum trace: the first t in 1..n-1 where
    _greedy_continues fails on the margin n - t - nbr_sum, otherwise n."""
    n = graph.n
    margin = np.arange(n, -1, -1) - nbr_sum_trace(graph, sigma)
    stops = ~_greedy_continues(spec, margin[1:n])
    return int(stops.argmax()) + 1 if stops.any() else n


def run_strategy(graph, seq, spec, sigma):
    """Score one order: returns (stop_time, component count at stop).

    Blind, two-phase and fixed-time rules take position_stop_time, and greedy
    on a chordal graph takes _greedy_stop_time; both read the count from the
    arrival-time kernel on that prefix.  Dp, and greedy on any other graph,
    are consulted after each arrival of sigma through the activation engine.
    """
    sigma = check_permutation(sigma, graph.n)
    if seq is not None and seq.n != graph.n:
        raise ValidationError("sequence and graph disagree on vertex count")
    n = graph.n
    t = position_stop_time(
        spec, n, lambda a: np.isin(sigma[:a], list(_trigger_set(spec, seq, n))).any()
    )
    if spec.kind == "greedy_gain" and graph.elimination_arcs is not None:
        t = _greedy_stop_time(spec, graph, sigma)
    if t is not None:
        return t, component_count(graph, sigma[:t])
    state = ActivationState(graph)
    view = FullView(state)
    for t, v in enumerate(sigma.tolist(), start=1):
        state.activate(v)
        if decide(spec, view, seq) == STOP:
            return t, state.cc
    return n, state.cc


def blind_optimal_threshold(kind, n, k=None):
    """Best fixed stopping count l and its exact expected component count:
    the first argmax over every l of the exact witness curve of width k
    (k = 1 for kind "tree"), compared in integers over its common denominator.
    """
    from . import exact  # deferred: exact imports this module

    if kind == "tree":
        if n < 1:
            raise ParameterError("need n >= 1")
        k = 1  # l(n-l+1)/n is the width-1 curve
    elif kind != "ktree":
        raise ParameterError(f"unknown kind {kind!r}; expected 'tree' or 'ktree'")
    elif k is None or k < 1 or n < k + 1:
        raise ParameterError("ktree kind needs k >= 1 and n >= k+1")
    numerators, denominator = exact.blind_curve_ktree(k, n)
    best = numerators.index(max(numerators))
    return best, Fraction(numerators[best], denominator)


# --- text form used by the CLI -------------------------------------------


def _parse_fraction(text):
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse fraction {text!r}") from None


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"cannot parse integer {text!r}") from None


def parse_strategy(text):
    """Parse specs like blind:l=42, blind:alpha=1/3, greedy, dp,
    twophase:alpha=1/3,gamma=1/2,trigger=initial_clique (or trigger=0|1)."""
    head, _, rest = text.partition(":")
    if head == "greedy":
        if rest not in ("", "strict"):
            raise ParameterError(f"greedy takes only the strict flag, got {rest!r}")
        return greedy_gain(strict=rest == "strict")
    args = {}
    if rest:
        for part in rest.split(","):
            if "=" not in part:
                raise ParameterError(f"bad strategy argument {part!r} in {text!r}")
            key, _, value = part.partition("=")
            args[key] = value
    if head == "blind":
        if "l" in args:
            return blind_threshold(_parse_int(args["l"]))
        if "alpha" in args:
            return blind_fraction(_parse_fraction(args["alpha"]))
        raise ParameterError("blind strategy needs l=<int> or alpha=<fraction>")
    if head == "twophase":
        try:
            alpha = _parse_fraction(args["alpha"])
            gamma = _parse_fraction(args["gamma"])
            trig = args["trigger"]
        except KeyError as e:
            raise ParameterError(f"twophase missing argument {e}") from None
        if trig != "initial_clique":
            trig = frozenset(_parse_int(x) for x in trig.split("|"))
        return two_phase(alpha, gamma, trig)
    if head == "dp":
        return StrategySpec("dp_optimal")
    raise ParameterError(f"unknown strategy {text!r}")
