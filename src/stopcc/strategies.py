"""Stopping strategies: deterministic rules mapping observable history to
continue/stop, with the information regime enforced by the view type.

Blind strategies see only (n, t); full-information strategies see the whole
activation state in decide, the per-step reference.  position_stop_time and
_trigger state a position rule once for decide, stop_flags and order_scorer
alike; the subset sweep reads stop_flags, and order_scorer compiles each rule
once per scorer.  Every strategy stops at t = n at the latest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .activation import (_MASK_CAP, ActivationState, check_permutation, component_count,
                         counts_from_merges, merge_counts, nbr_sum_trace)
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
    Pass alpha as a Fraction to keep it exact: ceil(0.07 * 100) is 8.  A
    Fraction p/q takes the integer ceiling -(-p n // q).
    """
    if isinstance(alpha, Fraction):
        return -(-alpha.numerator * n // alpha.denominator)
    return math.ceil(alpha * n)


def position_stop_time(spec, n):
    """(early, late): the stop time on n vertices of a rule that reads only
    arrival positions, with no trigger among the first early arrivals and
    with one.  late == early for every rule but two-phase.  Both are n for
    greedy and dp at n <= 1, and None for them at n > 1."""
    if spec.kind == "two_phase":
        early = min(max(stop_count(spec.alpha, n), 1), n)  # first consulted at t = 1
        return early, min(max(early, stop_count(spec.gamma, n)), n)
    if spec.kind == "blind_threshold":
        t = min(spec.l, n)
    elif spec.kind == "blind_fraction":
        t = stop_count(spec.alpha, n)
    elif spec.kind == "fixed_permutation_oracle":
        t = min(max(spec.stop_time, 1), n)  # first consulted at t = 1
    elif spec.kind in ("greedy_gain", "dp_optimal"):
        t = n if n <= 1 else None
    else:
        raise UsageError(f"unknown strategy kind {spec.kind!r}")
    return t, t


def _trigger(spec, n, seq, early):
    """The trigger set a rule reads, checked against n: two-phase's when it
    would stop at early < n with none seen; empty for any other rule."""
    if spec.kind != "two_phase" or early >= n:
        return frozenset()
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


def _dp_table(spec, n):
    """The dp rule's value table, checked against n vertices."""
    if spec.table is None:
        raise UsageError("dp_optimal needs a solved value table attached")
    if n > _MASK_CAP:
        raise UsageError("dp_optimal requires n within the subset-DP cap")
    if spec.table.n != n:
        raise ValidationError(f"dp table solves {spec.table.n} vertices, the graph has {n}")
    return spec.table


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
        table = _dp_table(spec, n)
        return STOP if table.should_stop(view.state.active_mask) else CONTINUE

    early, late = position_stop_time(spec, n)
    if t < early:
        return CONTINUE
    # a replay reaches t > early only if a trigger arrived by early; it stays active
    seen = any(view.state.active[v] for v in _trigger(spec, n, seq, early))
    return STOP if t >= (late if seen else early) else CONTINUE


def stop_flags(spec, n, seq=None):
    """decide over any array of active sets, a sweep layer or an order's
    prefixes: flags(masks, t, margin) flags each set of masks, of size t < n.
    margin, read by greedy alone, is the array of its n - t - nbr_sum.  Raises
    what decide raises on its first call, or for two-phase at t = early."""
    if spec.kind == "greedy_gain":
        return lambda masks, t, margin: ~_greedy_continues(spec, margin)
    if spec.kind == "dp_optimal":
        stop = _dp_table(spec, n).stop
        return lambda masks, t, margin: stop[masks]
    early, late = position_stop_time(spec, n)
    trigger_mask = sum(1 << v for v in _trigger(spec, n, seq, early))
    return lambda masks, t, margin: (masks & trigger_mask == 0) & (t >= early) | (t >= late)


def order_scorer(graph, seq, specs):
    """Score orders of graph under every rule of specs at once: returns
    score(sigma), which checks the order sigma and gives the list of each
    rule's (stop_time, component count at stop), in the order of specs.

    The rules are compiled here, once, and serve every order.  A position
    rule stops at early, or at late when a trigger, held as flags over the
    vertices, is among the first early arrivals.  dp, and greedy on a
    chordal graph, stop at the first flag of stop_flags over the order's
    sets at t = 1..n-1: the prefix masks for dp and the margins of one
    nbr_sum_trace for greedy, each computed once per order.  Greedy on
    other graphs steps one ActivationState for all such rules, which reads
    their counts.  The other counts come from one merge_counts of the
    longest stopping prefix when those rules stop at more than one time and
    the graph's ids eliminate, where component_count would run the same
    kernel on each prefix; otherwise from component_count on each prefix.
    """
    n = graph.n
    if seq is not None and seq.n != n:
        raise ValidationError("sequence and graph disagree on vertex count")
    steps = np.arange(1, n)
    positions, flagged, engine = [], [], []  # each kind's rules, by index in specs
    for i, spec in enumerate(specs):
        early, late = position_stop_time(spec, n)
        if early is not None:
            trigger = np.zeros(n, dtype=bool)
            trigger[list(_trigger(spec, n, seq, early))] = True
            positions.append((i, early, late, trigger))
        elif (spec.kind == "dp_optimal" or graph.is_forest()
              or graph.elimination_arcs is not None):
            flagged.append((i, stop_flags(spec, n, seq)))
        else:
            engine.append(i)
    kinds = {specs[i].kind for i, _ in flagged}

    def score(sigma):
        sigma = check_permutation(sigma, n)
        masks = margin = None
        if "dp_optimal" in kinds:
            masks = np.cumsum(np.left_shift(1, sigma[:-1], dtype=np.int64))
        if "greedy_gain" in kinds:
            margin = n - steps - nbr_sum_trace(graph, sigma)[1:n]
        times = {}  # stop time -> the rules whose count the kernel gives there
        for i, early, late, trigger in positions:
            t = late if late != early and trigger.take(sigma[:early]).any() else early
            times.setdefault(t, []).append(i)
        for i, rule in flagged:
            stops = rule(masks, steps, margin)
            t = int(stops.argmax()) + 1 if stops.any() else n
            times.setdefault(t, []).append(i)
        if len(times) > 1 and graph.ids_eliminate:
            counts = counts_from_merges(merge_counts(graph, sigma[:max(times)]))
        else:
            counts = {t: component_count(graph, sigma[:t]) for t in times}
        scores = [None] * len(specs)
        for t, ids in times.items():
            for i in ids:
                scores[i] = t, int(counts[t])
        if engine:
            for i, played in zip(engine, _play(graph, sigma, [specs[i] for i in engine])):
                scores[i] = played
        return scores

    return score


def _play(graph, sigma, specs):
    """(stop_time, count) of each greedy rule of specs on sigma, from one
    ActivationState stepped until all have stopped.  Where a strict rule
    continues the other does too, so the rules wait strict first and each
    step tests only the first of them."""
    n = graph.n
    waiting = sorted(range(len(specs)), key=lambda i: not specs[i].strict_gain)
    scores = [None] * len(specs)
    state = ActivationState(graph)
    for t, v in enumerate(sigma.tolist(), start=1):
        state.activate(v)
        margin = n - t - state.nbr_sum
        while waiting and (t == n or not _greedy_continues(specs[waiting[0]], margin)):
            scores[waiting.pop(0)] = t, state.cc
        if not waiting:
            return scores


def run_strategy(graph, seq, spec, sigma):
    """Score one order under one rule: returns (stop_time, component count
    at stop).  The one-rule call of order_scorer."""
    return order_scorer(graph, seq, [spec])(sigma)[0]


def blind_optimal_threshold(kind, n, k=None):
    """Best fixed stopping count l and its exact expected component count:
    the first argmax over every l of the exact witness curve of width k
    (k = 1 for kind "tree"), compared in integers over its common denominator.
    exact.blind_curve refuses a curve above its caps before building it.
    """
    from . import exact  # deferred: exact imports this module

    if kind == "tree":
        if k is not None:
            raise ParameterError(f"the tree curve has width 1 and takes no k, got k={k}")
        if n < 1:
            raise ParameterError("need n >= 1")
        k = 1  # l(n-l+1)/n is the width-1 curve
    elif kind != "ktree":
        raise ParameterError(f"unknown kind {kind!r}; expected 'tree' or 'ktree'")
    elif k is None or k < 1 or n < k + 1:
        raise ParameterError("ktree kind needs k >= 1 and n >= k+1")
    numerators, denominator, best = exact.blind_curve(k, n)
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
