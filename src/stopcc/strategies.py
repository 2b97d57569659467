"""Stopping strategies: deterministic rules mapping observable history to
continue/stop, with the information regime enforced by the view type.

Blind strategies see only (n, t); full-information strategies see the whole
activation state.  Every strategy stops at t = n at the latest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .activation import ActivationState, check_permutation, component_count_trace
from .errors import ParameterError, UsageError, ValidationError

CONTINUE = "continue"
STOP = "stop"

BLIND_KINDS = {"blind_threshold", "blind_fraction"}
FULL_KINDS = {"greedy_gain", "two_phase", "dp_optimal", "fixed_permutation_oracle"}


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


def blind_stop_count(spec, n):
    """Arrivals after which a blind rule stops on n vertices."""
    if spec.kind == "blind_threshold":
        return min(spec.l, n)
    return stop_count(spec.alpha, n)


def _trigger_set(spec, seq):
    if spec.trigger == "initial_clique":
        if seq is None:
            raise UsageError("trigger=initial_clique needs a construction sequence")
        return seq.initial_clique()
    return spec.trigger


def decide(spec, view, seq=None):
    """One stop/continue decision from the observable view."""
    if spec.is_blind():
        n, t = view.n, view.t
    else:
        if not isinstance(view, FullView):
            raise UsageError(
                f"strategy {spec.kind} needs full information, got a blind view"
            )
        n, t = view.n, view.t
    if t >= n:
        return STOP

    if spec.is_blind():
        return STOP if t >= blind_stop_count(spec, n) else CONTINUE
    if spec.kind == "greedy_gain":
        gain = view.state.expected_gain()
        if spec.strict_gain:
            return CONTINUE if gain > 0 else STOP
        return CONTINUE if gain >= 0 else STOP
    if spec.kind == "two_phase":
        t_alpha = stop_count(spec.alpha, n)
        if t < t_alpha:
            return CONTINUE
        trigger = _trigger_set(spec, seq)
        hit = any(view.state.active[v] for v in trigger)
        if hit and t < stop_count(spec.gamma, n):
            return CONTINUE
        return STOP
    if spec.kind == "dp_optimal":
        if spec.table is None:
            raise UsageError("dp_optimal needs a solved value table attached")
        mask = view.state.active_mask
        if mask is None:
            raise UsageError("dp_optimal requires n within the subset-DP cap")
        return STOP if spec.table.should_stop(mask) else CONTINUE
    if spec.kind == "fixed_permutation_oracle":
        return STOP if t >= spec.stop_time else CONTINUE
    raise UsageError(f"unknown strategy kind {spec.kind!r}")


def run_strategy(graph, seq, spec, sigma):
    """Score one order: returns (stop_time, component count at stop).

    A blind rule's stop time depends on n alone, so its count is read from
    the arrival-time kernel on that prefix.  A full-information rule is
    consulted after each arrival of sigma through the activation engine.
    """
    check_permutation(sigma, graph.n)
    if seq is not None and seq.n != graph.n:
        raise ValidationError("sequence and graph disagree on vertex count")
    if spec.is_blind():
        t = blind_stop_count(spec, graph.n)
        return t, component_count_trace(graph, sigma[:t])[-1]
    state = ActivationState(graph)
    view = FullView(state)
    for t, v in enumerate(sigma, start=1):
        state.activate(v)
        if decide(spec, view, seq) == STOP:
            return t, state.cc
    return graph.n, state.cc


def blind_optimal_threshold(kind, n, k=None):
    """Best fixed stopping count l and its exact expected component count.

    kind "tree": argmax of l(n-l+1)/n.  kind "ktree": argmax over all l of
    the exact hypergeometric expectation for width k.
    """
    from . import exact  # deferred: exact imports this module

    if kind == "tree":
        if n < 1:
            raise ParameterError("need n >= 1")
        candidates = sorted({(n + 1) // 2, (n + 2) // 2})
        best = max(candidates, key=lambda l: exact.blind_expectation_tree(n, l))
        return best, exact.blind_expectation_tree(n, best)
    if kind == "ktree":
        if k is None or k < 1 or n < k + 1:
            raise ParameterError("ktree kind needs k >= 1 and n >= k+1")
        if n <= 2000:
            ls = range(n + 1)
        else:
            # float prescan to locate the peak, exact confirmation nearby
            import numpy as np

            l_arr = np.arange(1, n + 1, dtype=float)
            log_val = np.zeros(n)
            ok = np.ones(n, dtype=bool)
            for j in range(k):
                f = (n - l_arr - j) / (n - j)
                ok &= f > 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    log_val += np.where(ok, np.log(np.maximum(f, 1e-300)), -np.inf)
            log_val += np.log(l_arr) - math.log(n - k)
            guess = int(l_arr[int(np.argmax(log_val))])
            ls = range(max(0, guess - 50), min(n, guess + 50) + 1)
        best_l, best_v = 0, Fraction(0)
        for l in ls:
            v = exact.blind_expectation_ktree(k, n, l)
            if v > best_v:
                best_l, best_v = l, v
        return best_l, best_v
    raise ParameterError(f"unknown kind {kind!r}; expected 'tree' or 'ktree'")


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
