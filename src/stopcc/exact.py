"""Closed-form expectations, exhaustive brute-force oracles, and the
backward-induction optimal value for the full-information game.

Everything that can be exact is exact (integer/Fraction arithmetic).  The
subset DP is one layer sweep with two tiers: the exact tier (n <= 12) keeps
the integers W(S) = V(S)*(n-|S|)! and returns V as Fractions; the float tier
(n <= 24) keeps V in double precision, with the exact tier as its cross-check.
The sweep reads a table of the component count of every subset, built in
NumPy over all masks at once; the flood fill cc_of_mask is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import strategies
from .activation import ActivationState
from .errors import ParameterError, ResourceLimitError, ValidationError

DP_CAP = 24
DP_EXACT_CAP = 12
PERM_CAP = 9
SUBSET_ENUM_CAP = 10**8

# accumulated float error in the DP is below n * 2**-50; this dominates it
DP_TIE_TOL = 1e-9


def blind_expectation_tree(n, l):
    """Expected component count of a uniform l-subset of any n-vertex tree,
    l(n-l+1)/n: the width-1 witness curve."""
    if n < 1 or not 0 <= l <= n:
        raise ParameterError(f"need n >= 1 and 0 <= l <= n, got n={n}, l={l}")
    return blind_expectation_ktree(1, n, l)


def blind_expectation_ktree(k, n, l):
    """Exact expected component count of a uniform l-subset of any k-tree."""
    if not 0 <= l <= n:
        raise ParameterError(f"bad arguments k={k}, n={n}, l={l}")
    (numerator,), denominator = blind_curve_ktree(k, n, (l,))
    return Fraction(numerator, denominator)


def blind_curve_ktree(k, n, ls=None):
    """Expected component counts of uniform l-subsets of any n-vertex k-tree
    for every l of ls (default 0..n): (integer numerators, common denominator).

    A vertex is a witness when it is active and its whole attachment set is
    not; initial-clique vertex i attaches to the i-1 earlier ones.  With m
    attachment vertices that has probability l (n-l)_m / (n)_{m+1}, (x)_m the
    falling factorial; m = 0..k-1 once each, m = k for the n-k later vertices.
    Over (n)_{k+1}, whose last factor n-k is 1 when n == k, the sum is
    l * sum_m c_m (n-l)_m, evaluated by Horner's rule from m = k down.
    """
    if k < 1 or n < k:
        raise ParameterError(f"bad arguments k={k}, n={n}")
    ls = range(n + 1) if ls is None else ls
    acc = [n - k] * len(ls)  # c_k: the n-k later vertices
    scale = max(n - k, 1)  # c_m = h_m * (n)_{k+1} / (n)_{m+1} = scale, m < k
    for m in range(k - 1, -1, -1):
        acc = [scale + (n - m - l) * a for l, a in zip(ls, acc)]
        scale *= n - m
    return [l * a for l, a in zip(ls, acc)], scale


def _adjacency_masks(graph):
    masks = [0] * graph.n
    for u in range(graph.n):
        for w in graph.adj[u]:
            masks[u] |= 1 << w
    return masks


def cc_of_mask(adj_masks, mask):
    """Component count of the induced subgraph on the bitmask, by flood fill."""
    count = 0
    remaining = mask
    while remaining:
        count += 1
        comp = remaining & -remaining
        while True:
            frontier = 0
            m = comp
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                frontier |= adj_masks[v]
            grown = comp | (frontier & remaining)
            if grown == comp:
                break
            comp = grown
        remaining &= ~comp
    return count


def brute_force_blind(graph, l):
    """Exact mean component count over all l-subsets, by enumeration."""
    n = graph.n
    if not 0 <= l <= n:
        raise ParameterError(f"need 0 <= l <= n, got l={l}")
    if n > 30 or math.comb(n, l) > SUBSET_ENUM_CAP:
        raise ResourceLimitError(
            f"C({n},{l}) subsets exceed the enumeration guard"
        )
    adj_masks = _adjacency_masks(graph)
    total = 0
    for subset in combinations(range(n), l):
        mask = 0
        for v in subset:
            mask |= 1 << v
        total += cc_of_mask(adj_masks, mask)
    return Fraction(total, math.comb(n, l))


@dataclass
class ValueTable:
    """Backward-induction values V(S) for every active-set bitmask.

    V(full) = CC(full); V(S) = max(CC(S), mean over v not in S of V(S+v)).
    stop[S] marks subsets where stopping is optimal (ties stop).  The float
    tier stores V(S) as float64.  The exact tier stores the int64
    W(S) = V(S)*(n-|S|)!, and value() returns V(S) as a Fraction.
    """

    n: int
    values: np.ndarray
    stop: np.ndarray
    exact: bool

    def value(self, mask):
        if self.exact:
            remaining = self.n - int(mask).bit_count()
            return Fraction(int(self.values[mask]), math.factorial(remaining))
        return self.values[mask]

    def should_stop(self, mask):
        return bool(self.stop[mask])

    @property
    def root_value(self):
        return self.value(0)

    def export(self, stream):
        for mask in range(1 << self.n):
            stream.write(f"{mask} {self.value(mask)} {int(self.stop[mask])}\n")


def _bit_counts(masks):
    """uint8 popcount of every element of a uint32 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(masks)
    pc = np.zeros(masks.shape, dtype=np.uint8)
    masks = masks.copy()
    while masks.any():
        pc += (masks & 1).astype(np.uint8)
        masks >>= 1
    return pc


def _popcounts(size):
    return _bit_counts(np.arange(size, dtype=np.uint32))


def _component_counts(graph):
    """int64 CC of every subset bitmask, built over all masks at once.

    A forest doubles on its highest vertex v: for S < 2^v,
    CC(S + v) = CC(S) + 1 - |S & lower neighbours of v|, since the
    neighbours of v inside S lie in distinct components.  Any other graph
    grows the component of each mask's lowest vertex frontier by frontier,
    takes rest(S) = S minus that component, and counts the steps of the
    rest chain down to 0.
    """
    n = graph.n
    size = 1 << n
    adj_masks = _adjacency_masks(graph)
    masks = np.arange(size, dtype=np.uint32)
    if graph.is_forest():
        cc = np.zeros(size, dtype=np.int64)
        for v in range(n):
            half = 1 << v
            lower = masks[:half] & np.uint32(adj_masks[v])
            cc[half: 2 * half] = cc[:half] + 1 - _bit_counts(lower)
        return cc
    # nbr[S] = OR of the neighbourhoods of the vertices of S, by doubling
    nbr = np.zeros(size, dtype=np.uint32)
    for v in range(n):
        half = 1 << v
        np.bitwise_or(nbr[:half], np.uint32(adj_masks[v]), out=nbr[half: 2 * half])
    comp = masks & (~masks + np.uint32(1))  # lowest vertex of each mask
    growing = masks[1:]
    while growing.size:
        old = comp[growing]
        grown = (old | nbr[old]) & growing
        moved = grown != old
        growing = growing[moved]
        comp[growing] = grown[moved]
    del nbr
    rest = comp
    rest ^= masks  # S minus the component of its lowest vertex
    cc = np.zeros(size, dtype=np.int64)
    live = masks[1:]
    links = live
    while live.size:
        cc[live] += 1
        links = rest[links]
        alive = links != 0
        live, links = live[alive], links[alive]
    return cc


def solve_dp(graph, exact=False):
    """Solve the full-information game exactly by backward induction over
    active subsets.  Float tier up to n=24; exact-rational tier up to n=12."""
    n = graph.n
    if n > DP_CAP:
        raise ResourceLimitError(f"subset DP capped at n={DP_CAP}, got n={n}")
    if exact and n > DP_EXACT_CAP:
        raise ResourceLimitError(
            f"exact-rational DP capped at n={DP_EXACT_CAP}, got n={n}"
        )
    return _solve_dp(graph, exact)


def _solve_dp(graph, exact_tier):
    n = graph.n
    size = 1 << n
    cc = _component_counts(graph)
    pc = _popcounts(size)
    # uint8 keys take NumPy's stable radix sort
    order = np.argsort(pc, kind="stable").astype(np.uint32)
    offsets = np.searchsorted(pc[order], np.arange(n + 2))
    del pc
    # exact tier: W(S) <= n*(n-|S|)! <= n*n! < 2**63 for n <= 19, so int64
    # is exact under DP_EXACT_CAP
    values = np.zeros(size, dtype=np.int64 if exact_tier else np.float64)
    stop = np.zeros(size, dtype=bool)
    full = size - 1
    values[full] = cc[full]
    stop[full] = True
    tol = 0 if exact_tier else DP_TIE_TOL
    for t in range(n - 1, -1, -1):
        layer = order[offsets[t]: offsets[t + 1]]
        # a bit already in S reads S's own value, still 0 in this layer,
        # so adding it leaves acc bit-identical
        acc = np.zeros(len(layer), dtype=values.dtype)
        for b in range(n):
            acc += values[layer | np.uint32(1 << b)]
        if exact_tier:
            here, cont = cc[layer] * math.factorial(n - t), acc
        else:
            here, cont = cc[layer], acc / (n - t)
        values[layer] = np.maximum(here, cont)
        stop[layer] = here >= cont - tol
    return ValueTable(n, values, stop, exact=exact_tier)


def brute_force_strategy_value(graph, seq, spec):
    """Exact expected score: mean over all n! arrival orders of the rule's
    component count at its stopping time.

    The orders are walked depth first by prefix, and the rule is asked
    through strategies.decide at every prefix shorter than n, the empty one
    included; every rule stops at n at the latest.  The (n-t)! orders that
    start with a prefix of length t where the rule stops all score that
    prefix's count, so the prefix adds CC * (n-t)! to the sum.
    """
    n = graph.n
    if n > PERM_CAP:
        raise ResourceLimitError(
            f"permutation enumeration capped at n={PERM_CAP}, got n={n}"
        )
    if seq is not None and seq.n != n:
        raise ValidationError("sequence and graph disagree on vertex count")
    weight = [math.factorial(n - t) for t in range(n + 1)]
    total = 0
    stack = [ActivationState(graph)]
    while stack:
        state = stack.pop()
        t = state.t
        view = strategies.FullView(state)
        if t == n or strategies.decide(spec, view, seq) == strategies.STOP:
            total += state.cc * weight[t]
            continue
        for v in range(n):
            if not state.active[v]:
                child = state.copy()
                child.activate(v)
                stack.append(child)
    return Fraction(total, weight[0])


@dataclass(frozen=True)
class RemarkValues:
    """The two readings of the star-plus-path continuation example.

    displayed: the closed expression as printed (its limit is 1/4, not the
    stated ~3/4 -- we report, not resolve).  independent: exact evaluation of
    the continuation strategy itself from the all-leaves-active position.
    """

    displayed: Fraction
    independent: Fraction


def remark_continuation_value(n):
    """Exact value of continuing (vs stopping) on the star-with-(n+1)-leaves
    plus path-of-(n-1) instance when exactly the star leaves are active.

    The continuation strategy: if the next vertex is not the center, stop;
    otherwise take (n-1)/2 more vertices.
    """
    if n < 3 or n % 2 == 0:
        raise ParameterError(f"need odd n >= 3, got {n}")
    displayed = Fraction(n - 1, n) + Fraction(1, n) * (-(n + 1) + Fraction(n - 1, 4))

    # center branch: activating the center collapses n+1 leaf components to
    # one (gain -n), then l = (n-1)/2 uniform picks from the n-1 path
    # vertices add l - l^2/(n-1) expected components (path components minus
    # expected internal edges, minus the chance the center-adjacent path
    # vertex glues its component onto the big blob)
    l = (n - 1) // 2
    path_gain = Fraction(l * (n - 1 - l), n - 1)
    independent = Fraction(n - 1, n) * 1 + Fraction(1, n) * (-n + path_gain)
    return RemarkValues(displayed, independent)
