"""Closed-form expectations, exhaustive brute-force oracles, and the
backward-induction optimal value for the full-information game.

Everything that can be exact is exact (integer/Fraction arithmetic).  The
subset DP has two tiers: the exact tier (n <= 12) keeps the integers
W(S) = V(S)*(n-|S|)! and returns V as Fractions; the float tier (n <= 24)
keeps V in double precision, with the exact tier as its cross-check.  It
reads a uint8 table of the component count of every subset, built in NumPy
over all masks at once: by doubling on each vertex in turn for a forest and
for any graph whose ids are an elimination order, as the paper's k-trees in
construction order are, and by frontier growth for any other graph.  The
flood fill cc_of_mask is its oracle.

The DP sweeps the masks block by block, a block being the 2^14 masks that
share their top n - _DP_BLOCK_BITS bits P, so that the block's values stay in
cache.  Blocks are solved by descending P: block P reads only blocks
P + (a bit not in P), which are larger and so already solved.  Inside a block
the layers of the low bits are swept from full to empty, in one low-bit layer
order that every block shares.  Each state adds only its n - |S| successors
V(S + v), v not in S, by ascending bit: the low bits from its own block,
gathered through one successor table per sweep whose rows list each mask's
missing low bits in ascending order and summed row by row, and then the high
bits from the solved blocks.  That is the order of a single sweep over all
2^n masks, so every value and stop flag is bit-identical to it; for
n <= _DP_BLOCK_BITS there is one block, and that sweep is what runs.

The same sweep scores a rule: strategy_value puts the rule's stop flags in
place of the max on the exact tier, so one sweep serves the optimal value V*
and every rule's value V^pi.  brute_force_strategy_value, which walks the
arrival orders through the activation engine, is its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import strategies
from .activation import _MASK_CAP, ActivationState
from .errors import ParameterError, ResourceLimitError
from .graphs import _check_vertex_count

# the dp rule reads ActivationState's active-set mask, kept up to this n
DP_CAP = _MASK_CAP
DP_EXACT_CAP = 12
PERM_CAP = 9
SUBSET_ENUM_CAP = 10**8
BLIND_CURVE_CAP = 10**6
# peak memory per curve row, estimated high: 190 bytes at small k; beyond
# that the numerators carry (k+1) log2(n) bits, and tracemalloc peaks fit
# 81 + (k+1) bits(n) / 4 bytes (84, 156, 844 at k = 1, 20, 200, n = 2*10^4)
BLIND_CURVE_ROW_BYTES = 190
BLIND_CURVE_BUDGET = 10**9  # bytes

# accumulated float error in the DP is below n * 2**-50; this dominates it
DP_TIE_TOL = 1e-9
# the subset DP solves 2**_DP_BLOCK_BITS masks at a time: 128 kB of float64,
# which stays in a core's L2 cache while the block's layers are swept; the
# successor table adds 14 * 2**13 intp entries, 0.92 MB (8.9 MB at 17 bits)
_DP_BLOCK_BITS = 14


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


def blind_curve(k, n):
    """The whole exact blind curve of width k on n vertices and its first
    argmax: (numerators, common denominator, best l), from
    blind_curve_ktree(k, n).  ResourceLimitError, before any list is built,
    above n = BLIND_CURVE_CAP or when the rows would need more than
    BLIND_CURVE_BUDGET bytes."""
    need = n * max(BLIND_CURVE_ROW_BYTES, 100 + (k + 1) * n.bit_length() // 3)
    if n > BLIND_CURVE_CAP or need > BLIND_CURVE_BUDGET:
        raise ResourceLimitError(
            f"the exact blind curve with k={k}, n={n} needs about {need // 10**6} MB; "
            f"it is capped at n={BLIND_CURVE_CAP} and {BLIND_CURVE_BUDGET // 10**6} MB"
        )
    numerators, denominator = blind_curve_ktree(k, n)
    return numerators, denominator, numerators.index(max(numerators))


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
    """uint8 CC of every subset bitmask, built over all masks at once; a
    count never exceeds n <= DP_CAP.

    A forest, or any graph whose ids eliminate, doubles on its highest
    vertex v: for S < 2^v, CC(S + v) = CC(S) + 1 minus the number of
    components of S that v joins.  On a forest the lower neighbours of v
    inside S lie in distinct components, so that is |S & lower neighbours|;
    when the ids eliminate they form a clique, so it is [S meets them].
    Any other graph takes _frontier_counts.
    """
    n = graph.n
    adj_masks = _adjacency_masks(graph)
    eliminate = graph.ids_eliminate
    if not eliminate and not graph.is_forest():
        return _frontier_counts(n, adj_masks)
    # no 2^n mask array: each doubling ANDs a fresh arange of its half
    cc = np.zeros(1 << n, dtype=np.uint8)
    for v in range(n):
        half = 1 << v
        upper = cc[half: 2 * half]
        lower = np.arange(half, dtype=np.uint32)
        lower &= np.uint32(adj_masks[v])
        if eliminate:
            np.add(cc[:half], lower == 0, out=upper)
        else:
            np.add(cc[:half], 1, out=upper)
            np.subtract(upper, _bit_counts(lower), out=upper)
    return cc


def _frontier_counts(n, adj_masks):
    """uint8 CC of every subset bitmask of a graph that is neither a forest
    nor id-eliminating: grow the component of each mask's lowest vertex
    frontier by frontier, take rest(S) = S minus that component, and count
    the steps of the rest chain down to 0."""
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
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
    cc = np.zeros(size, dtype=np.uint8)
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
    active subsets.  Float tier up to n=24; exact-rational tier up to n=12.

    The sweep runs over blocks of 2^_DP_BLOCK_BITS masks (see the module
    docstring).  Besides the uint8 component-count table it allocates only
    the value and stop tables, 8 + 1 bytes per mask, the successor table of
    _DP_BLOCK_BITS * 2^(_DP_BLOCK_BITS - 1) entries, and working arrays of
    O(2^_DP_BLOCK_BITS) entries."""
    _check_dp_caps(graph.n, exact)
    return _solve_dp(graph, exact)


def _check_dp_caps(n, exact_tier):
    if n > DP_CAP:
        raise ResourceLimitError(f"subset DP capped at n={DP_CAP}, got n={n}")
    if exact_tier and n > DP_EXACT_CAP:
        raise ResourceLimitError(
            f"exact-rational DP capped at n={DP_EXACT_CAP}, got n={n}"
        )


def _successor_table(width):
    """The shared low-bit layer order of a block of 2^width masks, as
    [(layer, successors)] for tau = 0..width: layer holds the masks of
    popcount tau in ascending order, and successors is the
    (width - tau, len(layer)) intp array whose row r holds each mask plus
    its r-th missing bit, the bits ascending.  It has width * 2^(width-1)
    entries."""
    pc = _popcounts(1 << width)
    # uint8 keys take NumPy's stable radix sort
    order = np.argsort(pc, kind="stable")
    offsets = np.searchsorted(pc[order], np.arange(width + 2))
    table = []
    for tau in range(width + 1):
        layer = order[offsets[tau]: offsets[tau + 1]]
        successors = np.empty((width - tau, len(layer)), dtype=np.intp)
        filled = layer
        for row in successors:
            # the lowest bit missing from the mask and the rows above
            bit = ~filled & (filled + 1)
            np.bitwise_or(layer, bit, out=row)
            filled = filled | bit
        table.append((layer, successors))
    return table


def _solve_dp(graph, exact_tier, rule=None, margins=False):
    """The sweep behind solve_dp.  With rule, strategies.stop_flags of a
    rule, the flags it returns replace the max: a state where it stops keeps
    its CC, any other the mean of its successors.  margins accumulates the
    array sum over v not in S of CC(S + v) - CC(S), the greedy margin, for
    rule.

    Each state adds only its n - |S| successors, starting from the first:
    the low ones with one take through _successor_table per layer, the rows
    summed in order (np.add.reduce over axis 0, which is not the fast axis;
    a one-mask layer has one column, which NumPy would sum pairwise, so its
    rows are added one at a time), then the high ones by ascending bit.  So
    every float addition happens in ascending bit order."""
    n = graph.n
    cc = _component_counts(graph)
    width = min(n, _DP_BLOCK_BITS)
    # row p of these views is block p: the masks whose top n - width bits are p
    cc_rows = cc.reshape(-1, 1 << width)
    table = _successor_table(width)
    # exact tier: W(S) <= n*(n-|S|)! <= n*n! < 2**63 for n <= 19, so int64
    # is exact under DP_EXACT_CAP
    values = np.zeros(1 << n, dtype=np.int64 if exact_tier else np.float64)
    stop = np.zeros(1 << n, dtype=bool)
    values[-1] = cc[-1]
    stop[-1] = True
    value_rows, stop_rows = values.reshape(cc_rows.shape), stop.reshape(cc_rows.shape)
    tol = 0 if exact_tier else DP_TIE_TOL
    full_block = len(value_rows) - 1
    for p in range(full_block, -1, -1):
        block, block_cc, block_stop = value_rows[p], cc_rows[p], stop_rows[p]
        # the solved blocks that S + (a high bit not in S) falls in, by
        # ascending bit
        above = [p | 1 << j for j in range(n - width) if not p >> j & 1]
        # the full block's top layer is the full mask, set above
        top = width - 1 if p == full_block else width
        for tau in range(top, -1, -1):
            layer, successors = table[tau]
            low = block.take(successors)
            if len(layer) > 1:
                # axis 0 is not the fast axis: NumPy adds the rows in order
                acc = np.add.reduce(low, axis=0)
            else:
                # one column would be summed pairwise, so add row by row
                acc = np.zeros(1, dtype=values.dtype)
                for row in low:
                    acc += row
            for q in above:
                acc += value_rows[q].take(layer)
            remaining = n - p.bit_count() - tau
            here, cont, margin = block_cc.take(layer), acc, None
            if margins:
                margin = block_cc.take(successors).sum(axis=0, dtype=np.int64)
                for q in above:
                    margin += cc_rows[q].take(layer)
                margin -= remaining * here.astype(np.int64)
            if exact_tier:
                # NumPy 2 refuses a uint8 array times a Python int above 255
                here = here.astype(np.int64) * math.factorial(remaining)
            else:
                cont = acc / remaining
            if rule is None:
                block[layer] = np.maximum(here, cont)
                block_stop[layer] = here >= cont - tol
            else:
                stops = rule(layer | p << width, n - remaining, margin)
                block[layer] = np.where(stops, here, cont)
                block_stop[layer] = stops
    return ValueTable(n, values, stop, exact=exact_tier)


def strategy_value(graph, seq, spec):
    """Exact expected score of a rule, as a Fraction: the exact tier of the
    subset sweep with the rule's strategies.stop_flags in place of the max,
    W(S) = CC(S) (n-|S|)! where it stops, else the sum over v not in S of
    W(S + v).  brute_force_strategy_value is its independent oracle."""
    n = graph.n
    _check_dp_caps(n, True)
    _check_vertex_count(seq, n)
    if n == 0:  # the empty set is full: no rule is asked
        return Fraction(0)
    rule = strategies.stop_flags(spec, n, seq)
    return _solve_dp(graph, True, rule, margins=spec.kind == "greedy_gain").root_value


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
    _check_vertex_count(seq, n)
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
