"""Incremental state of one play: activate vertices, track component count,
component-neighborhood sum, and (optionally) witnessing-vertex count.

Components are a union-find forest whose roots hold their boundaries (the
inactive neighbors) as sets merged small-to-large, so the neighborhood sum
stays exact in amortized O(log n) set operations per vertex.  The root whose
set survives a merge roots the merged component; path halving bounds finds.

component_count_trace is the arrival-time kernel: the component count after
every arrival of an order at once, with none of the other state.  The kernel
counts merges in the first of three ways that applies: one per vertex, when
the vertex ids are an elimination order (every vertex's lower-id neighbours
form a clique, as in a path, a star or a k-tree numbered in construction
order), from the witness identity CC(S) = #{v in S: no lower-id neighbour of
v in S}; one per edge on a forest; and otherwise from a minimum spanning
forest of the edge times (graphs.spanning_forest, Borůvka's rounds in
NumPy).  component_count, the count of one prefix, needs no merge times:
on a forest, whatever its ids, it is the prefix's size minus its edges;
otherwise it reads the witness branch when the ids eliminate, and it hooks
the prefix's induced subgraph by graphs.component_roots when they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import UsageError, ValidationError
from .graphs import component_roots, spanning_forest

# beyond this size we stop maintaining the active-set bitmask: only the dp
# rule reads it, and exact.DP_CAP, the subset DP's cap, is this one
_MASK_CAP = 24


class ActivationDelta(NamedTuple):
    delta_cc: int
    cc: int
    nbr_sum: int
    wv: int | None


class ActivationState:
    """Mutable state of one run on a shared immutable graph.

    When a construction sequence is supplied, the witnessing-vertex count
    (active v with its whole attachment set inactive) is maintained as well;
    initial-clique vertices use the earlier initial vertices as attachment.
    activate(v) links v and the components next to it under the root whose
    boundary set survives and returns an ActivationDelta, a named tuple;
    component_root(v) is any one representative of v's component.
    """

    def __init__(self, graph, seq=None):
        n = graph.n
        self.graph = graph
        self.active = bytearray(n)
        self.t = 0
        self.cc = 0
        self.nbr_sum = 0
        self._parent = list(range(n))
        self._boundary = {}  # component root -> set of inactive neighbor ids
        self.active_mask = 0 if n <= _MASK_CAP else None
        if seq is not None:
            if seq.n != n:
                raise ValidationError("sequence and graph disagree on vertex count")
            self.wv = 0
            self._m_active = [0] * n  # active members of M_v, per vertex
            deps = [[] for _ in range(n)]
            for v, m in seq.order:
                for w in m:
                    deps[w].append(v)
            self._deps = deps
        else:
            self.wv = None
            self._deps = None

    @property
    def n(self):
        return self.graph.n

    def copy(self):
        """An independent state at the same point of play; the graph and the
        sequence's attachment lists are shared, being read-only."""
        other = object.__new__(ActivationState)
        other.__dict__.update(self.__dict__)
        other.active = self.active[:]
        other._parent = self._parent[:]
        other._boundary = {r: set(s) for r, s in self._boundary.items()}
        if self._deps is not None:
            other._m_active = self._m_active[:]
        return other

    def _find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def component_root(self, v):
        if not self.active[v]:
            raise UsageError(f"vertex {v} is not active")
        return self._find(v)

    def adjacent_component_count(self, w):
        """Number of distinct active components adjacent to inactive w."""
        if self.active[w]:
            raise UsageError(f"vertex {w} is active")
        return len({self._find(u) for u in self.graph.adj[w] if self.active[u]})

    def activate(self, v):
        if not 0 <= v < self.n:
            raise UsageError(f"vertex id {v} out of range")
        if self.active[v]:
            raise UsageError(f"vertex {v} is already active")
        active = self.active
        find = self._find
        roots = {find(u) for u in self.graph.adj[v] if active[u]}

        active[v] = 1
        self.t += 1
        if self.active_mask is not None:
            self.active_mask |= 1 << v
        delta_cc = 1 - len(roots)
        self.cc += delta_cc

        # nbr_sum drops the old boundaries and gains the merged one, which
        # unions them small-to-large, drops v and adds v's inactive neighbours
        boundary, parent = self._boundary, self._parent
        nbr_sum = self.nbr_sum
        root, merged = v, set()
        for r in roots:
            s = boundary.pop(r)
            nbr_sum -= len(s)
            if len(s) > len(merged):
                root, merged, s = r, s, merged
            merged |= s
        for r in roots:
            parent[r] = root
        parent[v] = root
        merged.discard(v)
        for w in self.graph.adj[v]:
            if not active[w]:
                merged.add(w)
        self.nbr_sum = nbr_sum + len(merged)
        boundary[root] = merged

        if self._deps is not None:
            if self._m_active[v] == 0:
                self.wv += 1
            m_active = self._m_active
            for w in self._deps[v]:
                m_active[w] += 1
                if active[w] and m_active[w] == 1:
                    self.wv -= 1

        return ActivationDelta(delta_cc, self.cc, self.nbr_sum, self.wv)

    def expected_gain(self):
        """Exact expected change in component count if one more uniformly
        random inactive vertex is activated: (n - t - nbr_sum) / (n - t)."""
        remaining = self.n - self.t
        if remaining == 0:
            raise UsageError("expected_gain is undefined with all vertices active")
        return Fraction(remaining - self.nbr_sum, remaining)

    # from-scratch oracles for invariant testing

    def recount_cc(self):
        seen = bytearray(self.n)
        count = 0
        for s in range(self.n):
            if self.active[s] and not seen[s]:
                count += 1
                seen[s] = 1
                stack = [s]
                while stack:
                    u = stack.pop()
                    for w in self.graph.adj[u]:
                        if self.active[w] and not seen[w]:
                            seen[w] = 1
                            stack.append(w)
        return count

    def recount_nbr_sum(self):
        return sum(
            self.adjacent_component_count(w)
            for w in range(self.n)
            if not self.active[w]
        )

    def recount_wv(self):
        if self._deps is None:
            raise UsageError("no construction sequence supplied")
        return sum(
            1
            for v in range(self.n)
            if self.active[v] and self._m_active[v] == 0
        )


@dataclass(frozen=True)
class TraceStep:
    t: int
    cc: int
    nbr_sum: int
    wv: int | None


def check_permutation(sigma, n):
    """Return sigma as an integer array, or raise ValidationError unless it
    is a sequence holding 0..n-1 once each.  One-shot iterators are
    rejected: the check would consume them."""
    a = np.asarray(sigma)
    a = a if a.size else a.astype(np.intp)  # [] carries no integer dtype
    # n ids in 0..n-1 with none repeated are each id once; older numpy
    # bincounts no uint64 array
    if not (a.dtype.kind in "iu" and a.shape == (n,) and (
            n == 0 or (a.min() >= 0 and a.max() < n
                       and np.bincount(a.astype(np.intp, copy=False)).max() == 1))):
        raise ValidationError(f"not a permutation of 0..{n - 1}")
    return a


def run_permutation(graph, seq, sigma):
    """Activate every vertex in the order sigma; return the length-(n+1)
    trace of (t, cc, nbr_sum, wv) including the empty prefix."""
    sigma = check_permutation(sigma, graph.n)
    state = ActivationState(graph, seq)
    trace = [TraceStep(0, 0, 0, 0 if seq is not None else None)]
    for t, v in enumerate(sigma.tolist(), start=1):
        state.activate(v)
        trace.append(TraceStep(t, state.cc, state.nbr_sum, state.wv))
    return trace


def _merge_times(graph, sigma):
    """Merge times of the arrivals of sigma, a permutation or a prefix of
    one: for every t <= len(sigma), #{merge times <= t} is the number of
    arrivals up to t that joined an earlier component.  A time above
    len(sigma) never comes.

    Vertex sigma[i] arrives at time i+1 and edge (u, v) appears at the later
    of its endpoints' times; vertices outside sigma never arrive.  Three
    branches, all exact, tried in this order:
      - when graph.ids_eliminate holds, every component of the active set
        has its lowest vertex as its one witness, a vertex none of whose
        lower-id neighbours is active (they form a clique, so a path from
        any other vertex down to the lowest shortcuts to a lower
        neighbour).  Vertex v stops being a witness at max(a_v, f_v), its
        arrival a_v or the first arrival f_v among its lower neighbours,
        whichever is later: one merge time per vertex.  The test reads the
        edge arrays alone;
      - on a forest every edge merges, at its time;
      - otherwise, by Kruskal's matroid property, the merge times are the
        weights of a minimum spanning forest of the edge times (Newman &
        Ziff, PRL 85, 4104, 2000).
    """
    t = len(sigma)
    # int32 and in-place updates keep the per-call arrays small
    arrival = np.full(graph.n, t + 1, dtype=np.int32)
    arrival[np.asarray(sigma, dtype=np.intp)] = np.arange(1, t + 1, dtype=np.int32)
    eu, ev = graph.edge_arrays
    if graph.ids_eliminate:
        first = np.full(graph.n, t + 1, dtype=np.int32)
        np.minimum.at(first, ev, arrival[eu])
        return np.maximum(first, arrival, out=first)
    times = arrival[eu]
    np.maximum(times, arrival[ev], out=times)
    if not graph.is_forest():
        present = times <= t
        times = spanning_forest(
            graph.n, eu[present], ev[present], times[present]).astype(np.int32)
    return times


def merge_counts(graph, sigma):
    """Merges at each time of the arrivals of sigma, a permutation or a
    prefix of one: an integer array of length len(sigma)+1 whose entry t
    counts the merge times equal to t."""
    t = len(sigma)
    return np.bincount(_merge_times(graph, sigma), minlength=t + 2)[: t + 1]


def counts_from_merges(merges, orders=1):
    """Component count at each time, from merge_counts summed over `orders`
    orders: entry t is the sum of the orders' counts after t arrivals.

    Each arrival adds a component and each merge removes one, so
    CC(t) = t - #{merge times <= t} in each order.
    """
    return orders * np.arange(len(merges)) - np.cumsum(merges)


def component_count_trace(graph, sigma):
    """Component count after each arrival of sigma, a permutation or a prefix
    of one.  Returns a list of length len(sigma)+1 whose entry t is the CC of
    the first t arrivals."""
    return counts_from_merges(merge_counts(graph, sigma)).tolist()


def component_count(graph, prefix):
    """Component count of the vertices of prefix: the last entry of
    component_count_trace(graph, prefix), without the rest of the trace.

    Every branch reads the edges with both ends in the prefix.  On a forest
    each of them joins two of its components, so the count is t minus those
    edges, whatever the ids.  On any other graph whose ids eliminate, each
    component has its lowest vertex as its one witness (see _merge_times),
    so the count is t minus the vertices with a lower neighbour inside, the
    distinct higher ends of those edges.  Otherwise those edges go to
    graphs.component_roots, and the count is t minus the vertices it hooked
    below themselves."""
    t = len(prefix)
    inside = np.zeros(graph.n, dtype=bool)
    inside[np.asarray(prefix, dtype=np.intp)] = True
    eu, ev = graph.edge_arrays
    both = inside.take(eu)
    both &= inside.take(ev)
    if graph.is_forest():
        return t - int(np.count_nonzero(both))
    if graph.ids_eliminate:
        joined = np.zeros(graph.n, dtype=bool)
        joined[ev.compress(both)] = True
        return t - int(np.count_nonzero(joined))
    root = component_roots(graph.n, eu.compress(both), ev.compress(both))
    return t - int(np.count_nonzero(root != np.arange(graph.n)))


def nbr_sum_trace(graph, sigma):
    """Component-neighbourhood sum after each arrival of sigma, a permutation,
    on a chordal graph: an int64 array of length n+1 whose entry t is the
    nbr_sum of the first t arrivals.  UsageError if the graph is not chordal.

    On a forest the active neighbours of an inactive w lie in distinct
    components (two in one would close a cycle through w), so nbr_sum counts
    the edges with one end active: each edge adds 1 at its first end's
    arrival and takes it back at its second's.

    On any other chordal graph, in graph.elimination_arcs' order each
    vertex's earlier neighbours K_v form a clique.  The active components
    next to an inactive w are then the components of G[N(w) & S], each
    counted once at its first vertex in the order.  Per vertex v, with a_v
    its arrival, d_v = |K_v| and f_v the first arrival in K_v (never if K_v
    is empty), that leaves
      - d_v from a_v to f_v, if a_v < f_v: v alone starts a component next
        to each w in K_v;
      - 1 from f_v to a_v, if f_v < a_v: the first active vertex of K_v
        starts one next to v.
    So nbr_sum is one cumulative sum of events at the a_v and f_v.
    """
    forest = graph.is_forest()
    if not forest and graph.elimination_arcs is None:
        raise UsageError("nbr_sum_trace needs a chordal graph")
    n = graph.n
    arrival = np.empty(n, dtype=np.int32)
    arrival[sigma] = np.arange(1, n + 1, dtype=np.int32)
    if forest:
        eu, ev = graph.edge_arrays
        a, b = arrival[eu], arrival[ev]
        events = np.bincount(np.minimum(a, b), minlength=n + 1)
        events -= np.bincount(np.maximum(a, b), minlength=n + 1)
        return np.cumsum(events)
    later, earlier, depth = graph.elimination_arcs
    first = np.full(n, n + 1, dtype=np.int32)
    np.minimum.at(first, later, arrival[earlier])
    alone = arrival < first  # v arrives before all of K_v
    events = np.zeros(n + 2, dtype=np.int64)
    events[arrival] = np.where(alone, depth, -1)
    # exact in float64: every count is at most 2m
    events += np.bincount(first, np.where(alone, -depth, 1), minlength=n + 2).astype(np.int64)
    return np.cumsum(events[: n + 1])
