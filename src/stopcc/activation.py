"""Incremental state of one play: activate vertices, track component count,
component-neighborhood sum, and (optionally) witnessing-vertex count.

Component boundaries (the inactive neighbors of each component) are kept as
per-root sets merged small-to-large, so the neighborhood sum stays exact in
amortized O(log n) set operations per vertex.

component_count_trace is the arrival-time kernel: the component count after
every arrival of an order at once, with none of the other state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .errors import UsageError, ValidationError

# beyond this size we stop maintaining the active-set bitmask (only the
# subset DP consumes it, and it is capped far below)
_MASK_CAP = 24


@dataclass(frozen=True)
class ActivationDelta:
    delta_cc: int
    cc: int
    nbr_sum: int
    wv: int | None


class ActivationState:
    """Mutable state of one run on a shared immutable graph.

    When a construction sequence is supplied, the witnessing-vertex count
    (active v with its whole attachment set inactive) is maintained as well;
    initial-clique vertices use the earlier initial vertices as attachment.
    """

    def __init__(self, graph, seq=None):
        n = graph.n
        self.graph = graph
        self.active = bytearray(n)
        self.t = 0
        self.cc = 0
        self.nbr_sum = 0
        self._parent = list(range(n))
        self._size = [1] * n
        self._boundary = {}  # component root -> set of inactive neighbor ids
        self.active_mask = 0 if n <= _MASK_CAP else None
        if seq is not None:
            if seq.n != n:
                raise ValidationError("sequence and graph disagree on vertex count")
            self.wv = 0
            self._m_active = [0] * n  # active members of M_v, per vertex
            deps = [[] for _ in range(n)]
            m_size = [0] * n
            for v, m in seq.order:
                m_size[v] = len(m)
                for w in m:
                    deps[w].append(v)
            self._deps = deps
            self._m_size = m_size
        else:
            self.wv = None
            self._deps = None

    @property
    def n(self):
        return self.graph.n

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

        # v stops counting as an inactive neighbor of the components it touches
        for r in roots:
            self._boundary[r].discard(v)
        self.nbr_sum -= len(roots)

        # merge boundary sets small-to-large into the new component's set
        merged = set()
        for r in roots:
            s = self._boundary.pop(r)
            if len(s) > len(merged):
                merged, s = s, merged
            for x in s:
                if x in merged:
                    self.nbr_sum -= 1
                else:
                    merged.add(x)
        for w in self.graph.adj[v]:
            if not active[w] and w not in merged:
                merged.add(w)
                self.nbr_sum += 1

        parent, size = self._parent, self._size
        parent[v] = v
        size[v] = 1
        root = v
        for r in roots:
            if size[r] >= size[root]:
                parent[root] = r
                size[r] += size[root]
                root = r
            else:
                parent[r] = root
                size[root] += size[r]
        self._boundary[root] = merged

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
    """Raise ValidationError unless sigma is a sequence holding 0..n-1 once
    each.  One-shot iterators are rejected: the check would consume them."""
    a = np.asarray(sigma)
    if a.shape != (n,) or not np.array_equal(np.sort(a), np.arange(n)):
        raise ValidationError(f"not a permutation of 0..{n - 1}")


def run_permutation(graph, seq, sigma):
    """Activate every vertex in the order sigma; return the length-(n+1)
    trace of (t, cc, nbr_sum, wv) including the empty prefix."""
    check_permutation(sigma, graph.n)
    state = ActivationState(graph, seq)
    trace = [TraceStep(0, 0, 0, 0 if seq is not None else None)]
    for t, v in enumerate(sigma, start=1):
        state.activate(v)
        trace.append(TraceStep(t, state.cc, state.nbr_sum, state.wv))
    return trace


def component_count_trace(graph, sigma):
    """Component count after each arrival of sigma, a permutation or a prefix
    of one.  Returns a list of length len(sigma)+1 whose entry t is the CC of
    the first t arrivals.

    Vertex sigma[i] arrives at time i+1 and edge (u, v) appears at the later
    of its endpoints' times; vertices outside sigma never arrive.  Each
    arrival adds a component and each merge removes one, so
    CC(t) = t - #{merge times <= t}.  By Kruskal's matroid property the merge
    times are the weights of a minimum spanning forest of the edge times
    (Newman & Ziff, PRL 85, 4104, 2000); on a forest every edge merges.
    """
    t = len(sigma)
    # int32 and in-place updates keep the per-call arrays small
    arrival = np.full(graph.n, t + 1, dtype=np.int32)
    arrival[np.asarray(sigma, dtype=np.intp)] = np.arange(1, t + 1, dtype=np.int32)
    eu, ev = graph.edge_arrays
    times = arrival[eu]
    np.maximum(times, arrival[ev], out=times)
    if not graph.is_forest():
        present = times <= t
        weights = csr_matrix(
            (times[present], (eu[present], ev[present])), shape=(graph.n, graph.n)
        )
        times = minimum_spanning_tree(weights, overwrite=True).data.astype(np.int32)
    merges = np.bincount(times, minlength=t + 2)[: t + 1]
    return (np.arange(t + 1) - np.cumsum(merges)).tolist()
