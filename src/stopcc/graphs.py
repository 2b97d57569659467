"""Graph and construction-sequence data types, generators, and file formats.

A construction sequence certifies maximal k-degeneracy: after an initial
k-clique, every vertex attaches to exactly k earlier vertices.  When every
attachment set is a clique the sequence certifies a k-tree.
"""

from __future__ import annotations

import gc
import heapq
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ParameterError, ResourceLimitError, ValidationError

# vertex ids are stored as int32 in the edge arrays and every kernel
ID_LIMIT = np.iinfo(np.int32).max
# edges whose pairs ids_eliminate looks up before the rest
_PROBE = 64
# bytes per id of a width-k initial clique's k(k-1)/2 ids, estimated high:
# tracemalloc peaks of gen_random_ktree(k, k, 0) read 68-91 at k = 500-2000
SEQUENCE_ID_BYTES = 100
SEQUENCE_BUDGET = 10**9  # bytes


class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as its edge arrays.

    ``edge_arrays`` is (eu, ev): read-only int32 arrays with eu[i] < ev[i],
    one entry per edge in lexicographic order.  ``adj``, the sorted tuples of
    neighbour ids, is built from them on first use; only the step-by-step
    consumers read it (ActivationState, maximum cardinality search, the
    subset DP's masks and has_edge).  Graphs are equal, and hash alike, when
    they have the same n and the same edges.  A graph is immutable.
    """

    def __init__(self, n, adj):
        """The graph with the sorted adjacency tuples ``adj``, taken as they
        are, unchecked; from_edges is the validating build."""
        deg = np.fromiter(map(len, adj), dtype=np.int64, count=n)
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        dst = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(deg.sum()))
        keep = src < dst
        vars(self).update(n=n, adj=adj, edge_arrays=_edge_arrays(n, src[keep] * n + dst[keep]))

    @staticmethod
    def from_edges(n, edges):
        """The graph on vertices 0..n-1 with the given undirected edges.

        ``edges`` is an int (m, 2) array or an iterable of (u, v) pairs.  Only
        the edge arrays are built, from one sort of the edge keys.
        ValidationError is raised for n above ID_LIMIT, for an entry that is
        not a pair of integers, and otherwise for the first edge, in input
        order, that has an id outside 0..n-1, is a self-loop, or repeats an
        earlier edge in either direction (the message names the first of
        these that applies).
        """
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        if n > ID_LIMIT:
            raise ValidationError(f"vertex count {n} exceeds the int32 id limit {ID_LIMIT}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = _edge_pairs(edges)
        i, keys = _first_bad_edge(n, pairs[:, 0], pairs[:, 1])
        if i >= 0:
            a, b = edges[i]
            if not (0 <= pairs[i, 0] < n and 0 <= pairs[i, 1] < n):
                raise ValidationError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            raise ValidationError(f"duplicate edge ({a},{b})")
        return Graph._from_keys(n, keys)

    @staticmethod
    def _from_keys(n, keys):
        """The graph with the sorted, distinct edge keys u*n + v, u < v,
        taken as they are, unchecked."""
        g = object.__new__(Graph)
        vars(g).update(n=n, edge_arrays=_edge_arrays(n, keys))
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Graph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Graph")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self.edge_arrays, other.edge_arrays))

    def __hash__(self):
        return hash((self.n, *(a.tobytes() for a in self.edge_arrays)))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"

    @cached_property
    def adj(self):
        """Tuple of the sorted neighbour tuples of the vertices, built once,
        on first use, from one sort of both directions of every edge."""
        n = self.n
        src, dst = _sorted_arcs(n, *self.edge_arrays)
        bounds = [0] + np.cumsum(np.bincount(src, minlength=n)).tolist()
        # gathering from one object array shares each vertex's int object
        # across its adjacency entries; tolist() would make a fresh int for
        # every entry
        flat = tuple(np.array(range(n), dtype=object)[dst])
        return tuple([flat[i:j] for i, j in zip(bounds, bounds[1:])])

    @property
    def edge_count(self):
        return len(self.edge_arrays[0])

    def edges(self):
        """The edges as (u, v) pairs of Python ints, u < v, in lexicographic
        order."""
        eu, ev = self.edge_arrays
        return list(zip(eu.tolist(), ev.tolist()))

    def has_edge(self, u, v):
        return v in self.adj[u]

    @cached_property
    def _component_count(self):
        # each component's root is its lowest vertex
        root = component_roots(self.n, *self.edge_arrays)
        return int(np.count_nonzero(root == np.arange(self.n)))

    @cached_property
    def ids_eliminate(self):
        """True iff the vertex ids are an elimination order: every vertex's
        lower-id neighbours form a clique.  That holds iff each of them is
        p(v), the highest one, or adjacent to p(v).  Computed once, on first
        use, from the edge arrays alone: no sort, and no ``adj``.

        For an edge (u, v) with u != p(v), u < p(v) < v, so the pair
        (u, p(v)) sorts before the edge: the pairs of the first _PROBE edges
        lie among those edges, and a graph that fails there, as a grid does,
        skips the O(m) lookup."""
        eu, ev = self.edge_arrays
        p = np.full(self.n, -1, dtype=np.int32)
        np.maximum.at(p, ev, eu)
        for part in (slice(_PROBE), slice(None)):
            u, v = eu[part], ev[part]
            q = p[v]
            other = u != q
            if not _are_edges(self.n, u, v, u[other], q[other]):
                return False
        return True

    @cached_property
    def elimination_arcs(self):
        """(later, earlier, depth) of a chordal graph; None if the graph is
        not chordal.  Built once per graph, on first use.

        Vertices are ranked by id when ``ids_eliminate`` holds, and otherwise
        by maximum cardinality search (Tarjan & Yannakakis, SIAM J. Comput. 13
        (1984) 566).  Arc i runs from later[i] to earlier[i], its endpoint
        of lower rank; the int32 arrays are sorted by later vertex, and
        depth[v] counts v's earlier neighbours K_v.  The graph is chordal iff
        every K_v is a clique, which holds iff each member of K_v is adjacent
        to the latest one, p(v), or is p(v).
        """
        n = self.n
        eu, ev = self.edge_arrays
        if self.ids_eliminate:
            # the check is done: sort the arcs by later vertex, then by id
            arcs = np.argsort(ev, kind="stable")
            later, earlier = ev[arcs], eu[arcs]
        else:
            rank = np.empty(n, dtype=np.int32)
            rank[_mcs_order(self.adj)] = np.arange(n, dtype=np.int32)
            u_later = rank[eu] > rank[ev]
            later = np.where(u_later, eu, ev)
            earlier = np.where(u_later, ev, eu)
            # by later vertex, then by the rank of the earlier one: p(v) ends v's run
            arcs = np.lexsort((rank[earlier], later))
            later, earlier = later[arcs], earlier[arcs]
            p = earlier[np.cumsum(np.bincount(later, minlength=n))[later] - 1]
            other = earlier != p
            if not _are_edges(n, eu, ev, earlier[other], p[other]):
                return None
        depth = np.bincount(later, minlength=n).astype(np.int32)
        for x in (later, earlier, depth):
            x.flags.writeable = False  # shared by every caller
        return later, earlier, depth

    def is_forest(self):
        """True iff the graph is acyclic.  Computed once per graph."""
        return self._acyclic

    @cached_property
    def _acyclic(self):
        # no vertex with two lower-id neighbours means no cycle, since a
        # cycle's highest vertex has two; then no component count is needed
        eu, ev = self.edge_arrays
        m = len(ev)
        if m == 0 or np.bincount(ev).max() <= 1:
            return True
        if m >= self.n:  # more edges than a forest can have
            return False
        # every edge of a forest joins two components, so m = n - c
        return m == self.n - self._component_count

    def is_connected(self):
        """True iff the graph has at most one component (the empty graph
        has none)."""
        return self._component_count <= 1


@dataclass(frozen=True)
class ConstructionSequence:
    """Ordered (vertex, attachment set) pairs building a maximal k-degenerate graph."""

    k: int
    order: tuple  # tuple of (v, frozenset of earlier vertex ids)

    def __post_init__(self):
        object.__setattr__(
            self, "order", tuple((v, frozenset(m)) for v, m in self.order)
        )

    @property
    def n(self):
        return len(self.order)

    def validate(self):
        """Raise ValidationError naming the first offending entry, if any.

        The whole sequence is checked with array operations; only a sequence
        that fails them goes through the per-entry loop, which names the
        fault."""
        self._attachment_arrays

    @cached_property
    def _attachment_arrays(self):
        # checked once per sequence: validate, graph_from_construction and
        # is_ktree share the pass; a sequence that fails raises on every use
        arrays = _attachments(self)
        for x in arrays:
            x.flags.writeable = False  # shared by every caller
        return arrays

    def _name_fault(self):
        """The per-entry check: raise ValidationError naming the first
        offending entry, if any.  Every id must be an integer: one that only
        equals an integer, as 1.0 does, fails the last check."""
        k = self.k
        if k < 1:
            raise ValidationError("width k must be >= 1")
        placed = set()
        prefix = []
        for i, (v, m) in enumerate(self.order):
            if v in placed:
                raise ValidationError(f"entry {i}: vertex {v} appears twice")
            if i < k:
                if m != frozenset(prefix):
                    raise ValidationError(
                        f"entry {i}: initial-clique attachment must be the "
                        f"{i} earlier initial vertices, got {_sorted_ids(m)}"
                    )
            else:
                if len(m) != k:
                    raise ValidationError(
                        f"entry {i}: attachment set has size {len(m)}, expected {k}"
                    )
            if not m <= placed:
                missing = _sorted_ids(m - placed)
                raise ValidationError(
                    f"entry {i}: attachment references unplaced vertices {missing}"
                )
            placed.add(v)
            prefix.append(v)
        ids = chain(placed, chain.from_iterable(m for _, m in self.order))
        if placed != set(range(self.n)) or not all(hasattr(type(x), "__index__") for x in ids):
            raise ValidationError("vertex ids must be exactly 0..n-1")

    def initial_clique(self):
        return frozenset(v for v, _ in self.order[: self.k])

    def attachment_map(self):
        """Per-vertex attachment set M_v (initial vertices get earlier initials)."""
        return {v: m for v, m in self.order}


def _sorted_ids(ids):
    """The ids sorted; ids that do not compare, as 1 and "a", by repr."""
    try:
        return sorted(ids)
    except TypeError:
        return sorted(ids, key=repr)


@dataclass(frozen=True)
class KSystem:
    """Bag of (v, M_v) pairs with |M_v| = k over a ground set of given size."""

    ground_size: int
    pairs: tuple  # tuple of (v, frozenset)

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((v, frozenset(m)) for v, m in self.pairs)
        )

    def validate(self):
        seen = set()
        sizes = {len(m) for _, m in self.pairs}
        if len(sizes) > 1:
            raise ValidationError(f"mixed attachment sizes {sorted(sizes)}")
        for v, m in self.pairs:
            if v in seen:
                raise ValidationError(f"vertex {v} occurs in two pairs")
            if v in m:
                raise ValidationError(f"vertex {v} belongs to its own attachment set")
            if not all(0 <= w < self.ground_size for w in m | {v}):
                raise ValidationError(f"pair for vertex {v} leaves the ground set")
            seen.add(v)


def _mcs_order(adj):
    """The vertices in maximum cardinality search order: each next vertex has
    the most visited neighbours, and a new component starts at its lowest
    unvisited id.  Buckets of vertices by that count keep stale entries,
    skipped when popped, so the search takes O(n + m) steps; with no
    per-vertex containers it stays lean on large graphs."""
    weight = [0] * len(adj)  # visited neighbours; -1 once visited
    buckets = [[]]  # buckets[w]: vertices that had weight w when listed
    order = []
    top = start = 0
    for _ in range(len(adj)):
        while True:
            if top:
                if not buckets[top]:
                    top -= 1
                    continue
                v = buckets[top].pop()
                if weight[v] == top:
                    break
            else:  # every unvisited vertex has weight 0
                while weight[start] < 0:
                    start += 1
                v = start
                break
        weight[v] = -1
        order.append(v)
        for u in adj[v]:
            w = weight[u]
            if w >= 0:
                weight[u] = w = w + 1
                if w == len(buckets):
                    buckets.append([u])
                else:
                    buckets[w].append(u)
        top = min(top + 1, len(buckets) - 1)
    return order


def _first_bad_edge(n, u, v):
    """(i, keys): i is the index of the first edge (u[i], v[i]) that is out
    of range, a self-loop or a repeat of an earlier edge in either direction,
    or -1 if there is none; keys are the edge keys min*n + max, sorted."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | (u == v)
    # a key equals a valid edge's only for the same edge or for an
    # out-of-range one, and the earlier of the two is bad either way
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    bad[order[1:][key[1:] == key[:-1]]] = True
    return (int(bad.argmax()) if bad.any() else -1), key


def _edge_arrays(n, keys):
    """(eu, ev) of the sorted edge keys u*n + v, u < v: read-only int32."""
    eu = np.empty(len(keys), dtype=np.int32)
    ev = np.empty(len(keys), dtype=np.int32)
    np.divmod(keys, n, out=(eu, ev), casting="unsafe")
    eu.flags.writeable = ev.flags.writeable = False  # shared by every caller
    return eu, ev


def spanning_forest(n, u, v, weights):
    """The int64 weights of a minimum spanning forest of the graph on
    vertices 0..n-1 with the edges (u[i], v[i]) of nonnegative integer
    weights[i], by Borůvka's rounds, in no set order; every minimum spanning
    forest has these weights.

    Edges are compared by the keys weight*m + edge index, which are
    distinct; each round numbers its m edges in input order, so the order
    never changes.  Every component's lightest edge then joins the forest,
    and a round at least halves the components that still have an edge.
    Each round works on compact ids of those components and on the edges
    between them alone.
    """
    m = len(u)
    weights = np.asarray(weights, dtype=np.int64)
    if m and (int(weights.max()) + 1) * m > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"spanning forest keys of {m} edges overflow int64")
    picked = []
    a, b = u, v
    c = n  # ids in use: 0..c-1
    while len(a):
        # compact the endpoints to 0..c-1, in the order of their ids
        touched = np.zeros(c, dtype=bool)
        touched[a] = touched[b] = True
        compact = np.cumsum(touched) - 1
        a, b = compact[a], compact[b]
        c, m = int(compact[-1]) + 1, len(a)
        keys = weights * m
        keys += np.arange(m)
        lightest = np.full(c, np.iinfo(np.int64).max)
        np.minimum.at(lightest, a, keys)
        np.minimum.at(lightest, b, keys)
        edge = lightest % m
        comp = np.arange(c)
        # each component points at the other end of its lightest edge; two
        # that share their lightest edge point at each other, and the lower
        # of them becomes the root of their tree of pointers
        ptr = a[edge] ^ b[edge] ^ comp
        root = (lightest[ptr] == lightest) & (comp < ptr)
        ptr[root] = comp[root]
        picked.append(weights[edge[~root]])
        ptr = _roots(ptr)
        a, b = ptr[a], ptr[b]
        keep = a != b
        a, b, weights = a[keep], b[keep], weights[keep]
    return np.concatenate(picked) if picked else weights


def component_roots(n, u, v):
    """The lowest vertex of every vertex's component in the graph on
    vertices 0..n-1 with the edges (u[i], v[i]): an int32 array.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3 (1982) 57), unweighted.  Each round hooks every root onto
    its lowest neighbouring root, when that is lower, jumps every pointer
    to its root, and drops the edges that now lie inside one root.
    Pointers only go to lower ids, so a root is the lowest vertex of what
    it holds.  Every root that is not a local minimum hooks, and so does,
    one round later, a local minimum that nothing hooked onto: every two
    rounds at least halve the roots that still have an edge.
    """
    ptr = np.arange(n, dtype=np.int32)
    a, b = u, v
    while len(a):
        np.minimum.at(ptr, np.maximum(a, b), np.minimum(a, b))
        ptr = _roots(ptr)
        # array methods: the np.take and np.compress wrappers add about 2 µs a call
        a, b = ptr.take(a), ptr.take(b)
        apart = a != b
        a, b = a.compress(apart), b.compress(apart)
    return ptr


def _roots(ptr):
    """The root of every entry of the pointer forest ptr (ptr[r] == r at a
    root), by pointer jumping: O(log depth) gathers."""
    while True:
        jumped = ptr.take(ptr)
        if (jumped == ptr).all():
            return ptr
        ptr = jumped


def _are_edges(n, eu, ev, a, b):
    """True iff every pair (a[i], b[i]) is an edge of the graph with the
    lexicographic edge arrays (eu, ev): a lookup in the sorted edge keys."""
    keys = eu.astype(np.int64) * n + ev
    if not len(keys):
        return not len(a)
    wanted = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    at = np.searchsorted(keys, wanted)
    return np.array_equal(keys[np.minimum(at, len(keys) - 1)], wanted)


def _sorted_arcs(n, u, v):
    """Both directions of the edges (u[i], v[i]) as int64 arrays (source,
    target), sorted by (source, target)."""
    u, v = u.astype(np.int64), v.astype(np.int64)
    key = np.concatenate((u * n + v, v * n + u))
    # the same sort as _first_bad_edge's: a process that builds only small
    # graphs then maps in one sort's code, not two
    key.sort(kind="stable")
    return np.divmod(key, n)


def _edge_pairs(edges):
    """``edges`` (an array or a list) as an int64 (m, 2) array."""
    if (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"
            and edges.ndim == 2 and edges.shape[1] == 2):
        return edges.astype(np.int64, copy=False)
    try:
        flat = np.fromiter(map(operator.index, chain.from_iterable(edges)), dtype=np.int64)
        if len(flat) == 2 * len(edges):
            return flat.reshape(-1, 2)
    except (TypeError, OverflowError):
        pass
    # name the first entry that is not a pair of integers; an integer beyond
    # int64 is out of range for every n and reads as -1
    flat = []
    for e in edges:
        try:
            pair = tuple(map(operator.index, e))
        except TypeError:
            pair = ()
        if len(pair) != 2:
            raise ValidationError(f"edge {e!r} is not a pair of integer vertex ids")
        flat.extend(x if -2**63 <= x < 2**63 else -1 for x in pair)
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


def _attachments(seq):
    """(vs, lens, flat) of a valid construction sequence: int64 arrays of
    the vertex and the attachment-set size of every entry, and of every
    attachment member, entry by entry in each set's iteration order.

    The ids are read through operator.index, and the sequence is checked
    with array operations: the vertices are a permutation of 0..n-1, entry
    i's set has min(i, k) members, and every member lies in 0..n-1 and is
    placed before the entry.  A set of i members placed before entry i < k
    is the whole prefix, so these are the per-entry loop's conditions.  A
    sequence that fails them goes to that loop (_name_fault), which names
    its first bad entry.
    """
    order, k, n = seq.order, seq.k, seq.n
    ids, members = operator.itemgetter(0), operator.itemgetter(1)
    try:
        vs = np.fromiter(map(operator.index, map(ids, order)), dtype=np.int64, count=n)
        lens = np.fromiter(map(len, map(members, order)), dtype=np.int64, count=n)
        flat = np.fromiter(map(operator.index, chain.from_iterable(map(members, order))),
                           dtype=np.int64, count=int(lens.sum()))
    except (TypeError, OverflowError):
        valid = False
    else:
        entry = np.arange(n)
        pos = np.full(n, -1)  # the entry of each vertex id
        valid = k >= 1 and bool(((vs >= 0) & (vs < n)).all())
        if valid:
            pos[vs] = entry
            valid = (bool((pos >= 0).all())
                     and np.array_equal(lens, np.minimum(entry, min(k, n)))
                     and bool(((flat >= 0) & (flat < n)).all())
                     and bool((pos[flat] < np.repeat(entry, lens)).all()))
    if not valid:
        seq._name_fault()
        raise RuntimeError("the array check rejected a sequence the per-entry loop accepts")
    return vs, lens, flat


def graph_from_construction(seq):
    """Expand a construction sequence into the graph it builds: an edge from
    every vertex to each member of its attachment set.  Raises
    ValidationError naming the first offending entry of an invalid one."""
    vs, lens, flat = seq._attachment_arrays
    v, n = np.repeat(vs, lens), seq.n
    # each edge comes from its later end's entry alone, so the keys are distinct
    return Graph._from_keys(n, np.sort(np.minimum(v, flat) * n + np.maximum(v, flat)))


def is_ktree(seq, g):
    """True iff every size-k attachment set of the valid sequence seq
    induces a clique in g: one lookup of the C(k, 2) pairs of every set."""
    k = seq.k
    _, lens, flat = seq._attachment_arrays
    sets = flat[int(lens[:k].sum()):].reshape(-1, k)
    a, b = np.triu_indices(k, 1)
    return _are_edges(g.n, *g.edge_arrays, sets[:, a].ravel(), sets[:, b].ravel())


def ksystem_from_construction(seq):
    """The size-k entries of a sequence, viewed as an abstract k-system."""
    seq.validate()
    return KSystem(seq.n, tuple(seq.order[seq.k:]))


def _check_id_limit(instance, n):
    """ParameterError if instance, of n vertices, is above the id limit."""
    if n > ID_LIMIT:
        raise ParameterError(
            f"{instance} has {n} vertices, above the int32 id limit {ID_LIMIT}")


def _sequence_start(k, n):
    """The initial-clique entries of a width-k sequence on n vertices, vertex
    i attached to the i earlier ones, after checking k >= 1, n >= k and the
    id limit, and then, with ResourceLimitError, that the clique's
    k(k-1)/2 ids fit SEQUENCE_BUDGET bytes."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    _check_id_limit(f"width-{k} sequence with n={n}", n)
    need = k * (k - 1) // 2 * SEQUENCE_ID_BYTES
    if need > SEQUENCE_BUDGET:
        raise ResourceLimitError(
            f"the initial clique of a width-{k} sequence needs about {need // 10**6} MB; "
            f"it is capped at {SEQUENCE_BUDGET // 10**6} MB"
        )
    return [(i, frozenset(range(i))) for i in range(k)]


def gen_random_ktree(k, n, seed):
    """Grow a random k-tree: each new vertex attaches to a uniformly chosen
    k-clique among those created so far.  Deterministic given seed.

    The cliques are numbered as they are created.  Clique 0 is the initial
    clique {0..k-1}, and clique i > 0 is (M_u - {w}) | {u}, where
    u = k + (i-1)//k and w is member (i-1) % k of M_u in M_u's own iteration
    order: attaching u to M_u creates these k cliques.  Vertex v draws its
    index below 1 + (v-k)*k, the number created before it, and only the
    picked cliques are built, so the generator keeps O(n*k) ids.  Later
    draws read each attachment set's iteration order, so every set is built
    by that same expression.

    The cyclic garbage collector is paused while the 2n sets and tuples are
    built, as none of them can form a cycle, and put back as the caller had
    it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        order = _sequence_start(k, n)
        rng = random.Random(("ktree", k, n, seed).__repr__())
        picks = [rng.randrange(c) for c in range(1, 1 + (n - k) * k, k)]
        initial = frozenset(range(k))
        for v, i in enumerate(picks, start=k):
            if i:
                q, j = divmod(i - 1, k)
                u = k + q
                m_u = order[u][1]
                m = (m_u - {tuple(m_u)[j]}) | {u}
            else:
                m = initial
            order.append((v, m))
        return ConstructionSequence(k, tuple(order))
    finally:
        if collecting:
            gc.enable()


def gen_random_kdegenerate(k, n, seed):
    """Random maximal k-degenerate sequence: each new vertex attaches to a
    uniform k-subset of the placed vertices (attachment sets are generally
    not cliques, so the result is usually not a k-tree for k >= 2)."""
    order = _sequence_start(k, n)
    rng = random.Random(("kdeg", k, n, seed).__repr__())
    for v in range(k, n):
        order.append((v, frozenset(rng.sample(range(v), k))))
    return ConstructionSequence(k, tuple(order))


def _random_tree_edges(n, rng):
    """Uniform labeled tree via Pruefer decoding."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _tree_family(n, edges, sequence, root=0):
    """A tree on n vertices and, if sequence is true, its width-1
    construction sequence: the BFS order from root, neighbours in edge
    order; None in its place otherwise."""
    g = Graph.from_edges(n, edges)
    if not sequence:
        return g, None
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [(root, frozenset())]
    seen = bytearray(n)
    seen[root] = 1
    # the order is its own queue: a list iterates over what is appended
    for u, _ in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                order.append((w, frozenset([u])))
    return g, ConstructionSequence(1, tuple(order))


FAMILIES = (
    "path",
    "star",
    "k_star",
    "star_plus_path",
    "two_star_plus_star",
    "random_tree",
    "grid",
)


def gen_named_family(family, params, sequence=True):
    """Build one of the named instance families.

    Returns (Graph, ConstructionSequence or None).  With sequence false the
    tree families (path, star, star_plus_path, random_tree) return None for
    the sequence and skip building it.  Families:
      path(n)                  path on n vertices
      star(n)                  star with n leaves (n+1 vertices)
      k_star(k, n)             k-tree on n vertices, everything on the initial clique
      star_plus_path(n)        star with n+1 leaves, center joined to a path
                               on n-1 vertices (2n+1 vertices total)
      two_star_plus_star(n, ratio=999/1000, attach="center")
                               2-star on ceil(ratio*n) vertices joined by one
                               edge to a star on the rest
      random_tree(n, seed)     uniform labeled tree
      grid(d, side)            d-dimensional grid, side^d vertices
    """
    p = dict(params)
    if family == "path":
        n = _require_int(p, "n", 1)
        _reject_extras(family, p)
        _check_id_limit(f"path with n={n}", n)
        return _tree_family(n, [(i, i + 1) for i in range(n - 1)], sequence)
    if family == "star":
        leaves = _require_int(p, "n", 1)
        _reject_extras(family, p)
        _check_id_limit(f"star with n={leaves}", leaves + 1)
        return _tree_family(leaves + 1, [(0, i) for i in range(1, leaves + 1)], sequence)
    if family == "k_star":
        k = _require_int(p, "k", 1)
        n = _require_int(p, "n", k)
        _reject_extras(family, p)
        order = _sequence_start(k, n)
        base = frozenset(range(k))
        order += [(v, base) for v in range(k, n)]
        seq = ConstructionSequence(k, tuple(order))
        return graph_from_construction(seq), seq
    if family == "star_plus_path":
        n = _require_int(p, "n", 2)
        _reject_extras(family, p)
        _check_id_limit(f"star_plus_path with n={n}", 2 * n + 1)
        # leaves 0..n, center n+1, path vertices n+2..2n
        center = n + 1
        edges = [(center, leaf) for leaf in range(n + 1)]
        path = [center, *range(n + 2, 2 * n + 1)]
        edges.extend(zip(path, path[1:]))
        return _tree_family(2 * n + 1, edges, sequence, root=center)
    if family == "two_star_plus_star":
        n = _require_int(p, "n", 5)
        ratio = p.pop("ratio", Fraction(999, 1000))
        attach = p.pop("attach", "center")
        _reject_extras(family, p)
        if attach not in ("center", "leaf"):
            raise ParameterError(f"attach must be 'center' or 'leaf', got {attach!r}")
        _check_id_limit(f"two_star_plus_star with n={n}", n)
        m2 = math.ceil(Fraction(ratio) * n)
        if m2 < 3 or n - m2 < 2:
            raise ParameterError(
                f"two_star_plus_star needs >=3 vertices in the 2-star and >=2 "
                f"in the star; got split {m2}/{n - m2}"
            )
        # 2-star: initial clique {0,1}, vertices 2..m2-1 attached to both;
        # star: center m2, leaves m2+1..n-1; a joining edge from vertex 2
        center = m2
        target = center if attach == "center" else m2 + 1
        inner = np.arange(2, m2)
        leaves = np.arange(m2 + 1, n)
        edges = np.concatenate((
            [[0, 1], [2, target]],
            np.stack((np.zeros_like(inner), inner), axis=1),
            np.stack((np.ones_like(inner), inner), axis=1),
            np.stack((np.full_like(leaves, center), leaves), axis=1),
        ))
        return Graph.from_edges(n, edges), None
    if family == "random_tree":
        n = _require_int(p, "n", 1)
        seed = p.pop("seed", 0)
        _reject_extras(family, p)
        _check_id_limit(f"random_tree with n={n}", n)
        rng = random.Random(("tree", n, seed).__repr__())
        return _tree_family(n, _random_tree_edges(n, rng), sequence)
    if family == "grid":
        d = _require_int(p, "d", 1)
        side = _require_int(p, "side", 1)
        _reject_extras(family, p)
        # vertex a has coordinate (a // side^(d-1-axis)) % side on each axis
        n = side**d
        _check_id_limit(f"grid with side={side}, d={d}", n)
        a = np.arange(n)
        blocks = []
        for axis in range(d):
            stride = side ** (d - 1 - axis)
            low = a[(a // stride) % side < side - 1]
            blocks.append(np.stack((low, low + stride), axis=1))
        return Graph.from_edges(n, np.concatenate(blocks)), None
    raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _require_int(params, name, minimum):
    if name not in params:
        raise ParameterError(f"missing parameter {name!r}")
    value = params.pop(name)
    if int(value) != value or value < minimum:
        raise ParameterError(f"parameter {name}={value!r} must be an integer >= {minimum}")
    return int(value)


def _reject_extras(family, params):
    if params:
        raise ParameterError(f"unknown parameters for {family}: {sorted(params)}")


# --- file formats ---------------------------------------------------------
#
# Graph:     "n <count>" then one "e <u> <v>" per edge.
# Sequence:  "k <k>" then n lines "v <id> m <id>*", in construction order.


def write_graph(g, stream):
    stream.write(f"n {g.n}\n")
    for u, v in g.edges():
        stream.write(f"e {u} {v}\n")


def _read_header(stream, kind, header):
    """(value, numbered later lines) of a text file whose first line reads
    header, as in "n <count>"; the final newline is optional."""
    lines = stream.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValidationError(f"empty {kind} file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != header.split()[0]:
        raise ValidationError(f"line 1: expected '{header}', got {lines[0]!r}")
    return _parse_int(head[1], "line 1"), enumerate(lines[1:], start=2)


def read_graph(stream):
    n, body = _read_header(stream, "graph", "n <count>")
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise ValidationError(f"line {lineno}: expected 'e <u> <v>', got {line!r}")
        edges.append((_parse_int(parts[1], f"line {lineno}"),
                      _parse_int(parts[2], f"line {lineno}")))
    return Graph.from_edges(n, edges)


def write_sequence(seq, stream):
    stream.write(f"k {seq.k}\n")
    for v, m in seq.order:
        tail = " ".join(str(w) for w in sorted(m))
        stream.write(f"v {v} m{' ' if tail else ''}{tail}\n")


def read_sequence(stream):
    k, body = _read_header(stream, "sequence", "k <k>")
    order = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) < 3 or parts[0] != "v" or parts[2] != "m":
            raise ValidationError(
                f"line {lineno}: expected 'v <id> m <id>*', got {line!r}"
            )
        v = _parse_int(parts[1], f"line {lineno}")
        m = frozenset(_parse_int(x, f"line {lineno}") for x in parts[3:])
        if len(m) != len(parts) - 3:
            raise ValidationError(f"line {lineno}: duplicate ids in attachment set")
        order.append((v, m))
    seq = ConstructionSequence(k, tuple(order))
    seq.validate()
    return seq


def _parse_int(token, where):
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"{where}: {token!r} is not an integer") from None
