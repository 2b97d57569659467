"""Graph and construction-sequence data types, generators, and file formats.

A construction sequence certifies maximal k-degeneracy: after an initial
k-clique, every vertex attaches to exactly k earlier vertices.  When every
attachment set is a clique the sequence certifies a k-tree.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ParameterError, ValidationError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    adj: tuple  # tuple of tuples of neighbor ids

    @staticmethod
    def from_edges(n, edges):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        neighbors = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if v in neighbors[u]:
                raise ValidationError(f"duplicate edge ({u},{v})")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return Graph(n, tuple(tuple(sorted(s)) for s in neighbors))

    @property
    def edge_count(self):
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u, v):
        return v in self.adj[u]

    @cached_property
    def edge_arrays(self):
        """(eu, ev): int32 arrays with eu[i] < ev[i], one entry per edge,
        built once per graph."""
        deg = np.fromiter(map(len, self.adj), dtype=np.int32, count=self.n)
        m = int(deg.sum()) // 2
        # the results are allocated before the temporaries: heap memory freed
        # below a live array stays resident, which cost about 1 MB of peak
        # RSS on 10^5-vertex graphs
        eu = np.empty(m, dtype=np.int32)
        ev = np.empty(m, dtype=np.int32)
        src = np.repeat(np.arange(self.n, dtype=np.int32), deg)
        dst = np.fromiter(chain.from_iterable(self.adj), dtype=np.int32, count=2 * m)
        keep = src < dst
        np.compress(keep, src, out=eu)
        np.compress(keep, dst, out=ev)
        eu.flags.writeable = ev.flags.writeable = False  # shared by every caller
        return eu, ev

    @cached_property
    def _acyclic(self):
        # a graph is a forest iff every edge joins two components: m = n - c
        eu, ev = self.edge_arrays
        if len(eu) >= self.n > 0:  # more edges than a forest can have
            return False
        ones = np.ones(len(eu))
        c, _ = connected_components(
            csr_matrix((ones, (eu, ev)), shape=(self.n, self.n)), directed=False
        )
        return len(eu) == self.n - c

    def is_forest(self):
        """True iff the graph is acyclic."""
        return self._acyclic

    def is_connected(self):
        if self.n == 0:
            return True
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self.n


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
        """Raise ValidationError naming the first offending entry, if any."""
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
                        f"{i} earlier initial vertices, got {sorted(m)}"
                    )
            else:
                if len(m) != k:
                    raise ValidationError(
                        f"entry {i}: attachment set has size {len(m)}, expected {k}"
                    )
            if not m <= placed:
                missing = sorted(m - placed)
                raise ValidationError(
                    f"entry {i}: attachment references unplaced vertices {missing}"
                )
            placed.add(v)
            prefix.append(v)
        if placed != set(range(self.n)):
            raise ValidationError("vertex ids must be exactly 0..n-1")

    def initial_clique(self):
        return frozenset(v for v, _ in self.order[: self.k])

    def attachment_map(self):
        """Per-vertex attachment set M_v (initial vertices get earlier initials)."""
        return {v: m for v, m in self.order}


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


def graph_from_construction(seq):
    """Expand a construction sequence into the graph it builds."""
    seq.validate()
    edges = []
    for v, m in seq.order:
        edges.extend((v, w) for w in m)
    return Graph.from_edges(seq.n, edges)


def is_ktree(seq, g):
    """True iff every size-k attachment set induces a clique in g."""
    for i, (v, m) in enumerate(seq.order):
        if i < seq.k:
            continue
        for a, b in combinations(sorted(m), 2):
            if not g.has_edge(a, b):
                return False
    return True


def ksystem_from_construction(seq):
    """The size-k entries of a sequence, viewed as an abstract k-system."""
    seq.validate()
    return KSystem(seq.n, tuple(seq.order[seq.k:]))


def gen_random_ktree(k, n, seed):
    """Grow a random k-tree: each new vertex attaches to a uniformly chosen
    k-clique among those created so far (the initial clique, and for every
    placed vertex v the k subsets of {v} u M_v containing v is replaced by
    the standard clique-splitting list).  Deterministic given seed.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    rng = random.Random(("ktree", k, n, seed).__repr__())
    order = [(i, frozenset(range(i))) for i in range(k)]
    cliques = [frozenset(range(k))]
    for v in range(k, n):
        m = rng.choice(cliques)
        order.append((v, m))
        # attaching to m creates k fresh k-cliques inside the new (k+1)-clique
        for w in m:
            cliques.append((m - {w}) | {v})
    return ConstructionSequence(k, tuple(order))


def gen_random_kdegenerate(k, n, seed):
    """Random maximal k-degenerate sequence: each new vertex attaches to a
    uniform k-subset of the placed vertices (attachment sets are generally
    not cliques, so the result is usually not a k-tree for k >= 2)."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if n < k:
        raise ParameterError(f"need n >= k, got n={n}, k={k}")
    rng = random.Random(("kdeg", k, n, seed).__repr__())
    order = [(i, frozenset(range(i))) for i in range(k)]
    for v in range(k, n):
        order.append((v, frozenset(rng.sample(range(v), k))))
    return ConstructionSequence(k, tuple(order))


def _path_sequence(vertices):
    order = [(vertices[0], frozenset())]
    for prev, v in zip(vertices, vertices[1:]):
        order.append((v, frozenset([prev])))
    return order


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


def _tree_sequence_from_edges(n, edges):
    """BFS ordering of a tree, as a width-1 construction sequence."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [(0, frozenset())]
    seen = bytearray(n)
    seen[0] = 1
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    order.append((w, frozenset([u])))
                    nxt.append(w)
        queue = nxt
    return ConstructionSequence(1, tuple(order))


FAMILIES = (
    "path",
    "star",
    "k_star",
    "star_plus_path",
    "two_star_plus_star",
    "random_tree",
    "grid",
)


def gen_named_family(family, params):
    """Build one of the named instance families.

    Returns (Graph, ConstructionSequence or None).  Families:
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
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        return g, ConstructionSequence(1, _path_sequence(list(range(n))))
    if family == "star":
        leaves = _require_int(p, "n", 1)
        _reject_extras(family, p)
        g = Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
        order = [(0, frozenset())] + [(i, frozenset([0])) for i in range(1, leaves + 1)]
        return g, ConstructionSequence(1, tuple(order))
    if family == "k_star":
        k = _require_int(p, "k", 1)
        n = _require_int(p, "n", k)
        _reject_extras(family, p)
        base = frozenset(range(k))
        order = [(i, frozenset(range(i))) for i in range(k)]
        order += [(v, base) for v in range(k, n)]
        seq = ConstructionSequence(k, tuple(order))
        return graph_from_construction(seq), seq
    if family == "star_plus_path":
        n = _require_int(p, "n", 2)
        _reject_extras(family, p)
        # leaves 0..n, center n+1, path vertices n+2..2n
        center = n + 1
        edges = [(center, leaf) for leaf in range(n + 1)]
        path = list(range(n + 2, 2 * n + 1))
        if path:
            edges.append((center, path[0]))
            edges.extend((a, b) for a, b in zip(path, path[1:]))
        g = Graph.from_edges(2 * n + 1, edges)
        order = [(center, frozenset())]
        order += [(leaf, frozenset([center])) for leaf in range(n + 1)]
        if path:
            order.append((path[0], frozenset([center])))
            order += [(b, frozenset([a])) for a, b in zip(path, path[1:])]
        return g, ConstructionSequence(1, tuple(order))
    if family == "two_star_plus_star":
        n = _require_int(p, "n", 5)
        ratio = p.pop("ratio", Fraction(999, 1000))
        attach = p.pop("attach", "center")
        _reject_extras(family, p)
        m2 = math.ceil(Fraction(ratio) * n)
        if m2 < 3 or n - m2 < 2:
            raise ParameterError(
                f"two_star_plus_star needs >=3 vertices in the 2-star and >=2 "
                f"in the star; got split {m2}/{n - m2}"
            )
        # 2-star: initial clique {0,1}, vertices 2..m2-1 attached to both
        edges = [(0, 1)]
        edges += [(0, v) for v in range(2, m2)]
        edges += [(1, v) for v in range(2, m2)]
        # star: center m2, leaves m2+1..n-1
        center = m2
        edges += [(center, v) for v in range(m2 + 1, n)]
        # joining edge from a non-initial 2-star vertex
        target = center if attach == "center" else m2 + 1
        edges.append((2, target))
        return Graph.from_edges(n, edges), None
    if family == "random_tree":
        n = _require_int(p, "n", 1)
        seed = p.pop("seed", 0)
        _reject_extras(family, p)
        rng = random.Random(("tree", n, seed).__repr__())
        edges = _random_tree_edges(n, rng)
        return Graph.from_edges(n, edges), _tree_sequence_from_edges(n, edges)
    if family == "grid":
        d = _require_int(p, "d", 1)
        side = _require_int(p, "side", 1)
        _reject_extras(family, p)
        points = list(product(range(side), repeat=d))
        index = {pt: i for i, pt in enumerate(points)}
        edges = []
        for pt in points:
            for axis in range(d):
                if pt[axis] + 1 < side:
                    nxt = pt[:axis] + (pt[axis] + 1,) + pt[axis + 1:]
                    edges.append((index[pt], index[nxt]))
        return Graph.from_edges(len(points), edges), None
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


def read_graph(stream):
    lines = stream.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValidationError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValidationError(f"line 1: expected 'n <count>', got {lines[0]!r}")
    n = _parse_int(head[1], "line 1")
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
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
    lines = stream.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValidationError("empty sequence file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "k":
        raise ValidationError(f"line 1: expected 'k <k>', got {lines[0]!r}")
    k = _parse_int(head[1], "line 1")
    order = []
    for lineno, line in enumerate(lines[1:], start=2):
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
