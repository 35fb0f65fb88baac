"""Immutable simple graphs with canonical edge indexing and basic traversals.

Vertices are dense integers 0..n-1. Edges are normalized to (u, v) with
u < v and stored sorted lexicographically; the rank of a pair in that
order is its edge id. Structurally equal graphs therefore assign
identical edge ids, which keeps GF(2) edge vectors comparable across
runs and machines.  No pair-to-id table is kept: the star mask of a
vertex holds the ids of its edges, so star(u) & star(v) is the bit of
edge uv, or 0 when u and v are not adjacent.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """Bit mask with the given positions set."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class VertexSet:
    """Subset of 0..n-1 backed by a bit mask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative universe size")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("vertex id out of range for this universe")

    @classmethod
    def of(cls, n: int, ids: Iterable[int] = ()) -> "VertexSet":
        mask = 0
        for v in ids:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            mask |= 1 << v
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def add(self, v: int) -> "VertexSet":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return VertexSet(self.n, self.mask | 1 << v)

    def to_list(self) -> list[int]:
        return list(self)


class Graph:
    """Immutable simple undirected graph.

    Construction validates the edge list: loops, duplicate pairs (after
    (u, v) -> (min, max) normalization) and out-of-range endpoints are
    rejected.  The input pair order never matters.
    """

    __slots__ = ("n", "edges", "_neighbors", "_adj_bits", "_star_bits")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("negative vertex count")
        norm = []
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)
        adj = [0] * n
        star = [0] * n
        # Sorted pairs reach every vertex's neighbours in ascending order.
        nbrs = [[] for _ in range(n)]
        for i, (u, v) in enumerate(norm):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            star[u] |= 1 << i
            star[v] |= 1 << i
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._adj_bits = adj
        self._star_bits = star
        self._neighbors = [tuple(a) for a in nbrs]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._adj_bits[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return self._neighbors[v]

    def adj_bits(self, v: int) -> int:
        """Neighbor set of v as a bit mask over vertex ids."""
        return self._adj_bits[v]

    def star_bits(self, v: int) -> int:
        """Incident edges of v as a bit mask over edge ids."""
        return self._star_bits[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and self._adj_bits[u] >> v & 1 == 1

    def edge_id(self, u: int, v: int) -> int:
        if 0 <= u < self.n and 0 <= v < self.n and u != v:
            e = self._star_bits[u] & self._star_bits[v]
            if e:
                return e.bit_length() - 1
        raise ValueError(f"no edge ({u}, {v})")

    def pair_of(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def components(self) -> list[VertexSet]:
        """Connected components, each as a VertexSet, ordered by smallest member."""
        seen = 0
        comps = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            frontier = 1 << s
            comp = frontier
            while frontier:
                nxt = 0
                for v in iter_bits(frontier):
                    nxt |= self._adj_bits[v]
                frontier = nxt & ~comp
                comp |= frontier
            comps.append(VertexSet(self.n, comp))
            seen |= comp
        return comps

    def num_components(self) -> int:
        return len(self.components())

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle graph needs n >= 3")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical graph from a vertex count and edge pairs."""
    return Graph(n, pairs)


def small_vertices(g: Graph) -> VertexSet:
    """Vertices of degree at most ln(n)/10.

    The threshold is the real number ln(n)/10; for n below e^10 it is
    smaller than 1, so only vertices of degree 0 qualify there.  Below
    n = 2 the set is empty.
    """
    if g.n < 2:
        return VertexSet(g.n)
    thr = math.log(g.n) / 10.0
    mask = 0
    for v in range(g.n):
        if g.degree(v) <= thr:
            mask |= 1 << v
    return VertexSet(g.n, mask)


def edge_subgraph_adj(g: Graph, edge_bits: int) -> list[int]:
    """Neighbor masks of the spanning subgraph of g on the edges in edge_bits."""
    adj = [0] * g.n
    for eid in iter_bits(edge_bits):
        u, v = g.edges[eid]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def bfs_path(g: Graph, x: int, y: int, forbidden: VertexSet | None = None,
             rng: random.Random | None = None,
             adj: list[int] | None = None) -> list[int] | None:
    """Shortest path from x to y avoiding forbidden vertices, or None.

    Ties are broken by expanding neighbors in ascending id order, so the
    returned path is deterministic.  With `rng`, each dequeued vertex's
    full neighbor list is shuffled by it before the expansion instead.
    With `adj`, a subgraph's neighbour masks, it searches that subgraph,
    reading each mask in ascending order like a copy's neighbour tuples.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("endpoint out of range")
    banned = forbidden.mask if forbidden is not None else 0
    if banned >> x & 1 or banned >> y & 1:
        raise ValueError("endpoint is forbidden")
    if x == y:
        return [x]
    parent = {x: -1}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        nbrs = g.neighbors(u) if adj is None else iter_bits(adj[u])
        if rng is not None:
            nbrs = list(nbrs)
            rng.shuffle(nbrs)
        for w in nbrs:
            if w in parent or banned >> w & 1:
                continue
            parent[w] = u
            if w == y:
                path = [y]
                while path[-1] != x:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def bfs_forest(g: Graph, cross: int) -> tuple[list[int], list[int]] | None:
    """BFS spanning forest whose sides split exactly the edges in `cross`.

    Each component grows from its lowest vertex, neighbours taken in
    ascending order.  Its root gets side 0, and a vertex reached over
    edge e gets its parent's side, flipped when e is in `cross`.  Returns
    (side, up), where up[v] is the mask of tree edges on the path from v
    to its root, or None at the first edge whose ends contradict the
    sides.  With cross = 0 it never returns None.
    """
    star, nbrs = g._star_bits, g._neighbors
    side = [-1] * g.n
    up = [0] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        for u in queue:  # grows while it is walked
            su, upu, stu = side[u], up[u], star[u]
            for w in nbrs[u]:
                e = stu & star[w]
                want = su ^ 1 if cross & e else su
                if side[w] < 0:
                    side[w] = want
                    up[w] = upu | e
                    queue.append(w)
                elif side[w] != want:
                    return None
    return side, up


def is_edge_cut(g: Graph, cross: int) -> bool:
    """True iff the edges in `cross` are E(A, B) for a partition V = A + B.

    A final pass re-checks every edge against the forest's sides.
    """
    forest = bfs_forest(g, cross)
    if forest is None:
        return False
    side = forest[0]
    return all((side[u] != side[v]) == (cross >> e & 1 == 1)
               for e, (u, v) in enumerate(g.edges))


def is_bipartite(g: Graph) -> bool:
    return is_edge_cut(g, (1 << g.m) - 1)


@dataclass(frozen=True)
class Restriction:
    """Induced subgraph together with maps back to the host graph."""

    graph: Graph
    old_vertex: tuple[int, ...]  # new vertex id -> old vertex id

    def to_old_path(self, path: Iterable[int]) -> list[int]:
        return [self.old_vertex[v] for v in path]


def restrict(g: Graph, keep_vertices: VertexSet, drop_edges: Iterable[int] = ()) -> Restriction:
    """Induced subgraph on keep_vertices with drop_edges removed.

    The result carries a canonical re-indexing: kept vertices are
    renumbered in ascending order of their old ids.
    """
    if keep_vertices.n != g.n:
        raise ValueError("vertex set over wrong universe")
    dropped = 0
    for e in drop_edges:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} out of range")
        dropped |= 1 << e
    old_vertex = tuple(keep_vertices)
    new_of = {old: new for new, old in enumerate(old_vertex)}
    pairs = []
    for eid, (u, v) in enumerate(g.edges):
        if dropped >> eid & 1:
            continue
        if u in new_of and v in new_of:
            pairs.append((new_of[u], new_of[v]))
    return Restriction(Graph(len(old_vertex), pairs), old_vertex)


# ---------------------------------------------------------------------------
# graph6 text format
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _encode_g6_n(n: int) -> str:
    if n < 0:
        raise Graph6Error("negative vertex count")
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(63 + (n >> s & 63)) for s in (30, 24, 18, 12, 6, 0))
    raise Graph6Error("vertex count too large for graph6")


def _decode_g6_n(data: str) -> tuple[int, str]:
    if not data:
        raise Graph6Error("empty graph6 string")
    if data[0] != "~":
        return ord(data[0]) - 63, data[1:]
    if len(data) >= 2 and data[1] != "~":
        if len(data) < 4:
            raise Graph6Error("truncated extended header")
        n = 0
        for c in data[1:4]:
            n = n << 6 | (ord(c) - 63)
        return n, data[4:]
    if len(data) < 8:
        raise Graph6Error("truncated extended header")
    n = 0
    for c in data[2:8]:
        n = n << 6 | (ord(c) - 63)
    return n, data[8:]


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6 form (byte-exact with the public format).

    The adjacency bits are the upper triangle in column order:
    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...
    packed into 6-bit groups, zero-padded, each group offset by 63.
    """
    n = g.n
    out = [_encode_g6_n(n)]
    bits = 0
    nbits = 0
    for j in range(1, n):
        col = g._adj_bits[j]
        for i in range(j):
            bits = bits << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + bits))
                bits = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (bits << (6 - nbits))))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    """Parse a graph6 string (optionally prefixed with '>>graph6<<')."""
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    for c in data:
        if not 63 <= ord(c) <= 126:
            raise Graph6Error(f"invalid graph6 character {c!r}")
    n, rest = _decode_g6_n(data)
    want = n * (n - 1) // 2
    if len(rest) != (want + 5) // 6:
        raise Graph6Error("graph6 length mismatch")
    bits = (ord(c) - 63 >> k & 1 for c in rest for k in range(5, -1, -1))
    # The upper triangle in column order, as to_graph6 writes it.
    cells = ((i, j) for j in range(1, n) for i in range(j))
    pairs = [ij for ij, bit in zip(cells, bits) if bit]
    if any(bits):  # zip stops at the last cell, so these are the padding bits
        raise Graph6Error("nonzero padding bits")
    return Graph(n, pairs)


# ---------------------------------------------------------------------------
# plain text formats
# ---------------------------------------------------------------------------

def to_edge_list_text(g: Graph) -> str:
    """Plain text: first line "n m", then one "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return Graph(n, pairs)

