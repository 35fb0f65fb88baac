"""Parity switchers: even cycles with odd witness overlap plus connector paths.

A parity switcher is the gadget that turns a spanning failure into a
contradiction: an even cycle C = (v_1 .. v_2k) carrying an odd number of
witness edges, chorded by vertex-disjoint paths P_i joining v_i to
v_{2k-i+2}.  Such a gadget admits exactly two zig-zag Hamilton paths
between v_1 and v_{k+1}; their edge sets differ by E(C), so their
witness parities differ, and one of them always has whichever parity the
surrounding construction needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .gf2 import EdgeVector, intersection_parity
from .graph import Graph, VertexSet, edge_subgraph_adj, iter_bits, mask_of, \
    small_vertices
# Bound here too: the benchmark's tracer looks it up as switcher.disjoint_pair_paths.
from .hamfinder import disjoint_pair_paths  # noqa: F401

# Search budgets of find_switcher_cycle, in path-search expansions.
_PER_EDGE_BUDGET = 20_000
_TOTAL_BUDGET = 400_000


def switcher_cycle_cap(n: int) -> float | None:
    """Length cap for switcher cycles: 22 ln(n)/ln(ln(n)) once n >= 10."""
    if n < 10:
        return None
    return 22.0 * math.log(n) / math.log(math.log(n))


@dataclass(frozen=True)
class ParitySwitcher:
    """Validated switcher gadget over a host graph.

    paths[j] is the connector for i = j + 2, stored from v_i to
    v_{2k-i+2} including both endpoints.  Connector interiors avoid the
    cycle entirely; this is what makes both zig-zag traversals Hamilton
    paths of the gadget.
    """

    graph: Graph
    cycle: tuple[int, ...]
    cycle_vector: EdgeVector
    paths: tuple[tuple[int, ...], ...]
    r_parity_of_cycle: int

    @property
    def k(self) -> int:
        return len(self.cycle) // 2

    def vertices(self) -> set[int]:
        out = set(self.cycle)
        for p in self.paths:
            out.update(p)
        return out

    @classmethod
    def build(cls, g: Graph, cycle: list[int] | tuple[int, ...],
              paths: list[list[int]] | tuple[tuple[int, ...], ...],
              r: EdgeVector) -> "ParitySwitcher":
        cyc = tuple(cycle)
        if len(cyc) < 4 or len(cyc) % 2:
            raise ValueError("switcher cycle must have even length >= 4")
        if len(set(cyc)) != len(cyc):
            raise ValueError("switcher cycle is not simple")
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            if not g.has_edge(u, v):
                raise ValueError(f"cycle edge ({u}, {v}) missing from host graph")
        two_k = len(cyc)
        k = two_k // 2
        if len(paths) != k - 1:
            raise ValueError(f"need {k - 1} connector paths, got {len(paths)}")
        cyc_vec = EdgeVector.from_vertex_path(g, list(cyc), closed=True)
        parity = intersection_parity(cyc_vec, r)
        if parity != 1:
            raise ValueError("switcher cycle must carry an odd number of witness edges")
        cyc_set = set(cyc)
        seen: set[int] = set()
        norm_paths = []
        for j, p in enumerate(paths):
            i = j + 2
            want = {cyc[i - 1], cyc[two_k - i + 1]}  # v_i and v_{2k-i+2}, 1-based
            p = tuple(p)
            if len(p) < 2 or {p[0], p[-1]} != want:
                raise ValueError(f"path {i} must join v_{i} and v_{two_k - i + 2}")
            if p[0] != cyc[i - 1]:
                p = p[::-1]
            if len(set(p)) != len(p):
                raise ValueError(f"path {i} is not simple")
            interior = set(p[1:-1])
            if interior & cyc_set:
                raise ValueError(f"path {i} interior touches the cycle")
            if interior & seen:
                raise ValueError("connector paths are not vertex-disjoint")
            seen |= interior
            for u, v in zip(p, p[1:]):
                if not g.has_edge(u, v):
                    raise ValueError(f"path edge ({u}, {v}) missing from host graph")
                eid = g.edge_id(u, v)
                if eid in cyc_vec:
                    raise ValueError("connector paths must avoid cycle edges")
            norm_paths.append(p)
        return cls(g, cyc, cyc_vec, tuple(norm_paths), parity)


def find_switcher_cycle(
    g: Graph,
    r: EdgeVector,
    small: VertexSet | None = None,
) -> tuple[int, ...] | None:
    """Find an even simple cycle with exactly one edge outside r.

    For each non-r edge (x, y) in ascending edge-id order, search the
    r-subgraph for a shortest odd simple path from x to y; the path plus
    the seed edge is an even cycle with one non-r edge.  Candidates are rejected unless low-degree vertices stay
    lightly attached to the cycle (on-cycle small vertices may see at
    most 2 cycle vertices, off-cycle small vertices at most 1) and, for
    n >= 10, unless the cycle length is within 22 ln(n)/ln(ln(n)).

    Returns the cycle vertex order, or None when no seed edge yields a
    qualifying cycle within the search budget.
    """
    if r.m != g.m:
        raise ValueError("vector over wrong universe")
    n = g.n
    small_set = small if small is not None else small_vertices(g)
    cap = switcher_cycle_cap(n)
    max_cycle = n if cap is None else min(n, math.floor(cap))
    if max_cycle < 4:
        return None
    r_adj = edge_subgraph_adj(g, r.bits)
    spent = 0
    for eid in range(g.m):
        if eid in r:
            continue
        x, y = g.pair_of(eid)
        if spent >= _TOTAL_BUDGET:
            return None
        path, used = _odd_simple_path(r_adj, n, x, y, max_cycle - 1, _PER_EDGE_BUDGET)
        spent += used
        if path is None:
            continue
        cycle = tuple(path)
        if _small_adjacency_ok(g, small_set, cycle):
            verify_switcher_cycle(g, r, cycle, cap)
            return cycle
    return None


def verify_switcher_cycle(g: Graph, r: EdgeVector, cycle: tuple[int, ...],
                          cap: float | None = None) -> None:
    """Raise unless cycle is simple, even, has one non-r edge, and fits the cap."""
    if len(cycle) % 2 or len(cycle) < 4:
        raise RuntimeError("cycle length must be even and at least 4")
    if len(set(cycle)) != len(cycle):
        raise RuntimeError("cycle is not simple")
    outside = 0
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(u, v):
            raise RuntimeError(f"missing edge ({u}, {v})")
        if g.edge_id(u, v) not in r:
            outside += 1
    if outside != 1:
        raise RuntimeError(f"cycle has {outside} non-witness edges, want 1")
    if cap is not None and len(cycle) > cap:
        raise RuntimeError("cycle exceeds the length cap")


def _small_adjacency_ok(g: Graph, small: VertexSet, cycle: tuple[int, ...]) -> bool:
    cyc_mask = mask_of(cycle)
    for u in small:
        onto = (g.adj_bits(u) & cyc_mask).bit_count()
        limit = 2 if cyc_mask >> u & 1 else 1
        if onto > limit:
            return False
    return True


def _parity_dist(adj: list[int], n: int, src: int) -> list[list[int]]:
    """Shortest walk lengths to src split by parity.

    Walks of length d reach exactly the states (w, d mod 2), so a layer
    BFS ORs the new states' neighbour masks, with one seen mask a parity.
    """
    inf = n * n + 7
    dist = [[inf, inf] for _ in range(n)]
    dist[src][0] = 0
    seen, frontier, d = [1 << src, 0], 1 << src, 0
    while frontier:
        d += 1
        reach = 0
        for v in iter_bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen[d & 1]
        seen[d & 1] |= frontier
        for w in iter_bits(frontier):
            dist[w][d & 1] = d
    return dist


def _odd_simple_path(adj: list[int], n: int, x: int, y: int,
                     max_edges: int, budget: int) -> tuple[list[int] | None, int]:
    """Shortest-first search for a simple odd-length path x..y within adj.

    Depth-first over simple paths, expanding neighbors in order of their
    parity-aware distance to y (a walk-based lower bound, so pruning is
    admissible).  Returns (path, expansions_used).
    """
    if max_edges < 1:
        return None, 0
    dist_y = _parity_dist(adj, n, y)
    if dist_y[x][1] > max_edges:
        return None, 0
    expansions = 0
    path = [x]
    on = 1 << x
    # Stack of candidate lists (vertex, bound) per level.
    def candidates(v: int, length: int) -> list[int]:
        need = (length + 1) & 1 ^ 1  # parity of remaining walk after stepping
        out = []
        for w in iter_bits(adj[v] & ~on):
            d = dist_y[w][need]
            if length + 1 + d <= max_edges:
                out.append((d, w))
        out.sort()
        return [w for _, w in out]

    stack = [candidates(x, 0)]
    idx = [0]
    while stack:
        if expansions >= budget:
            return None, expansions
        level = len(stack) - 1
        opts = stack[level]
        if idx[level] >= len(opts):
            stack.pop()
            idx.pop()
            on &= ~(1 << path.pop())
            continue
        w = opts[idx[level]]
        idx[level] += 1
        expansions += 1
        length = len(path)  # edges after appending w
        if w == y:
            if length & 1:
                return path + [y], expansions
            continue
        path.append(w)
        on |= 1 << w
        stack.append(candidates(w, length))
        idx.append(0)
    return None, expansions


def hamilton_paths_of_switcher(
    w: ParitySwitcher,
    r: EdgeVector,
) -> tuple[list[int], list[int]]:
    """The two fixed-endpoint Hamilton paths of the switcher gadget.

    Both run from v_1 to v_{k+1}.  One alternately takes a cycle edge
    and a connector starting with (v_1, v_2); the other starts with
    (v_1, v_2k).  They share all connector edges and use complementary
    halves of the cycle edges, so A xor B = E(C); the odd witness count
    on C then forces opposite witness parities.  Returned ordered as
    (even-parity path, odd-parity path).
    """
    if r.m != w.graph.m:
        raise ValueError("vector over wrong universe")
    if intersection_parity(w.cycle_vector, r) != 1:
        raise ValueError("switcher cycle pairs evenly with r")
    k = w.k
    path_a = _zigzag(w, _stations_a(k))
    path_b = _zigzag(w, _stations_b(k))
    want = w.vertices()
    for p in (path_a, path_b):
        if len(p) != len(want) or set(p) != want or len(set(p)) != len(p):
            raise RuntimeError("zig-zag is not a Hamilton path of the gadget")
        if p[0] != w.cycle[0] or p[-1] != w.cycle[k]:
            raise RuntimeError("zig-zag endpoints drifted")
    pa = intersection_parity(EdgeVector.from_vertex_path(w.graph, path_a), r)
    pb = intersection_parity(EdgeVector.from_vertex_path(w.graph, path_b), r)
    if pa == pb:
        raise RuntimeError("switcher paths have equal parity")
    return (path_a, path_b) if pa == 0 else (path_b, path_a)


def _stations_a(k: int) -> list[int]:
    # 1-based cycle positions: 1, 2, 2k, 2k-1, 3, 4, 2k-2, 2k-3, 5, 6, ...
    st = [1, 2]
    lo, hi = 2, 2 * k
    while len(st) < 2 * k:
        st += [hi, hi - 1]
        if len(st) == 2 * k:
            break
        st += [lo + 1, lo + 2]
        lo += 2
        hi -= 2
    return st


def _stations_b(k: int) -> list[int]:
    # 1-based: 1, 2k, 2, 3, 2k-1, 2k-2, 4, 5, ...: path A mirrored by s -> 2k + 2 - s.
    return [1] + [2 * k + 2 - s for s in _stations_a(k)[1:]]


def _zigzag(w: ParitySwitcher, stations: list[int]) -> list[int]:
    cyc = w.cycle
    two_k = len(cyc)
    out = [cyc[stations[0] - 1]]
    for a, b in zip(stations, stations[1:]):
        adjacent = abs(a - b) == 1 or {a, b} == {1, two_k}
        if adjacent:
            out.append(cyc[b - 1])
            continue
        i = a if a <= two_k // 2 else two_k - a + 2
        p = w.paths[i - 2]
        if p[0] != cyc[a - 1]:
            p = p[::-1]
        out.extend(p[1:])
    return out


def switcher_certificate(w: ParitySwitcher) -> str:
    """Structured JSON record: vertex lists, parity bit, and edge ids."""
    g = w.graph
    cyc_edges = sorted(w.cycle_vector.support())
    path_edges = [
        [g.edge_id(u, v) for u, v in zip(p, p[1:])] for p in w.paths
    ]
    doc = {
        "cycle": list(w.cycle),
        "paths": [list(p) for p in w.paths],
        "r_parity_of_cycle": w.r_parity_of_cycle,
        "cycle_edge_ids": cyc_edges,
        "path_edge_ids": path_edges,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
