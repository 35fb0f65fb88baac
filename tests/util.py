"""Independent oracles and generators shared by the test modules.

Everything here is deliberately naive: permutation scans, exhaustive
partition sweeps, batch elimination.  The point is to check the library
against code that shares none of its machinery.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from cyclespan.gf2 import EdgeVector
from cyclespan.graph import Graph, from_edge_list


def permutation_hamilton_cycles(g: Graph) -> set[tuple[int, ...]]:
    """All Hamilton cycles as canonical orders, by scanning permutations."""
    n = g.n
    out = set()
    if n < 3:
        return out
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        ok = g.has_edge(order[-1], 0)
        if ok:
            for u, v in zip(order, order[1:]):
                if not g.has_edge(u, v):
                    ok = False
                    break
        if ok:
            out.add(order)
    return out


def edge_id_vertex_path(g: Graph, path: list[int], closed: bool = False) -> int:
    """Edge mask of a vertex walk by one `edge_id` lookup per step."""
    bits = 0
    for u, v in zip(path, path[1:]):
        bits ^= 1 << g.edge_id(u, v)
    if closed and len(path) > 1:
        bits ^= 1 << g.edge_id(path[-1], path[0])
    return bits


def naive_two_opt_moves(g: Graph, order: list[int]) -> list[tuple[int, int]]:
    """Every 2-opt move (i, j), i < j, of a Hamilton cycle, over all pairs.

    Cycle edges order[i] order[i+1] and order[j] order[j+1] (indices mod
    n) qualify when their four ends are distinct, order[i] ~ order[j] and
    order[i+1] ~ order[j+1].
    """
    n = len(order)
    moves = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b, c, d = order[i], order[(i + 1) % n], order[j], order[(j + 1) % n]
            if len({a, b, c, d}) == 4 and g.has_edge(a, c) and g.has_edge(b, d):
                moves.append((i, j))
    return moves


def mask_rotate_cycle(g: Graph, order: list[int], cut: int, min_rotations: int,
                      budget: int, seed: int) -> tuple[list[int] | None, int]:
    """Pósa rotations of a cut Hamilton cycle, pivots drawn from a bit mask.

    The pivot set is the tip's neighbours minus its predecessor as an
    n-bit mask; the drawn index is walked down to its set bit.  Returns
    the closed order (or None) and the rotations made.
    """
    path = list(order[cut:]) + list(order[:cut])
    anchor_bit = 1 << path[0]
    rng = random.Random(seed)
    steps = 0
    while steps < budget:
        if steps >= min_rotations and g.adj_bits(path[-1]) & anchor_bit:
            return path, steps
        if len(path) < 3:
            break
        pivots = g.adj_bits(path[-1]) & ~(1 << path[-2])
        if not pivots:
            break
        mask = pivots
        for _ in range(rng.randrange(pivots.bit_count())):
            mask &= mask - 1
        i = path.index((mask & -mask).bit_length() - 1)
        path[i + 1:] = path[:i:-1]
        steps += 1
    return None, steps


def gray_loop_normalize(g: Graph, bits: int) -> int:
    """Largest member of the cut coset of bits, first in Gray order.

    Per component, every star but the first member's is flipped in
    Gray-code order, one flip per step, keeping the strict maximum.
    """
    for comp in g.components():
        members = comp.to_list()
        if len(members) <= 1:
            continue
        stars = [g.star_bits(v) for v in members[1:]]
        best = cur = bits
        best_w = cur.bit_count()
        prev_code = 0
        for i in range(1, 1 << len(stars)):
            code = i ^ (i >> 1)
            cur ^= stars[(code ^ prev_code).bit_length() - 1]
            prev_code = code
            if cur.bit_count() > best_w:
                best_w = cur.bit_count()
                best = cur
        bits = best
    return bits


def batch_gf2_rank(rows: list[int], ncols: int) -> int:
    """Rank by plain Gaussian elimination over GF(2)."""
    work = [r for r in rows]
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(work)):
            if work[i] >> col & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        for i in range(len(work)):
            if i != row and work[i] >> col & 1:
                work[i] ^= work[row]
        rank += 1
        row += 1
        if row == len(work):
            break
    return rank


def brute_shortest_path(g: Graph, x: int, y: int, banned: set[int]) -> int | None:
    """Length of a shortest x..y path avoiding banned, by full DFS."""
    if x == y:
        return 0
    best = [None]

    def walk(v, seen, length):
        if best[0] is not None and length >= best[0]:
            return
        for w in g.neighbors(v):
            if w in seen or w in banned:
                continue
            if w == y:
                if best[0] is None or length + 1 < best[0]:
                    best[0] = length + 1
                continue
            seen.add(w)
            walk(w, seen, length + 1)
            seen.discard(w)

    walk(x, {x}, 0)
    return best[0]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edge_list(n, pairs)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, outer + spokes + inner)


def all_bipartition_cuts(g: Graph) -> set[int]:
    """Bit masks of E(A, V-A) over every partition (vertex n-1 fixed in B)."""
    cuts = set()
    for mask in range(1 << max(0, g.n - 1)):
        cut = 0
        for eid, (u, v) in enumerate(g.edges):
            if (mask >> u & 1) != (mask >> v & 1):
                cut |= 1 << eid
        cuts.add(cut)
    return cuts


def walk_cycle_space_basis(g: Graph) -> list[int]:
    """Fundamental cycles as bit masks, by parent pointers and depths.

    BFS from the lowest vertex of each component, neighbours ascending;
    each non-tree edge, in ascending id, is closed by walking both ends
    up to their lowest common ancestor.
    """
    n = g.n
    parent = [-1] * n
    parent_eid = [-1] * n
    depth = [0] * n
    seen = [False] * n
    tree_mask = 0
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    parent_eid[w] = g.edge_id(u, w)
                    depth[w] = depth[u] + 1
                    tree_mask |= 1 << parent_eid[w]
                    queue.append(w)
    out = []
    for eid, (u, v) in enumerate(g.edges):
        if tree_mask >> eid & 1:
            continue
        bits = 1 << eid
        a, b = u, v
        while depth[a] > depth[b]:
            bits ^= 1 << parent_eid[a]
            a = parent[a]
        while depth[b] > depth[a]:
            bits ^= 1 << parent_eid[b]
            b = parent[b]
        while a != b:
            bits ^= 1 << parent_eid[a]
            bits ^= 1 << parent_eid[b]
            a = parent[a]
            b = parent[b]
        out.append(bits)
    return out


def coloring_is_bipartite(g: Graph) -> bool:
    """Two-colouring by a BFS queue; False at the first monochrome edge."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def coloring_is_cut(g: Graph, bits: int) -> bool:
    """Whether bits = E(A, B), by a depth-first two-colouring.

    A bits-edge demands different sides and any other edge equal ones;
    every edge is checked again against the final colouring.
    """
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                want = side[u] ^ (bits >> g.edge_id(u, w) & 1)
                if side[w] < 0:
                    side[w] = want
                    stack.append(w)
                elif side[w] != want:
                    return False
    return all((side[u] != side[v]) == (bits >> eid & 1 == 1)
               for eid, (u, v) in enumerate(g.edges))


def forest_test_graphs() -> list[Graph]:
    """60 seeded graphs with n = 0..40, then K_0..K_8 and C_3..C_10.

    Every third seeded graph has no edge between its two halves, and the
    sparse ones leave vertices isolated.
    """
    rng = random.Random(2026)
    graphs = []
    for k in range(60):
        n = k * 40 // 59
        p = rng.choice((0.03, 0.08, 0.15, 0.4, 0.8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p and (k % 3 or (i < n // 2) == (j < n // 2))]
        graphs.append(from_edge_list(n, pairs))
    graphs += [Graph.complete(n) for n in range(9)]
    graphs += [Graph.cycle(n) for n in range(3, 11)]
    return graphs


def random_cut(rng: random.Random, g: Graph) -> int:
    """E(A, B) for a random vertex set A, as the XOR of A's stars."""
    bits = 0
    for v in range(g.n):
        if rng.random() < 0.5:
            bits ^= g.star_bits(v)
    return bits


def random_switcher(seed: int, k: int | None = None, max_interior: int = 3):
    """A random valid switcher instance: (graph, cycle, paths, r)."""
    rng = random.Random(seed)
    if k is None:
        k = rng.randint(2, 6)
    two_k = 2 * k
    cycle = list(range(two_k))
    pairs = [(i, (i + 1) % two_k) for i in range(two_k)]
    paths = []
    label = two_k
    for i in range(2, k + 1):
        a, b = i - 1, two_k - i + 1  # 0-based endpoints of P_i
        interior = [label + j for j in range(rng.randint(0, max_interior))]
        label += len(interior)
        chain = [a] + interior + [b]
        pairs.extend(zip(chain, chain[1:]))
        paths.append(chain)
    g = from_edge_list(label, pairs)
    while True:
        bits = rng.getrandbits(g.m)
        cyc_mask = 0
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            cyc_mask |= 1 << g.edge_id(u, v)
        if (bits & cyc_mask).bit_count() % 2 == 1:
            break
        bits ^= cyc_mask & -cyc_mask  # flip one cycle edge to make it odd
        break
    return g, cycle, paths, EdgeVector(bits, g.m)


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = []
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> idx & 1:
                pairs.append((i, j))
            idx += 1
    return from_edge_list(n, pairs)
