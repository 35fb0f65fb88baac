"""Hamilton path machinery: rotation-extension search and its supports.

The workhorse is `rotation_extension_path`: grow a path from an anchor,
and when stuck, reverse a suffix at a chord (a rotation) to expose a new
endpoint.  On graphs with decent expansion this finds Hamilton paths
between prescribed endpoints fast; it never certifies nonexistence.
`rotate_cycle` turns one Hamilton cycle into another with the same
rotations.

Around it: degree-preserving random vertex splits, short paths inside a
witness subgraph, Hamilton paths that first shelter low-degree vertices
behind escort pairs, and expansion property checkers.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import EdgeVector
from .graph import Graph, VertexSet, iter_bits, restrict, small_vertices
from .seeds import derive_seed
from .switcher import disjoint_pair_paths


def _random_set_bit(rng: random.Random, mask: int) -> int:
    k = mask.bit_count()
    if k == 1:
        return mask.bit_length() - 1
    return _nth_set_bit(mask, rng.randrange(k))


def _nth_set_bit(mask: int, i: int) -> int:
    """Position of the i-th lowest set bit of mask, counting from 0."""
    for _ in range(i):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def verify_hamilton_path(g: Graph, path: Sequence[int], x: int, y: int) -> None:
    """Raise unless path is a Hamilton path of g from x to y."""
    if len(path) != g.n or len(set(path)) != g.n:
        raise RuntimeError("not a spanning simple path")
    if path[0] != x or path[-1] != y:
        raise RuntimeError("wrong endpoints")
    for u, v in zip(path, path[1:]):
        if not g.has_edge(u, v):
            raise RuntimeError(f"missing edge ({u}, {v})")


class StepCounter:
    """Running total of search steps (extensions plus rotations) over calls."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps = 0


def rotation_extension_path(
    g: Graph,
    x: int,
    y: int,
    budget: int = 1_000_000,
    seed: int = 0,
    counter: StepCounter | None = None,
) -> list[int] | None:
    """Hamilton path from x to y by randomized rotation-extension.

    The anchor end stays fixed while the other end extends greedily into
    unvisited vertices (y is withheld until everything else is covered)
    and rotates at random chords when stuck.  If closing onto y stalls,
    the search re-anchors from y and works toward x, alternating in
    slices of budget/10.  The budget counts extensions plus rotations;
    the steps spent are added to `counter` when one is given.
    Output is verified before return; None only means budget exhausted.
    """
    n = g.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("endpoint out of range")
    if x == y:
        raise ValueError("endpoints must differ")
    if n == 2:
        return [x, y] if g.has_edge(x, y) else None
    rng = random.Random(seed)
    slice_budget = max(1_000, budget // 10)
    spent = 0
    anchor, target = x, y
    path = None
    while path is None and spent < budget:
        here = min(slice_budget, budget - spent)
        path, used = _posa_grow(g, anchor, target, here, rng)
        spent += used
        if path is None:
            anchor, target = target, anchor
    if counter is not None:
        counter.steps += spent
    if path is None:
        return None
    if anchor != x:
        path.reverse()
    verify_hamilton_path(g, path, x, y)
    return path


def _posa_grow(g: Graph, a: int, t: int, budget: int, rng: random.Random):
    """Grow a..tip over V-{t}; succeed once all covered and tip sees t."""
    adj = g._adj_bits
    t_bit = 1 << t
    goal = ((1 << g.n) - 1) & ~t_bit
    path = [a]
    on = 1 << a
    steps = 0
    while steps < budget:
        tip = path[-1]
        steps += 1
        if on == goal:
            if adj[tip] & t_bit:
                return path + [t], steps - 1
            # Prefer rotations whose new tip closes onto t.
            if not _rotate(adj, path, on, rng, t_bit):
                path, on = [a], 1 << a
            continue
        ext = adj[tip] & ~on & ~t_bit
        if ext:
            w = _random_set_bit(rng, ext)
            path.append(w)
            on |= 1 << w
        elif not _rotate(adj, path, on, rng):
            if len(path) == 1:
                return None, steps
            path, on = [a], 1 << a
    return None, steps


def _rotate(adj: list[int], path: list[int], on: int, rng: random.Random,
            prefer: int = 0) -> bool:
    """One Posa rotation at the tip path[-1]; False when there is no pivot.

    A pivot is a neighbour v of the tip on the path other than its
    predecessor; reversing the segment after v makes v's successor the
    new tip.  The pivot is drawn uniformly in ascending vertex order,
    from those whose new tip meets the mask `prefer` if there are any.
    """
    if len(path) < 3:
        return False
    pivots = adj[path[-1]] & on & ~(1 << path[-2])
    if not pivots:
        return False
    if prefer:
        cuts = [i for i in map(path.index, iter_bits(pivots)) if adj[path[i + 1]] & prefer]
        if cuts:
            i = cuts[rng.randrange(len(cuts))]
            path[i + 1:] = path[:i:-1]
            return True
    i = path.index(_nth_set_bit(pivots, rng.randrange(pivots.bit_count())))
    path[i + 1:] = path[:i:-1]
    return True


def rotate_cycle(
    g: Graph,
    order: Sequence[int],
    cut: int,
    min_rotations: int,
    budget: int,
    seed: int,
    counter: StepCounter | None = None,
) -> list[int] | None:
    """A new Hamilton cycle from a Hamilton cycle by Posa rotations.

    The cycle `order` is cut before position `cut` into a Hamilton path
    whose first vertex stays fixed.  The other end rotates at uniform
    pivots, and once `min_rotations` rotations are done the path closes
    as soon as its tip sees the fixed end.  (Preferring pivots whose new
    tip sees the fixed end closes sooner but biases the cycles: some
    threshold graphs then stall one short of full rank.)  Returns the
    closed vertex order, unverified (the caller builds and checks the
    cycle), or None when `budget` rotations pass without a close.
    Rotations are added to `counter` when one is given.

    The path always holds every vertex, so the pivots are the tip's
    neighbours other than its predecessor: the j-th of them in ascending
    order is read off the tip's sorted neighbour tuple, skipping the
    predecessor, which draws the same pivot as `_rotate` would.
    """
    adj = g._adj_bits
    nbrs = g._neighbors
    path = list(order[cut:]) + list(order[:cut])
    anchor_bit = 1 << path[0]
    randrange = random.Random(seed).randrange
    steps = 0
    closed = False
    while steps < budget:
        tip = path[-1]
        if steps >= min_rotations and adj[tip] & anchor_bit:
            closed = True
            break
        nb = nbrs[tip]
        if len(nb) < 2:
            break
        j = randrange(len(nb) - 1)
        v = nb[j]
        if v >= path[-2]:
            v = nb[j + 1]
        i = path.index(v)
        path[i + 1:] = path[:i:-1]
        steps += 1
    if counter is not None:
        counter.steps += steps
    return path if closed else None


@dataclass(frozen=True)
class SplitRequest:
    """Request to split Y into parts of sizes a and b with degree floors.

    The floors are the fractional ones deg(v, A) >= (a/3|Y|) deg(v, Y)
    and symmetrically for B, demanded for every vertex of the graph.
    """

    y_vertices: VertexSet
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("part sizes must be positive")
        if self.a + self.b != len(self.y_vertices):
            raise ValueError("part sizes must add up to |Y|")

    @classmethod
    def halves(cls, y: VertexSet) -> "SplitRequest":
        size = len(y)
        return cls(y, size // 2, size - size // 2)


def lll_split(
    g: Graph,
    req: SplitRequest,
    retries: int = 10_000,
    seed: int = 0,
) -> tuple[VertexSet, VertexSet] | None:
    """Random a/b-split of Y with per-vertex degree floors on both sides.

    Uniform a-subsets are resampled until every vertex v satisfies
    3|Y| deg(v, A) >= a deg(v, Y) and 3|Y| deg(v, B) >= b deg(v, Y)
    (checked in exact integer arithmetic), or retries run out, in which
    case None is returned; the floors are not always satisfiable.
    """
    y_mask = req.y_vertices.mask
    size_y = len(req.y_vertices)
    members = req.y_vertices.to_list()
    rng = random.Random(seed)
    a, b = req.a, req.b
    relevant = [v for v in range(g.n) if g.adj_bits(v) & y_mask]
    for _ in range(max(1, retries)):
        chosen = rng.sample(members, a)
        a_mask = 0
        for v in chosen:
            a_mask |= 1 << v
        b_mask = y_mask & ~a_mask
        ok = True
        for v in relevant:
            adj = g.adj_bits(v)
            deg_y = (adj & y_mask).bit_count()
            if 3 * size_y * (adj & a_mask).bit_count() < a * deg_y:
                ok = False
                break
            if 3 * size_y * (adj & b_mask).bit_count() < b * deg_y:
                ok = False
                break
        if ok:
            return VertexSet(g.n, a_mask), VertexSet(g.n, b_mask)
    return None


def short_path_in_r(
    g: Graph,
    r: EdgeVector,
    x: int,
    y: int,
    avoid: VertexSet | None = None,
) -> list[int] | None:
    """Shortest path from x to y using only r-edges and non-avoided vertices.

    x and y are always admitted even if listed in avoid's closure role;
    they must not themselves be in avoid.  None when the restricted
    r-subgraph disconnects them.
    """
    if r.m != g.m:
        raise ValueError("vector over wrong universe")
    banned = avoid.mask if avoid is not None else 0
    if banned >> x & 1 or banned >> y & 1:
        raise ValueError("endpoint in avoid set")
    n = g.n
    adj = [0] * n
    for eid in iter_bits(r.bits):
        u, v = g.pair_of(eid)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    allowed = (((1 << n) - 1) & ~banned) | 1 << x | 1 << y
    if x == y:
        return [x]
    parent = {x: -1}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in iter_bits(adj[u] & allowed):
            if w in parent:
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


@dataclass(frozen=True)
class ProtectedPathResult:
    """Outcome of the sheltered Hamilton path construction."""

    path: tuple[int, ...] | None
    failed_stage: str | None = None  # escort | split | linkage | closing

    @property
    def ok(self) -> bool:
        return self.path is not None


def hamilton_path_protected(
    g: Graph,
    s_vertices: VertexSet,
    x: int,
    y: int,
    seed: int = 0,
    small: VertexSet | None = None,
    closing_budget: int = 200_000,
    linkage_retries: int = 200,
    split_retries: int = 2_000,
) -> ProtectedPathResult:
    """Hamilton path of g[S] from x to y that shelters low-degree vertices.

    Each low-degree vertex u_i in S is first assigned a distinct escort
    pair x_i, y_i of ordinary neighbors; the remainder of S is split into
    two degree-balanced halves; one half hosts vertex-disjoint connector
    paths chaining y_1 .. x_2, y_2 .. x_3, ..., y_t .. y; the other half
    absorbs a rotation-extension Hamilton path from x to x_1.  Splicing
    the x_i-u_i-y_i hops between the connectors yields the full path,
    which is verified before return.  With no low-degree vertices in S
    this reduces to plain rotation-extension on g[S].

    `small` overrides the low-degree set (degree <= ln(n)/10 by default),
    which is mainly useful for exercising the sheltering machinery on
    small test graphs.
    """
    s_mask = s_vertices.mask
    if not (s_mask >> x & 1 and s_mask >> y & 1):
        raise ValueError("endpoints must lie in S")
    if x == y:
        raise ValueError("endpoints must differ")
    small_set = small if small is not None else small_vertices(g)
    if x in small_set or y in small_set:
        raise ValueError("endpoints must not be low-degree vertices")
    s_small = [u for u in small_set if s_mask >> u & 1]
    xy_free = s_mask & ~(1 << x) & ~(1 << y)
    for u in s_small:
        if (g.adj_bits(u) & xy_free).bit_count() < 2:
            raise ValueError(
                f"low-degree vertex {u} has fewer than 2 neighbors in S - {{x, y}}")

    def _closing_path(sub_keep: VertexSet, fx: int, fy: int, sd: int) -> list[int] | None:
        res = restrict(g, sub_keep)
        idx = res.new_vertex
        p = rotation_extension_path(res.graph, idx[fx], idx[fy],
                                    budget=closing_budget, seed=sd)
        return None if p is None else res.to_old_path(p)

    if not s_small:
        p = _closing_path(s_vertices, x, y, derive_seed(seed, "close"))
        if p is None:
            return ProtectedPathResult(None, "closing")
        verify_hamilton_path_in_set(g, p, s_vertices, x, y)
        return ProtectedPathResult(tuple(p))

    rng = random.Random(derive_seed(seed, "escort"))
    t = len(s_small)
    escorts = _pick_escorts(g, s_small, small_set, s_mask, x, y, rng)
    if escorts is None:
        return ProtectedPathResult(None, "escort")
    xs, ys = escorts

    u_mask = 0
    for u in itertools.chain(s_small, xs, ys):
        u_mask |= 1 << u
    y_rest = VertexSet(g.n, s_mask & ~u_mask)
    if len(y_rest) < 2:
        return ProtectedPathResult(None, "split")
    halves = lll_split(g, SplitRequest.halves(y_rest),
                       retries=split_retries, seed=derive_seed(seed, "split"))
    if halves is None:
        return ProtectedPathResult(None, "split")
    s1, s2 = halves

    # Connector pairs: (y_t, y), then (x_i, y_{i-1}) for i = 2..t.
    link_old = [(ys[t - 1], y)] + [(xs[i], ys[i - 1]) for i in range(1, t)]
    hub = s1.mask | 1 << y
    for a2, b2 in link_old:
        hub |= 1 << a2 | 1 << b2
    res1 = restrict(g, VertexSet(g.n, hub & ~(1 << x) & ~(1 << xs[0])))
    idx1 = res1.new_vertex
    try:
        pairs1 = [(idx1[a2], idx1[b2]) for a2, b2 in link_old]
    except KeyError:
        return ProtectedPathResult(None, "linkage")
    routed = disjoint_pair_paths(res1.graph, pairs1, seed=derive_seed(seed, "link"),
                                 retries=linkage_retries)
    if routed is None:
        return ProtectedPathResult(None, "linkage")
    links = [res1.to_old_path(p) for p in routed]

    used = set(itertools.chain(s_small, *links))
    w_keep = VertexSet(g.n, s_mask & ~_mask_of(used))
    if x not in w_keep or xs[0] not in w_keep:
        return ProtectedPathResult(None, "closing")
    closing = _closing_path(w_keep, x, xs[0], derive_seed(seed, "close"))
    if closing is None:
        return ProtectedPathResult(None, "closing")

    # Assemble x .. x_1, u_1, y_1, P_2 .. x_2, u_2, y_2, ..., y_t, P_1 .. y.
    full_path = list(closing)
    by_pair = {frozenset((a2, b2)): p for (a2, b2), p in zip(link_old, links)}
    for i in range(t):
        full_path.append(s_small[i])
        full_path.append(ys[i])
        if i + 1 < t:
            p = by_pair[frozenset((xs[i + 1], ys[i]))]
            if p[0] != ys[i]:
                p = p[::-1]
            full_path.extend(p[1:])
        else:
            p = by_pair[frozenset((ys[t - 1], y))]
            if p[0] != ys[t - 1]:
                p = p[::-1]
            full_path.extend(p[1:])
    verify_hamilton_path_in_set(g, full_path, s_vertices, x, y)
    return ProtectedPathResult(tuple(full_path))


def _mask_of(ids: Iterable[int]) -> int:
    out = 0
    for v in ids:
        out |= 1 << v
    return out


def _pick_escorts(g, s_small, small_set, s_mask, x, y, rng):
    taken = 0
    xs, ys = [], []
    order = list(range(len(s_small)))
    for _ in range(20):
        xs.clear()
        ys.clear()
        taken = 0
        ok = True
        for i in order:
            u = s_small[i]
            cand = g.adj_bits(u) & s_mask & ~small_set.mask & ~taken
            cand &= ~(1 << x) & ~(1 << y)
            picks = list(iter_bits(cand))
            if len(picks) < 2:
                ok = False
                break
            a, b = rng.sample(picks, 2)
            xs.append(a)
            ys.append(b)
            taken |= 1 << a | 1 << b
        if ok:
            return xs, ys
        rng.shuffle(order)
    return None


def verify_hamilton_path_in_set(g: Graph, path: Sequence[int], s: VertexSet,
                                x: int, y: int) -> None:
    if set(path) != set(s.to_list()) or len(set(path)) != len(path):
        raise RuntimeError("path does not cover S exactly once each")
    if path[0] != x or path[-1] != y:
        raise RuntimeError("wrong endpoints")
    for u, v in zip(path, path[1:]):
        if not g.has_edge(u, v):
            raise RuntimeError(f"missing edge ({u}, {v})")


@dataclass(frozen=True)
class ExpanderParams:
    """Parameters for the two expansion notions we check.

    c governs plain vertex expansion (|N(X)| >= c|X| for small X, plus an
    edge between every pair of large disjoint sets).  (n0, d, alpha)
    govern robust expansion: after any adversary deletes at most an
    alpha-fraction of each tracked vertex's edges, sets of size <= n0
    must still expand by a factor 2d.
    """

    c: float
    n0: int = 4
    d: int = 3
    alpha: float = 0.5

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if not 3 <= self.d < self.n0:
            raise ValueError("need 3 <= d < n0")
        if not 0 <= self.alpha < 1:
            raise ValueError("need 0 <= alpha < 1")


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    verdict: str          # "holds" | "violated" | "no_counterexample_found"
    mode: str             # "exact" | "heuristic-exact" | "sampled"
    witness: dict | None = None


@dataclass(frozen=True)
class ExpanderReport:
    params: ExpanderParams
    small_set_expansion: CheckOutcome
    large_pair_edge: CheckOutcome
    robust_expansion: CheckOutcome

    @property
    def all_hold(self) -> bool:
        return all(o.verdict == "holds" for o in
                   (self.small_set_expansion, self.large_pair_edge, self.robust_expansion))


def expander_check(
    g: Graph,
    params: ExpanderParams,
    mode: str = "exact",
    seed: int = 0,
    samples: int = 2_000,
) -> ExpanderReport:
    """Check vertex expansion and robust expansion properties.

    exact mode (n <= 20): enumerates every X below the size threshold for
    plain expansion, every X at the threshold size for the edge-between-
    large-sets condition (monotone, so that suffices), and every X up to
    n0 for robust expansion against a greedy deletion adversary that
    disconnects cheap external neighbors first.  The adversary is a
    heuristic, so that check is labeled "heuristic-exact": a violation
    is certified, a pass is best-effort.

    sample mode: randomized refutation attempts only.  A found violation
    is re-verified and certified; absence of violations is reported as
    "no_counterexample_found", never as a certified pass.
    """
    n = g.n
    if mode not in ("exact", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and n > 20:
        raise ValueError("exact mode is limited to n <= 20")
    rng = random.Random(seed)
    thr = n / (2 * params.c)

    def neigh_mask(x_mask: int) -> int:
        out = 0
        for v in iter_bits(x_mask):
            out |= g.adj_bits(v)
        return out & ~x_mask

    # --- plain expansion on small sets ---
    e1_witness = None
    if mode == "exact":
        max_size = math.ceil(thr) - 1 if thr == int(thr) else math.floor(thr)
        for size in range(1, max(0, max_size) + 1):
            for combo in itertools.combinations(range(n), size):
                x_mask = _mask_of(combo)
                if neigh_mask(x_mask).bit_count() < params.c * size:
                    e1_witness = {"X": list(combo),
                                  "neighborhood": sorted(iter_bits(neigh_mask(x_mask)))}
                    break
            if e1_witness:
                break
        e1 = CheckOutcome("small_set_expansion",
                          "violated" if e1_witness else "holds", "exact", e1_witness)
    else:
        for _ in range(samples):
            size = rng.randrange(1, max(2, math.floor(thr) + 1)) if thr > 1 else 1
            if size >= n or size >= thr:
                continue
            combo = rng.sample(range(n), size)
            x_mask = _mask_of(combo)
            if neigh_mask(x_mask).bit_count() < params.c * size:
                e1_witness = {"X": sorted(combo)}
                break
        e1 = CheckOutcome("small_set_expansion",
                          "violated" if e1_witness else "no_counterexample_found",
                          "sampled", e1_witness)

    # --- an edge between every pair of large disjoint sets ---
    s = math.ceil(thr)
    e2_witness = None
    if s < 1:
        s = 1
    if mode == "exact":
        if s <= n:
            for combo in itertools.combinations(range(n), s):
                x_mask = _mask_of(combo)
                rest = ((1 << n) - 1) & ~x_mask & ~neigh_mask(x_mask)
                if rest.bit_count() >= s:
                    ys = list(iter_bits(rest))[:s]
                    e2_witness = {"X": list(combo), "Y": ys}
                    break
        e2 = CheckOutcome("large_pair_edge",
                          "violated" if e2_witness else "holds", "exact", e2_witness)
    else:
        if s <= n:
            for _ in range(samples):
                combo = rng.sample(range(n), s)
                x_mask = _mask_of(combo)
                rest = ((1 << n) - 1) & ~x_mask & ~neigh_mask(x_mask)
                if rest.bit_count() >= s:
                    e2_witness = {"X": sorted(combo),
                                  "Y": list(iter_bits(rest))[:s]}
                    break
        e2 = CheckOutcome("large_pair_edge",
                          "violated" if e2_witness else "no_counterexample_found",
                          "sampled", e2_witness)

    # --- robust expansion against greedy per-vertex deletions ---
    def robust_violation(combo) -> dict | None:
        x_list = list(combo)
        x_mask = _mask_of(x_list)
        budgets = {v: math.floor(params.alpha * g.degree(v)) for v in x_list}
        ext = list(iter_bits(neigh_mask(x_mask)))
        ext.sort(key=lambda w: ((g.adj_bits(w) & x_mask).bit_count(), w))
        surviving = set(ext)
        deleted = []
        for w in ext:
            touch = [v for v in x_list if g.adj_bits(w) >> v & 1]
            if all(budgets[v] >= 1 for v in touch):
                for v in touch:
                    budgets[v] -= 1
                    deleted.append((min(v, w), max(v, w)))
                surviving.discard(w)
        if len(surviving) < 2 * params.d * len(x_list):
            return {"X": x_list, "deleted_edges": deleted,
                    "surviving_neighborhood": sorted(surviving)}
        return None

    ra_witness = None
    if mode == "exact":
        cap = min(params.n0, n)
        for size in range(1, cap + 1):
            for combo in itertools.combinations(range(n), size):
                ra_witness = robust_violation(combo)
                if ra_witness:
                    break
            if ra_witness:
                break
        ra = CheckOutcome("robust_expansion",
                          "violated" if ra_witness else "holds",
                          "heuristic-exact", ra_witness)
    else:
        for _ in range(samples):
            size = rng.randrange(1, min(params.n0, n) + 1)
            ra_witness = robust_violation(rng.sample(range(n), size))
            if ra_witness:
                break
        ra = CheckOutcome("robust_expansion",
                          "violated" if ra_witness else "no_counterexample_found",
                          "sampled", ra_witness)

    return ExpanderReport(params, e1, e2, ra)
