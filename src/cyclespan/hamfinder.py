"""Hamilton path machinery: rotation-extension search and its supports.

The workhorse is `rotation_extension_path`: grow a path from an anchor,
and when stuck, reverse a suffix at a chord (a rotation) to expose a new
endpoint.  On graphs with decent expansion this finds Hamilton paths
between prescribed endpoints fast; it never certifies nonexistence.
`rotate_cycle` turns one Hamilton cycle into another with the same
rotations.

Around it: vertex-disjoint paths between terminal pairs,
degree-preserving random vertex splits, and Hamilton paths that first
shelter low-degree vertices behind escort pairs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, VertexSet, bfs_path, iter_bits, mask_of, small_vertices
from .seeds import derive_seed

# Rotation-extension budget of each closing path in hamilton_path_protected.
_CLOSING_BUDGET = 300_000
# Shuffled routing orders disjoint_pair_paths tries before it gives up.
_LINKAGE_RETRIES = 200
_SPLIT_RETRIES = 2_000


def _within(g: Graph, within: VertexSet | None) -> VertexSet:
    if within is None:
        return VertexSet.full(g.n)
    if within.n != g.n:
        raise ValueError("vertex set over wrong universe")
    return within


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


def verify_hamilton_path(g: Graph, path: Sequence[int], x: int, y: int,
                         within: VertexSet | None = None) -> None:
    """Raise unless path is a Hamilton path from x to y of g, or of g[within]."""
    size = g.n if within is None else len(within)
    if len(path) != size or len(set(path)) != size or \
            within is not None and mask_of(path) != within.mask:
        raise RuntimeError("path does not cover the vertex set exactly once each")
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
    within: VertexSet | None = None,
) -> list[int] | None:
    """Hamilton path from x to y by randomized rotation-extension.

    The anchor end stays fixed while the other end extends greedily into
    unvisited vertices (y is withheld until everything else is covered)
    and rotates at random chords when stuck.  If closing onto y stalls,
    the search re-anchors from y and works toward x, alternating in
    slices of budget/10.  The budget counts extensions plus rotations;
    the steps spent are added to `counter` when one is given.
    With `within`, the search runs inside that vertex mask of g, drawing
    candidates in ascending order, and gives the path of g[within] that
    it would give on the copy `restrict(g, within)`, mapped back.
    Output is verified before return; None only means budget exhausted.
    """
    within = _within(g, within)
    if x not in within or y not in within:
        raise ValueError("endpoint outside the vertex set")
    if x == y:
        raise ValueError("endpoints must differ")
    if len(within) == 2:
        return [x, y] if g.has_edge(x, y) else None
    rng = random.Random(seed)
    slice_budget = max(1_000, budget // 10)
    spent = 0
    anchor, target = x, y
    path = None
    while path is None and spent < budget:
        here = min(slice_budget, budget - spent)
        path, used = _posa_grow(g._adj_bits, within.mask & ~(1 << target),
                                anchor, target, here, rng)
        spent += used
        if path is None:
            anchor, target = target, anchor
    if counter is not None:
        counter.steps += spent
    if path is None:
        return None
    if anchor != x:
        path.reverse()
    verify_hamilton_path(g, path, x, y, within)
    return path


def _posa_grow(adj: list[int], goal: int, a: int, t: int, budget: int, rng: random.Random):
    """Grow a..tip over the mask goal (t not in it); succeed once all covered and tip sees t."""
    t_bit = 1 << t
    start = goal & ~(1 << a)
    path, free = [a], start
    steps = 0
    while steps < budget:
        tip = path[-1]
        steps += 1
        if not free:
            if adj[tip] & t_bit:
                return path + [t], steps - 1
            # Prefer rotations whose new tip closes onto t.
            if not _rotate(adj, path, goal, rng, t_bit):
                path, free = [a], start
            continue
        ext = adj[tip] & free
        if ext:
            w = _random_set_bit(rng, ext)
            path.append(w)
            free ^= 1 << w
        elif not _rotate(adj, path, goal & ~free, rng):
            if len(path) == 1:
                return None, steps
            path, free = [a], start
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


def disjoint_pair_paths(
    g: Graph,
    pairs: list[tuple[int, int]],
    seed: int = 0,
    within: VertexSet | None = None,
    drop: Iterable[tuple[int, int]] = (),
) -> list[list[int]] | None:
    """Pairwise vertex-disjoint paths, the i-th running from a_i to b_i.

    Randomized sequential routing: shuffle the pair order, BFS each pair
    in the graph minus the vertices of already-routed paths and the
    endpoints of pending pairs, and restart with a fresh shuffle on
    failure, up to `_LINKAGE_RETRIES` shuffles.  Deterministic given the
    seed.  A None return is a search failure, not a nonexistence
    certificate.

    The paths run in g[within] minus the edges `drop`, given as vertex
    pairs.  Its neighbour masks are built once and read in ascending
    order, so the paths are those found on the `restrict` copy, mapped back.
    """
    within = _within(g, within)
    ends = [v for pair in pairs for v in pair]
    if len(set(ends)) != len(ends):
        raise ValueError("pair endpoints must be pairwise distinct")
    for v in ends:
        if v not in within:
            raise ValueError(f"endpoint {v} outside the vertex set")
    if not pairs:
        return []
    keep = within.mask
    adj = [a & keep if keep >> v & 1 else 0 for v, a in enumerate(g._adj_bits)]
    for u, v in drop:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    rng = random.Random(seed)
    t = len(pairs)
    end_mask = mask_of(ends)
    for _ in range(_LINKAGE_RETRIES):
        order = list(range(t))
        rng.shuffle(order)
        used = 0
        routed: dict[int, list[int]] = {}
        ok = True
        for i in order:
            a, b = pairs[i]
            # Block other pairs' endpoints and everything already used.
            blocked = (used | end_mask) & ~(1 << a) & ~(1 << b)
            path = bfs_path(g, a, b, VertexSet(g.n, blocked), rng, adj)
            if path is None:
                ok = False
                break
            for v in path:
                used |= 1 << v
            routed[i] = path
        if ok:
            out = [routed[i] for i in range(t)]
            _verify_disjoint(adj, pairs, out)
            return out
    return None


def _verify_disjoint(adj: list[int], pairs, paths) -> None:
    seen: set[int] = set()
    for (a, b), p in zip(pairs, paths):
        if p[0] != a or p[-1] != b:
            raise RuntimeError("path endpoints drifted")
        if len(set(p)) != len(p):
            raise RuntimeError("path revisits a vertex")
        for u, v in zip(p, p[1:]):
            if not adj[u] >> v & 1:
                raise RuntimeError("path uses a non-edge")
        for v in p:
            if v in seen:
                raise RuntimeError("paths overlap")
        seen |= set(p)


def _split_windows(g: Graph, y: VertexSet) -> list[tuple[int, int, int]]:
    """(N(v) & Y, lo, hi) for each v with d = deg(v, Y) >= 1, narrowest first.

    Both floors of `lll_split` hold at v exactly when lo <= deg(v, A) <= hi,
    with a = |Y| // 2, b = |Y| - a, lo = ceil(a d / 3|Y|) and
    hi = d - ceil(b d / 3|Y|).  Raises ValueError when |Y| < 2 or Y is
    over another universe.
    """
    size_y = len(_within(g, y))
    if size_y < 2:
        raise ValueError("a split needs |Y| >= 2")
    a = size_y // 2
    b = size_y - a
    windows = []
    for adj in g._adj_bits:
        ny = adj & y.mask
        if ny:
            d = ny.bit_count()
            windows.append((ny, -(-a * d // (3 * size_y)), d + (-b * d // (3 * size_y))))
    windows.sort(key=lambda w: w[2] - w[1])
    return windows


def split_feasible(g: Graph, y: VertexSet) -> bool:
    """Whether whole degrees can meet both floors of `lll_split` at every vertex.

    That is, whether every window of `_split_windows` is non-empty.
    """
    return all(lo <= hi for _, lo, hi in _split_windows(g, y))


def lll_split(
    g: Graph,
    y: VertexSet,
    retries: int = 10_000,
    seed: int = 0,
) -> tuple[VertexSet, VertexSet] | None:
    """Random split of Y into halves A, B with per-vertex degree floors.

    With a = |A| = |Y| // 2 and b = |B|, uniform a-subsets are resampled
    until every vertex v satisfies 3|Y| deg(v, A) >= a deg(v, Y) and
    3|Y| deg(v, B) >= b deg(v, Y) (checked in exact integer arithmetic),
    or retries run out, in which case None is returned.  The floors are
    not always satisfiable: A and B split deg(v, Y) = d into whole
    degrees, so v needs ceil(a d / 3|Y|) + ceil(b d / 3|Y|) <= d, which
    fails exactly when d = 1.  Such a Y (see `split_feasible`) returns
    None before any draw.  The floors become one window for deg(v, A) per
    vertex, computed once, and each draw tests the narrowest windows first.
    """
    windows = _split_windows(g, y)
    if not all(lo <= hi for _, lo, hi in windows):
        return None
    members = y.to_list()
    a = len(members) // 2
    rng = random.Random(seed)
    for _ in range(max(1, retries)):
        a_mask = mask_of(rng.sample(members, a))
        for ny, lo, hi in windows:
            if not lo <= (ny & a_mask).bit_count() <= hi:
                break
        else:
            return VertexSet(g.n, a_mask), VertexSet(g.n, y.mask & ~a_mask)
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

    if not s_small:
        p = rotation_extension_path(g, x, y, budget=_CLOSING_BUDGET,
                                    seed=derive_seed(seed, "close"), within=s_vertices)
        if p is None:
            return ProtectedPathResult(None, "closing")
        return ProtectedPathResult(tuple(p))  # verified inside S by the search

    rng = random.Random(derive_seed(seed, "escort"))
    t = len(s_small)
    escorts = _pick_escorts(g, s_small, small_set, s_mask, x, y, rng)
    if escorts is None:
        return ProtectedPathResult(None, "escort")
    xs, ys = escorts

    u_mask = mask_of(itertools.chain(s_small, xs, ys))
    y_rest = VertexSet(g.n, s_mask & ~u_mask)
    if len(y_rest) < 2:
        return ProtectedPathResult(None, "split")
    halves = lll_split(g, y_rest, retries=_SPLIT_RETRIES, seed=derive_seed(seed, "split"))
    if halves is None:
        return ProtectedPathResult(None, "split")
    s1, s2 = halves

    # Connector pairs: (y_t, y), then (x_i, y_{i-1}) for i = 2..t.
    link_pairs = [(ys[t - 1], y)] + [(xs[i], ys[i - 1]) for i in range(1, t)]
    ends = mask_of(itertools.chain(*link_pairs))
    hub = (s1.mask | ends) & ~(1 << x) & ~(1 << xs[0])
    if ends & ~hub:
        return ProtectedPathResult(None, "linkage")
    links = disjoint_pair_paths(g, link_pairs, seed=derive_seed(seed, "link"),
                                within=VertexSet(g.n, hub))
    if links is None:
        return ProtectedPathResult(None, "linkage")

    used = set(itertools.chain(s_small, *links))
    w_keep = VertexSet(g.n, s_mask & ~mask_of(used))
    if x not in w_keep or xs[0] not in w_keep:
        return ProtectedPathResult(None, "closing")
    closing = rotation_extension_path(g, x, xs[0], budget=_CLOSING_BUDGET,
                                      seed=derive_seed(seed, "close"), within=w_keep)
    if closing is None:
        return ProtectedPathResult(None, "closing")

    # Assemble x .. x_1, u_1, y_1, P_2 .. x_2, u_2, y_2, ..., y_t, P_1 .. y.
    # links[i] runs from the first vertex of link_pairs[i] to its second.
    full_path = list(closing)
    for i in range(t):
        full_path += [s_small[i], ys[i]]
        full_path.extend((links[i + 1][::-1] if i + 1 < t else links[0])[1:])
    verify_hamilton_path(g, full_path, x, y, s_vertices)
    return ProtectedPathResult(tuple(full_path))


def _pick_escorts(g, s_small, small_set, s_mask, x, y, rng):
    """Escorts xs[i], ys[i] of s_small[i], picked in a shuffled order after a failed pass."""
    t = len(s_small)
    xs, ys = [0] * t, [0] * t
    order = list(range(t))
    for _ in range(20):
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
            xs[i], ys[i] = rng.sample(picks, 2)
            taken |= 1 << xs[i] | 1 << ys[i]
        if ok:
            return xs, ys
        rng.shuffle(order)
    return None
