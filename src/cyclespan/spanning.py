"""Hamilton cycle enumeration and the cycle-space spanning decision.

The central question: do the incidence vectors of a graph's Hamilton
cycles span its whole cycle space?  `decide_spanning_exact` answers it
without listing the cycles: a proven upper bound on the Hamilton rank
(parity obstruction plus witnesses proven so far), sampled Hamilton
cycles and their 2-opt neighbours for the lower bound, and a parity
subset DP that closes any gap between the two.  A 2-opt move turns a
Hamilton cycle into another that differs from it in a 4-cycle, so one
search brings several Hamilton vectors.  `confirm_spanning_sampled` is
the one-sided large-n surrogate: the same sampler, chaining each
Hamilton cycle into the next by Posa rotations.  When spanning fails,
`extract_witness` produces a dual certificate: an edge set meeting every
Hamilton cycle evenly but some cycle oddly.  `enumerate_hamilton_cycles`
lists every Hamilton cycle; tests use it as the reference.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import hamfinder
from .gf2 import (
    EdgeVector,
    Gf2Basis,
    cut_space_stars,
    cycle_space_basis,
    intersection_parity,
    orthocomplement_basis,
)
from .graph import Graph, edge_subgraph_adj, is_bipartite, is_edge_cut, iter_bits, \
    to_graph6
from .seeds import derive_seed


class VerdictKind(str, enum.Enum):
    SPANNED_EXACT = "SpannedExact"
    SPANNED_CONFIRMED = "SpannedConfirmed"
    NOT_SPANNED = "NotSpanned"
    TRIVIALLY_SPANNED = "TriviallySpanned"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class HamiltonCycle:
    """A Hamilton cycle in canonical form.

    The order starts at vertex 0 and runs toward the smaller of the two
    cycle-neighbors of 0, so structurally equal cycles compare equal.
    """

    order: tuple[int, ...]
    vector: EdgeVector

    @classmethod
    def from_order(cls, g: Graph, order: Sequence[int]) -> "HamiltonCycle":
        n = g.n
        if len(order) != n or len(set(order)) != n:
            raise ValueError("order must visit every vertex exactly once")
        seq = list(order)
        i0 = seq.index(0)
        seq = seq[i0:] + seq[:i0]
        if n > 2 and seq[1] > seq[-1]:
            seq = [seq[0]] + seq[:0:-1]
        # Raises ValueError on a non-edge.
        vec = EdgeVector.from_vertex_path(g, seq, closed=True)
        return cls(tuple(seq), vec)


@dataclass(frozen=True)
class WitnessR:
    """Dual witness: an edge set pairing evenly with all Hamilton cycles.

    `even_with_all_hamilton` and `odd_with_some_cycle` record what has
    actually been verified for this vector; `normalized` is set once the
    vector has been pushed to (at least) half degree at every vertex
    within its cut-space coset.
    """

    vector: EdgeVector
    even_with_all_hamilton: bool
    odd_with_some_cycle: bool
    normalized: bool

    @property
    def size(self) -> int:
        return self.vector.weight

    @classmethod
    def unverified(cls, vector: EdgeVector) -> "WitnessR":
        return cls(vector, False, False, False)


@dataclass(frozen=True)
class SpanVerdict:
    kind: VerdictKind
    rank_reached: int
    dim_cycle_space: int
    witness: WitnessR | None = None
    certificate: tuple[HamiltonCycle, ...] = ()

    def __post_init__(self):
        if self.kind in (VerdictKind.SPANNED_EXACT, VerdictKind.SPANNED_CONFIRMED):
            if self.rank_reached != self.dim_cycle_space:
                raise ValueError("spanned verdict requires full rank")
        if self.kind is VerdictKind.NOT_SPANNED and self.witness is None:
            raise ValueError("NotSpanned requires a witness")
        if self.kind is VerdictKind.TRIVIALLY_SPANNED and self.dim_cycle_space != 0:
            raise ValueError("TriviallySpanned requires dim 0")

    @property
    def spanned(self) -> bool | None:
        if self.kind in (VerdictKind.SPANNED_EXACT, VerdictKind.SPANNED_CONFIRMED,
                         VerdictKind.TRIVIALLY_SPANNED):
            return True
        if self.kind is VerdictKind.NOT_SPANNED:
            return False
        return None


def cycle_space_dim(g: Graph) -> int:
    return g.m - g.n + g.num_components()


def enumerate_hamilton_cycles(
    g: Graph,
    limit: int | None = None,
) -> Iterator[HamiltonCycle]:
    """Stream all Hamilton cycles of g in canonical form, without duplicates.

    Backtracking from vertex 0 with two sound prunings: every unvisited
    vertex must keep at least two usable neighbors (among the unvisited
    plus the current tip and vertex 0, which covers the forced-edge
    situation at degree-2 vertices), and the unvisited region plus the
    tip must stay connected.  `limit` stops after that many cycles.
    """
    n = g.n
    if n < 3 or limit == 0:
        return
    adj = [g.adj_bits(v) for v in range(n)]
    if any(a == 0 for a in adj):
        return
    full = (1 << n) - 1
    emitted = 0
    path = [0]
    visited = 1
    stack: list[Iterator[int]] = [iter(g.neighbors(0))]
    while stack:
        it = stack[-1]
        descended = False
        for w in it:
            if visited >> w & 1:
                continue
            if len(path) == n - 1:
                # w completes the path; need the closing edge and the
                # orientation canon second < last to emit each cycle once.
                if adj[w] & 1 and path[1] < w:
                    yield HamiltonCycle.from_order(g, path + [w])
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return
                continue
            nxt_visited = visited | 1 << w
            if not _completable(adj, full, nxt_visited, w):
                continue
            path.append(w)
            visited = nxt_visited
            stack.append(iter(g.neighbors(w)))
            descended = True
            break
        if not descended:
            stack.pop()
            if len(path) > len(stack):
                visited &= ~(1 << path.pop())


def _completable(adj: list[int], full: int, visited: int, tip: int) -> bool:
    rem = full & ~visited
    if rem == 0:
        return True
    if adj[0] & rem == 0:
        return False
    allowed = rem | (1 << tip) | 1
    for w in iter_bits(rem):
        if (adj[w] & allowed).bit_count() < 2:
            return False
    # The future path runs tip -> (all of rem) -> 0, so rem + tip must be
    # connected on its own.
    sub = rem | (1 << tip)
    frontier = 1 << tip
    seen = frontier
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & sub & ~seen
        seen |= frontier
    return seen == sub


# The exact decider samples with a fixed seed, so its verdicts repeat.
# Sampling has stalled once the steps since its last rank gain reach a
# DP's state count or this many per vertex, whichever is less: a few
# dozen attempts on threshold graphs.
_EXACT_SEED = 0
_STALL_STEPS_PER_VERTEX = 64
# Rotations a chain step makes before it may close.  Fewer leave the new
# cycle too close to the last one: with 3, threshold graphs needed
# hundreds of cycles beyond dim.
_CHAIN_MIN_ROTATIONS = 10
# Attempts in a row without a rank gain before a fresh draw through an
# edge that no cycle found so far uses, each such edge tried once.
# Cycles along a chain share most of their edges, so an edge that few
# Hamilton cycles use can stay out of every chain cycle until the budget
# runs out; a cycle through it lies outside the span of cycles that all
# avoid it.
_CHAIN_PATIENCE = 5
# First attempts that may all fail before confirm_spanning_sampled gives up.
_GIVE_UP_AFTER = 12
# Rotations that one draw or chain step of confirm_spanning_sampled may make.
_ROTATION_BUDGET = 30_000


def _cannot_be_hamiltonian(g: Graph) -> bool:
    """A vertex of degree below 2, or a disconnected graph, rules out Hamilton cycles."""
    return g.min_degree() < 2 or g.num_components() > 1


class _CycleSampler:
    """Seeded Hamilton cycles, eliminated into a basis.

    Attempt i derives s = derive_seed(seed, "sample", i).  A fresh draw
    asks rotation-extension for a Hamilton path between the ends of edge
    s mod m and closes it.  A chain step instead cuts the last cycle
    found at position s mod n and rotates it into a new one.  Cycles that
    raise the rank become the certificate; `counter` totals the search
    steps spent.
    """

    def __init__(self, g: Graph, seed: int):
        self.g = g
        self.seed = seed
        self.basis = Gf2Basis(g.m)
        self.certificate: list[HamiltonCycle] = []
        self.attempts = 0
        self.successes = 0
        self.counter = hamfinder.StepCounter()
        self.last: tuple[int, ...] | None = None  # last cycle found
        self.covered = 0  # edges of the cycles found or drawn through

    @property
    def rank(self) -> int:
        return self.basis.rank

    def draw(self, rotation_budget: int, edge: int | None = None) -> bool:
        """One attempt; True iff it found a cycle that raised the rank.

        The path closes through `edge` when given, which then counts as
        covered, else through a random edge."""
        g = self.g
        sub = derive_seed(self.seed, "sample", self.attempts)
        self.attempts += 1
        if edge is None:
            edge = sub % g.m
        else:
            self.covered |= 1 << edge
        x, y = g.edges[edge]
        path = hamfinder.rotation_extension_path(
            g, x, y, budget=rotation_budget, seed=derive_seed(sub, "rot"),
            counter=self.counter)
        return self._found(path)

    def chain(self, rotation_budget: int) -> bool:
        """One attempt from the last cycle; on failure the chain is dropped."""
        g = self.g
        sub = derive_seed(self.seed, "sample", self.attempts)
        self.attempts += 1
        order = hamfinder.rotate_cycle(
            g, self.last, sub % g.n, _CHAIN_MIN_ROTATIONS, rotation_budget,
            seed=derive_seed(sub, "chain"), counter=self.counter)
        return self._found(order)

    def uncovered_edge(self) -> int | None:
        """The lowest edge that is not covered, if any."""
        free = ~self.covered & ((1 << self.g.m) - 1)
        return (free & -free).bit_length() - 1 if free else None

    def _found(self, order: list[int] | None) -> bool:
        if order is None:
            self.last = None
            return False
        self.successes += 1
        hc = HamiltonCycle.from_order(self.g, order)
        self.last = hc.order
        self.covered |= hc.vector.bits
        return self.add(hc)

    def add(self, hc: HamiltonCycle) -> bool:
        if not self.basis.insert(hc.vector).extended:
            return False
        self.certificate.append(hc)
        return True

    def harvest(self, h: Sequence[int], budget: int, bound: int) -> bool:
        """Insert the 2-opt neighbours of the Hamilton cycle h; True iff the rank rose.

        Each move tried costs one step of `counter`; the harvest stops
        once the steps reach `budget` or the rank reaches `bound`.  The
        vector H xor (4-cycle) is built from star ANDs, and only a move
        that raises the rank pays for H' through `from_order`.  H' must
        carry exactly the inserted bits before it joins the certificate.
        """
        g, counter = self.g, self.counter
        star = [g.star_bits(v) for v in (*h, h[0])]  # star[k] is h_k's, k mod n
        bits = EdgeVector.from_vertex_path(g, h, closed=True).bits
        rank = self.rank
        for i, j in _two_opt_moves(g, h):
            if counter.steps >= budget or self.rank >= bound:
                break
            counter.steps += 1
            a, b, c, d = star[i], star[i + 1], star[j], star[j + 1]
            vec = EdgeVector(bits ^ (a & b) ^ (c & d) ^ (a & c) ^ (b & d), g.m)
            if not self.basis.insert(vec).extended:
                continue
            hc = HamiltonCycle.from_order(g, h[:i + 1] + h[j:i:-1] + h[j + 1:])
            if hc.vector != vec:
                raise RuntimeError("2-opt cycle does not match its inserted vector")
            self.certificate.append(hc)
        return self.rank > rank

    def verdict(self, kind: VerdictKind, dim: int,
                witness: WitnessR | None = None) -> SpanVerdict:
        return SpanVerdict(kind, self.rank, dim, witness=witness,
                           certificate=tuple(self.certificate))


def _two_opt_moves(g: Graph, h: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The 2-opt moves (i, j) of the Hamilton cycle h, in a fixed order.

    A move is a pair i < j whose cycle edges h_i h_{i+1} and h_j h_{j+1}
    (indices mod n) do not share a vertex, with h_i ~ h_j and
    h_{i+1} ~ h_{j+1}.  Swapping the two cycle edges for those two chords
    gives the Hamilton cycle h_0..h_i, h_j..h_{i+1}, h_{j+1}..h_{n-1}, and
    the symmetric difference of the two cycles is the 4-cycle
    h_i h_{i+1} h_{j+1} h_j.  The scan runs over i ascending, then over the
    neighbours c of h_i in ascending order with j the position of c: O(n
    times max degree).
    """
    n = len(h)
    pos = [0] * n
    for k, v in enumerate(h):
        pos[v] = k
    for i in range(n - 2):
        last = n - 2 if i == 0 else n - 1  # h_{n-1} h_0 shares h_0 with h_0 h_1
        after = g.adj_bits(h[i + 1])
        for c in g.neighbors(h[i]):
            j = pos[c]
            if i + 1 < j <= last and after >> h[(j + 1) % n] & 1:
                yield i, j


def decide_spanning_exact(g: Graph, budget: int = 10**8) -> SpanVerdict:
    """Exact spanning decision from a proven bound, samples and a parity DP.

    (a) Upper bound.  A witness proven so far is a vector pairing evenly
    with every Hamilton cycle, so the Hamilton rank is at most dim minus
    the rank of the witnesses modulo cuts.  For even n and non-bipartite
    G, E(G) is one: every Hamilton cycle has n edges.  A graph with a
    vertex of degree below 2, or disconnected, has no Hamilton cycle, so
    its bound is 0.
    (b) Sampling.  Verified rotation-extension Hamilton cycles are
    eliminated into a basis until its rank meets the bound, or until the
    steps spent since the last rank gain reach the smaller of a DP's cost
    and 64 per vertex.
    (c) Closing the gap.  While rank < bound, a vector R orthogonal to the
    basis rows but outside the proven witnesses plus cuts goes to a
    subset DP over (visited set, endpoint, R-parity) of Hamilton paths
    from vertex 0.  It rebuilds a Hamilton cycle meeting R oddly, which
    raises the rank, or proves R a witness, which lowers the bound.
    Harvest.  Every Hamilton cycle that (b) draws or (c) rebuilds, whether
    or not it raised the rank, also has its 2-opt moves (`_two_opt_moves`)
    inserted, until the rank meets the bound; a move that raises the
    rank adds its verified cycle to the certificate.

    Rank equal to the bound is exact: SpannedExact when it is dim,
    otherwise NotSpanned with a witness taken from the orthocomplement of
    the certificate and re-verified against it.  `budget` counts steps:
    each extension or rotation is one, each 2-opt move tried is one, each
    DP state is one, and a DP has 2^(n-1) * n * 2 states.  When the next
    DP does not fit in what is left, the verdict is Inconclusive, never a
    wrong one.
    """
    dim = cycle_space_dim(g)
    if dim == 0:
        return SpanVerdict(VerdictKind.TRIVIALLY_SPANNED, 0, 0)
    n, m = g.n, g.m
    proven = Gf2Basis(m)  # cuts plus the witnesses proven so far
    for star in cut_space_stars(g):
        proven.insert(star)
    bound = dim
    if n % 2 == 0 and not is_bipartite(g):
        proven.insert(EdgeVector.full(m))
        bound -= 1
    if _cannot_be_hamiltonian(g):
        bound = 0
    sampler = _CycleSampler(g, _EXACT_SEED)
    counter = sampler.counter
    dp_states = (1 << (n - 1)) * n * 2
    patience = min(dp_states, _STALL_STEPS_PER_VERTEX * n)
    idle = 0
    while sampler.rank < bound and idle < patience and counter.steps < budget:
        before = counter.steps
        gained = sampler.draw(min(patience - idle, budget - before))
        if sampler.last is not None and sampler.harvest(sampler.last, budget, bound):
            gained = True
        idle = 0 if gained else idle + counter.steps - before
    while sampler.rank < bound:
        if dp_states > budget - counter.steps:
            return sampler.verdict(VerdictKind.INCONCLUSIVE, dim)
        counter.steps += dp_states
        r = next(v for v in orthocomplement_basis(sampler.basis.rows(), m)
                 if not proven.in_span(v))
        hamiltonian, order = _odd_hamilton_cycle(g, r.bits)
        if order is not None:
            hc = HamiltonCycle.from_order(g, order)
            if intersection_parity(hc.vector, r) != 1 or not sampler.add(hc):
                raise RuntimeError("parity DP cycle does not meet R oddly")
            sampler.harvest(hc.order, budget, bound)
        elif not hamiltonian:
            if sampler.rank:
                raise RuntimeError("parity DP found no Hamilton cycle after sampling one")
            bound = 0
        else:
            proven.insert(r)
            bound -= 1
    if bound == dim:
        return sampler.verdict(VerdictKind.SPANNED_EXACT, dim)
    witness = extract_witness(g, sampler.certificate)
    if witness is None:
        raise RuntimeError("rank below dimension but no witness found")
    return sampler.verdict(VerdictKind.NOT_SPANNED, dim, witness)


def _odd_hamilton_cycle(g: Graph, r_bits: int) -> tuple[bool, list[int] | None]:
    """Whether g is Hamiltonian, and a Hamilton cycle meeting R oddly.

    Subset DP over Hamilton paths from vertex 0.  Table index s is the
    visited set minus vertex 0, as a mask over vertices 1..n-1 (bit v-1
    for vertex v); tables[p][s] is the mask of endpoints v reachable by a
    path from 0 through exactly {0} + s with R-parity p.  Sets are filled
    in order of size, one vectorized step per (size, last vertex).  The
    tables take 2 * itemsize bytes per set, under one byte per state.
    The cycle comes back as a vertex order starting at 0, or None when
    every Hamilton cycle meets R evenly.  A graph on fewer than 3
    vertices has no Hamilton cycle.
    """
    n = g.n
    if n < 3:
        return False, None
    odd_nbrs = edge_subgraph_adj(g, r_bits)  # neighbors joined by an edge of R
    even_nbrs = [g.adj_bits(v) & ~odd_nbrs[v] for v in range(n)]
    size = 1 << (n - 1)
    dtype = np.min_scalar_type((1 << n) - 1)
    tables = (np.zeros(size, dtype), np.zeros(size, dtype))
    tables[0][0] = 1  # the one-vertex path [0]
    popcount = np.zeros(size, np.uint8)
    for b in range(n - 1):
        popcount[1 << b:2 << b] = popcount[:1 << b] + 1
    for k in range(1, n):
        layer = np.flatnonzero(popcount == k)
        for v in range(1, n):
            bit = 1 << (v - 1)
            sets = layer[(layer & bit) != 0]
            even, odd = tables[0][sets ^ bit], tables[1][sets ^ bit]
            keep, flip = dtype.type(even_nbrs[v]), dtype.type(odd_nbrs[v])
            end = dtype.type(1 << v)
            tables[0][sets[((even & keep) | (odd & flip)) != 0]] |= end
            tables[1][sets[((odd & keep) | (even & flip)) != 0]] |= end
    full = size - 1
    ends = (int(tables[0][full]), int(tables[1][full]))
    # Closing v -> 0 flips the parity when (v, 0) is in R.
    closing = (ends[0] & odd_nbrs[0]) | (ends[1] & even_nbrs[0])
    if not closing:
        return bool((ends[0] | ends[1]) & g.adj_bits(0)), None
    v = (closing & -closing).bit_length() - 1
    p = 1 ^ (odd_nbrs[0] >> v & 1)
    order = [v]
    s = full
    while s:
        s ^= 1 << (v - 1)
        for u in iter_bits(g.adj_bits(v)):
            q = p ^ (odd_nbrs[v] >> u & 1)
            if int(tables[q][s]) >> u & 1:
                v, p = u, q
                break
        else:
            raise RuntimeError("parity DP tables lost a path")
        order.append(v)
    return True, order[::-1]


def confirm_spanning_sampled(
    g: Graph,
    budget: int,
    seed: int,
) -> SpanVerdict:
    """One-sided spanning confirmation by sampled Hamilton cycles.

    The first attempt picks a seed-derived random edge (x, y), searches
    for a Hamilton path from x to y by rotation-extension, and closes it
    into a cycle.  Each later attempt is a chain step: it cuts the last
    cycle at a seed-derived position, makes at least
    `_CHAIN_MIN_ROTATIONS` Posa rotations with one end fixed, and closes
    the path once its tip sees that end.  A chain step that uses up
    `_ROTATION_BUDGET` rotations drops the chain, and the next attempt is
    a fresh draw again.  After `_CHAIN_PATIENCE` attempts in a row
    without a rank gain, the attempt is instead a fresh draw closing
    through the lowest edge that no cycle found so far uses, if any; each
    edge gets one such draw.  Every cycle is verified before it is
    inserted.  One attempt is one try at one cycle.

    SpannedConfirmed as soon as the sampled vectors reach full
    cycle-space rank; Inconclusive when the attempt budget runs out, when
    the first `_GIVE_UP_AFTER` attempts all fail to produce any cycle (a
    strong sign the graph is not Hamiltonian), or at once, with no
    attempt, when a vertex has degree below 2 or g is disconnected.
    Never returns NotSpanned.
    """
    dim = cycle_space_dim(g)
    if dim == 0:
        return SpanVerdict(VerdictKind.TRIVIALLY_SPANNED, 0, 0)
    if _cannot_be_hamiltonian(g):
        return SpanVerdict(VerdictKind.INCONCLUSIVE, 0, dim)
    sampler = _CycleSampler(g, seed)
    stale = 0  # attempts since the last rank gain
    while sampler.attempts < budget and sampler.rank < dim:
        if sampler.last is None:
            gained = sampler.draw(_ROTATION_BUDGET)
        elif stale >= _CHAIN_PATIENCE and (edge := sampler.uncovered_edge()) is not None:
            gained = sampler.draw(_ROTATION_BUDGET, edge)
        else:
            gained = sampler.chain(_ROTATION_BUDGET)
        stale = 0 if gained else stale + 1
        if sampler.successes == 0 and sampler.attempts >= _GIVE_UP_AFTER:
            break
    if sampler.rank == dim:
        return sampler.verdict(VerdictKind.SPANNED_CONFIRMED, dim)
    return sampler.verdict(VerdictKind.INCONCLUSIVE, dim)


def extract_witness(g: Graph, hamiltons: Sequence[HamiltonCycle]) -> WitnessR | None:
    """Search the orthocomplement of the Hamilton span for a witness.

    A witness pairs evenly with every Hamilton vector (it lives in the
    kernel) and oddly with some cycle.  `hamiltons` may be any set of
    Hamilton cycles that spans the Hamilton span, such as a full-rank
    certificate; the kernel depends only on that span.  Candidates are
    the kernel basis vectors in increasing support order.  The kernel is
    their span, so if none pairs oddly with a fundamental cycle, none of
    their sums does either: a None return means spanning holds.
    """
    m = g.m
    fundamentals = cycle_space_basis(g)
    if not fundamentals:
        return None
    kernel = orthocomplement_basis([hc.vector for hc in hamiltons], m)
    for vec in sorted(kernel, key=lambda v: (v.weight, v.bits)):
        if any(intersection_parity(vec, z) for z in fundamentals):
            # Kernel membership guarantees even pairing with every
            # Hamilton vector; re-verify rather than trust the algebra.
            if any(intersection_parity(vec, hc.vector) for hc in hamiltons):
                raise RuntimeError("kernel vector pairs oddly with a Hamilton cycle")
            return WitnessR(vec, True, True, False)
    return None


def normalize_witness(g: Graph, r: WitnessR, mode: str = "hillclimb") -> WitnessR:
    """Push a witness to a large representative of its cut-space coset.

    XORing any cut never changes pairings with cycle-space vectors, so
    both modes preserve the witness property.

    hillclimb: while some vertex v has deg_R(v) < deg_G(v)/2, flip its
    star.  Each flip grows |R| by deg_G(v) - 2 deg_R(v) >= 1, so the
    loop ends after at most m flips; at the fixpoint every vertex has at
    least half its degree inside R.

    exact (n <= 24): per connected component, sweep all 2^(s-1) coset
    elements and keep the support maximizer, the first in Gray-code
    order.  The maximizer satisfies e_R(A, B) >= e_G(A, B)/2 for every
    partition, since flipping a violated cut would enlarge it.
    """
    if mode == "hillclimb":
        bits, _ = _hillclimb(g, r.vector.bits)
        return dataclasses.replace(r, vector=EdgeVector(bits, g.m), normalized=True)
    if mode == "exact":
        if g.n > 24:
            raise ValueError("exact normalization is limited to n <= 24")
        bits = r.vector.bits
        for comp in g.components():
            members = comp.to_list()
            if len(members) > 1:  # anchor the first member
                bits = _coset_maximizer(bits, [g.star_bits(v) for v in members[1:]],
                                        (g.m + 7) // 8)
        return dataclasses.replace(r, vector=EdgeVector(bits, g.m), normalized=True)
    raise ValueError(f"unknown mode {mode!r}")


_SWEEP_BLOCK_BITS = 12  # a sweep block holds 2**_SWEEP_BLOCK_BITS coset elements
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def _coset_maximizer(bits: int, stars: list[int], nbytes: int) -> int:
    """Heaviest element of bits + span(stars), the first in Gray order.

    Element i of the sweep flips the stars named by the Gray code
    i ^ (i >> 1).  Its low bits select rows of a table over the low
    stars, built by reflection so that row l holds the flips of the
    Gray code of l; the high bits select a block and are XORed in once.
    Inside block h the Gray code's low part is that of l with the top
    low star also flipped when h is odd.  Each row is a little-endian
    byte string weighed through an 8-bit popcount table.
    """
    def row(x: int) -> np.ndarray:
        return np.frombuffer(x.to_bytes(nbytes, "little"), np.uint8)

    low = min(len(stars), _SWEEP_BLOCK_BITS)
    table = np.zeros((1 << low, nbytes), np.uint8)
    for j in range(low):
        table[1 << j:2 << j] = table[(1 << j) - 1::-1] ^ row(stars[j])
    best, best_w = bits, -1
    for h in range(1 << (len(stars) - low)):
        high = bits
        for j in iter_bits(h ^ (h >> 1)):
            high ^= stars[low + j]
        if h & 1:
            high ^= stars[low - 1]
        block = table ^ row(high)
        weights = _POPCOUNT8[block].sum(axis=1)
        i = int(weights.argmax())
        if weights[i] > best_w:  # strict: an earlier block keeps a tie
            best_w = int(weights[i])
            best = int.from_bytes(block[i].tobytes(), "little")
    return best


def _hillclimb(g: Graph, bits: int) -> tuple[int, int]:
    flips = 0
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            star = g.star_bits(v)
            if 2 * (star & bits).bit_count() < star.bit_count():
                bits ^= star
                flips += 1
                changed = True
    return bits, flips


def hillclimb_flip_count(g: Graph, r: WitnessR) -> int:
    """Number of star flips the hillclimb performs on r (for auditing)."""
    return _hillclimb(g, r.vector.bits)[1]


def is_bipartition_form(g: Graph, r: EdgeVector) -> bool:
    """True iff r = E_G(A, B) for some partition V = A + B.

    Grows the BFS forest whose sides split exactly the r-edges
    (`graph.is_edge_cut`): every r-edge demands different sides and
    every other G-edge equal ones.  It stops at the first edge that
    contradicts the sides, and a final pass re-checks every edge.
    """
    if r.m != g.m:
        raise ValueError("vector over wrong universe")
    return is_edge_cut(g, r.bits)


def witness_certificate(g: Graph, verdict: SpanVerdict) -> str:
    """Structured JSON record for a spanning verdict and its witness."""
    doc: dict = {
        "graph6": to_graph6(g),
        "verdict": verdict.kind.value,
        "rank": verdict.rank_reached,
        "dim": verdict.dim_cycle_space,
        "certificate_cycles": [list(hc.order) for hc in verdict.certificate],
    }
    if verdict.witness is not None:
        w = verdict.witness
        doc["witness_hex"] = w.vector.to_hex()
        doc["witness_edges"] = [list(g.pair_of(e)) for e in w.vector.support()]
        doc["even_with_all_hamilton"] = w.even_with_all_hamilton
        doc["odd_with_some_cycle"] = w.odd_with_some_cycle
        doc["normalized"] = w.normalized
        doc["size"] = w.size
        doc["bipartition_form"] = is_bipartition_form(g, w.vector)
    return json.dumps(doc, indent=2, sort_keys=True)
