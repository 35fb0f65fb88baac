"""Independent re-verification of what the package returns.

This is the benchmark's own bit-level code. It uses none of the package's
verifiers, edge-vector helpers or GF(2) routines: it reads only a graph's
vertex count and edge pairs, and the vertex orders and bit masks the
package reports. Edge ids follow the documented canon: the rank of the
pair (u, v), u < v, in lexicographic order. A failed check raises
VerificationError, and the benchmark then exits non-zero.
"""

from __future__ import annotations

SPANNED = frozenset({"SpannedExact", "SpannedConfirmed", "TriviallySpanned"})


class VerificationError(Exception):
    """An output of the package failed independent re-verification."""


def parity(a: int, b: int) -> int:
    """GF(2) pairing of two edge masks: |a & b| mod 2."""
    return (a & b).bit_count() & 1


def gf2_rank(masks) -> int:
    """Rank over GF(2), eliminating on the highest set bit."""
    rows: dict[int, int] = {}
    for x in masks:
        while x:
            top = x.bit_length() - 1
            row = rows.get(top)
            if row is None:
                rows[top] = x
                break
            x ^= row
    return len(rows)


class GraphFacts:
    """Edge ids, stars, components and fundamental cycles of one graph."""

    def __init__(self, n: int, pairs):
        edges = sorted((min(u, v), max(u, v)) for u, v in pairs)
        for k, (u, v) in enumerate(edges):
            if u == v or u < 0 or v >= n:
                raise VerificationError(f"invalid edge ({u}, {v}) for n={n}")
            if k and edges[k - 1] == (u, v):
                raise VerificationError(f"duplicate edge ({u}, {v})")
        self.n = n
        self.m = len(edges)
        self.eid = {e: i for i, e in enumerate(edges)}
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.star = [0] * n
        for i, (u, v) in enumerate(edges):
            self.adj[u].append(v)
            self.adj[v].append(u)
            self.star[u] |= 1 << i
            self.star[v] |= 1 << i
        self.components, self.fundamental, self.bipartite = self._bfs_forest(edges)
        self.dim = self.m - n + self.components

    def _bfs_forest(self, edges):
        n = self.n
        parent = [-1] * n
        up_edge = [-1] * n
        depth = [-1] * n
        components = 0
        bipartite = True
        for root in range(n):
            if depth[root] >= 0:
                continue
            components += 1
            depth[root] = 0
            queue = [root]
            for u in queue:
                for w in self.adj[u]:
                    if depth[w] < 0:
                        depth[w] = depth[u] + 1
                        parent[w] = u
                        up_edge[w] = self.eid[(min(u, w), max(u, w))]
                        queue.append(w)
                    elif depth[w] == depth[u]:
                        bipartite = False
        tree = {e for e in up_edge if e >= 0}
        cycles = []
        for i, (u, v) in enumerate(edges):
            if i in tree:
                continue
            mask = 1 << i
            while u != v:
                if depth[u] < depth[v]:
                    u, v = v, u
                mask ^= 1 << up_edge[u]
                u = parent[u]
            cycles.append(mask)
        return components, cycles, bipartite

    def hamilton_mask(self, order) -> int:
        """Edge mask of a Hamilton cycle given by its vertex order."""
        if len(order) != self.n or set(order) != set(range(self.n)):
            raise VerificationError("cycle does not visit every vertex exactly once")
        mask = 0
        for u, v in zip(order, order[1:] + order[:1]):
            eid = self.eid.get((min(u, v), max(u, v)))
            if eid is None:
                raise VerificationError(f"cycle uses non-edge ({u}, {v})")
            mask |= 1 << eid
        return mask

    def check_edge_mask(self, mask: int, what: str) -> None:
        if mask < 0 or mask >> self.m:
            raise VerificationError(f"{what} has bits outside the {self.m} edges")

    def odd_with_some_cycle(self, mask: int) -> bool:
        return any(parity(mask, z) for z in self.fundamental)


def facts_of(g) -> GraphFacts:
    return GraphFacts(g.n, g.edges)


def certificate_masks(facts: GraphFacts, cycles) -> list[int]:
    """Masks of certificate cycles, each checked Hamiltonian and matching its vector."""
    masks = []
    for hc in cycles:
        mask = facts.hamilton_mask(list(hc.order))
        if mask != hc.vector.bits:
            raise VerificationError("cycle vector does not match its vertex order")
        masks.append(mask)
    return masks


def check_verdict(facts: GraphFacts, verdict, allowed: frozenset) -> list[int]:
    """Check a spanning verdict's kind, rank, dim and certificate; return its masks."""
    kind = verdict.kind.value
    if kind not in allowed:
        raise VerificationError(f"unexpected verdict {kind}")
    if verdict.dim_cycle_space != facts.dim:
        raise VerificationError(
            f"dim {verdict.dim_cycle_space} != m - n + c = {facts.dim}")
    masks = certificate_masks(facts, verdict.certificate)
    rank = gf2_rank(masks)
    if rank != verdict.rank_reached:
        raise VerificationError(f"certificate rank {rank} != rank_reached {verdict.rank_reached}")
    if kind in SPANNED and rank != facts.dim:
        raise VerificationError(f"{kind} with certificate rank {rank} < dim {facts.dim}")
    if rank > facts.dim:
        raise VerificationError("certificate rank exceeds the cycle-space dimension")
    return masks


def check_witness(facts: GraphFacts, masks: list[int], witness: int, what: str) -> None:
    """Even with every certificate cycle, odd with some cycle of the graph."""
    facts.check_edge_mask(witness, what)
    if any(parity(witness, z) for z in masks):
        raise VerificationError(f"{what} pairs oddly with a certificate cycle")
    if not facts.odd_with_some_cycle(witness):
        raise VerificationError(f"{what} pairs evenly with every cycle")


def check_normalized(facts: GraphFacts, masks: list[int], witness: int, normal: int) -> None:
    """Same pairings as the witness, and at least half degree at every vertex."""
    check_witness(facts, masks, normal, "normalized witness")
    if facts.odd_with_some_cycle(witness ^ normal):
        raise VerificationError("normalization changed a pairing with a cycle")
    for v in range(facts.n):
        if 2 * (facts.star[v] & normal).bit_count() < facts.star[v].bit_count():
            raise VerificationError(f"normalized witness below half degree at {v}")


def check_refutation(facts: GraphFacts, witness: int, cycle) -> None:
    """A refutation cycle is Hamiltonian and has odd overlap with its witness."""
    facts.check_edge_mask(witness, "witness")
    mask = certificate_masks(facts, [cycle])[0]
    if not parity(mask, witness):
        raise VerificationError("refutation cycle has even witness overlap")
