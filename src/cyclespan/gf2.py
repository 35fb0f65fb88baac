"""GF(2) linear algebra over edge-indexed bit vectors.

Vectors are dense bit masks over a graph's edge ids (bit e <-> edge e).
The pairing <a, b> = |a & b| mod 2 is the standard dot product; under it
the cycle space and the cut space of a graph are orthogonal complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, bfs_forest, iter_bits


@dataclass(frozen=True)
class EdgeVector:
    """GF(2) vector over the edge ids of a host graph with m edges."""

    bits: int
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative universe size")
        if self.bits < 0 or self.bits >> self.m:
            raise ValueError("edge id out of range for this universe")

    @classmethod
    def zero(cls, m: int) -> "EdgeVector":
        return cls(0, m)

    @classmethod
    def full(cls, m: int) -> "EdgeVector":
        return cls((1 << m) - 1, m)

    @classmethod
    def from_edge_ids(cls, m: int, ids: Iterable[int]) -> "EdgeVector":
        bits = 0
        for e in ids:
            if not 0 <= e < m:
                raise ValueError(f"edge id {e} out of range for m={m}")
            bits |= 1 << e
        return cls(bits, m)

    @classmethod
    def from_pairs(cls, g: Graph, pairs: Iterable[tuple[int, int]]) -> "EdgeVector":
        return cls.from_edge_ids(g.m, (g.edge_id(u, v) for u, v in pairs))

    @classmethod
    def from_vertex_path(cls, g: Graph, path: Sequence[int], closed: bool = False) -> "EdgeVector":
        """Edge set of a vertex walk; closed=True also takes the wrap edge.

        Step uv adds star(u) & star(v): in a simple graph the bit of edge
        uv, or 0 for a non-edge.  A non-edge, a repeated consecutive vertex
        or a vertex out of range raises ValueError.
        """
        if path and (min(path) < 0 or max(path) >= g.n):
            raise ValueError("vertex out of range")
        walk = [*path, path[0]] if closed and len(path) > 1 else path
        star, bits = g._star_bits, 0
        for u, v in zip(walk, walk[1:]):
            e = star[u] & star[v]
            if not e or u == v:
                raise ValueError(f"no edge ({u}, {v})")
            bits ^= e
        return cls(bits, g.m)

    def _check(self, other: "EdgeVector") -> None:
        if self.m != other.m:
            raise ValueError("edge vectors over different universes")

    def __xor__(self, other: "EdgeVector") -> "EdgeVector":
        self._check(other)
        return EdgeVector(self.bits ^ other.bits, self.m)

    def __contains__(self, eid: int) -> bool:
        return 0 <= eid < self.m and self.bits >> eid & 1 == 1

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def to_hex(self) -> str:
        """Hex form of the bit mask, least significant byte first.

        The first hex pair encodes edges 0..7 (edge 0 at the low bit), so
        higher edge ids appear later in the string.  Used in witness
        certificates.
        """
        nbytes = (self.m + 7) // 8
        return self.bits.to_bytes(nbytes, "little").hex()

    @classmethod
    def from_hex(cls, text: str, m: int) -> "EdgeVector":
        nbytes = (m + 7) // 8
        raw = bytes.fromhex(text)
        if len(raw) != nbytes:
            raise ValueError(f"hex length mismatch: got {len(raw)} bytes, want {nbytes}")
        bits = int.from_bytes(raw, "little")
        if bits >> m:
            raise ValueError("stray bits beyond the edge universe")
        return cls(bits, m)


def intersection_parity(a: EdgeVector, b: EdgeVector) -> int:
    """|a & b| mod 2: the GF(2) pairing of two edge sets."""
    a._check(b)
    return (a.bits & b.bits).bit_count() & 1


@dataclass(frozen=True)
class InsertOutcome:
    extended: bool
    residual: EdgeVector


class Gf2Basis:
    """Incremental collection of rows in echelon form over GF(2).

    A row's pivot is its highest set bit; `_rows` maps pivot -> row in
    insertion order and `_mask` holds the pivots.  Reduction XORs in the
    row of the highest pivot hit until no pivot is hit: that row clears
    its pivot and changes only lower bits, so the loop runs once per
    pivot hit.  Insertion order never changes the span, and `in_span` is
    a pure reduction to zero.
    """

    __slots__ = ("m", "_rows", "_mask")

    def __init__(self, m: int):
        self.m = m
        self._rows: dict[int, int] = {}
        self._mask = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[EdgeVector]:
        return [EdgeVector(r, self.m) for r in self._rows.values()]

    def _reduce(self, bits: int) -> int:
        rows, mask = self._rows, self._mask
        hit = bits & mask
        while hit:
            bits ^= rows[hit.bit_length() - 1]
            hit = bits & mask
        return bits

    def insert(self, v: EdgeVector) -> InsertOutcome:
        if v.m != self.m:
            raise ValueError("vector over wrong universe")
        residual = self._reduce(v.bits)
        if residual == 0:
            return InsertOutcome(False, EdgeVector.zero(self.m))
        pivot = residual.bit_length() - 1
        self._rows[pivot] = residual
        self._mask |= 1 << pivot
        return InsertOutcome(True, EdgeVector(residual, self.m))

    def in_span(self, v: EdgeVector) -> bool:
        if v.m != self.m:
            raise ValueError("vector over wrong universe")
        return self._reduce(v.bits) == 0


def cycle_space_basis(g: Graph) -> list[EdgeVector]:
    """Fundamental cycles over the BFS spanning forest of `bfs_forest`.

    The forest grows from the lowest-id vertex of each component with
    neighbors visited in ascending order, so the basis is reproducible.
    One vector per non-tree edge uv, in ascending edge id: the edge plus
    the tree path between its endpoints, which is always a simple cycle.
    That path is up[u] ^ up[v], because the shared part of the two root
    paths cancels; for a tree edge the sum is 0.  The result has exactly
    m - n + c vectors and spans the cycle space.
    """
    _, up = bfs_forest(g, 0)
    out = []
    for eid, (u, v) in enumerate(g.edges):
        bits = up[u] ^ up[v] ^ (1 << eid)
        if bits:
            out.append(EdgeVector(bits, g.m))
    return out


def cut_space_stars(g: Graph) -> list[EdgeVector]:
    """The n vertex stars; their XORs over A give every cut E(A, V-A)."""
    return [EdgeVector(g.star_bits(v), g.m) for v in range(g.n)]


def is_even_subgraph(g: Graph, v: EdgeVector) -> bool:
    """True iff every vertex has even degree in the subgraph v.

    This is the degree-parity notion characterizing cycle-space members;
    it is distinct from |v| being even, which is the support-size parity
    (exposed separately via EdgeVector.weight).
    """
    if v.m != g.m:
        raise ValueError("vector over wrong universe")
    return all((g.star_bits(u) & v.bits).bit_count() & 1 == 0 for u in range(g.n))


def orthocomplement_basis(vectors: Sequence[EdgeVector], m: int) -> list[EdgeVector]:
    """Basis of the orthocomplement of span(vectors) under the pairing.

    Standard nullspace construction: bring the row space to reduced
    echelon form, then emit one vector per free coordinate.
    """
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        if v.m != m:
            raise ValueError("vector over wrong universe")
        bits = v.bits
        for p, r in zip(pivots, rows):
            if bits >> p & 1:
                bits ^= r
        if bits == 0:
            continue
        p = (bits & -bits).bit_length() - 1
        for i, r in enumerate(rows):
            if r >> p & 1:
                rows[i] = r ^ bits
        rows.append(bits)
        pivots.append(p)
    # Rows are now fully reduced: each row is the unique one with a 1 at
    # its pivot, so ascending-pivot reduction above stays valid.
    pivot_set = set(pivots)
    out = []
    for j in range(m):
        if j in pivot_set:
            continue
        bits = 1 << j
        for p, r in zip(pivots, rows):
            if r >> j & 1:
                bits |= 1 << p
        out.append(EdgeVector(bits, m))
    return out
