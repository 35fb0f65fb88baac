import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclespan.gf2 import (
    EdgeVector,
    Gf2Basis,
    cut_space_stars,
    cycle_space_basis,
    intersection_parity,
    is_even_subgraph,
    orthocomplement_basis,
)
from cyclespan.graph import Graph, from_edge_list

from util import batch_gf2_rank, edge_id_vertex_path, graph_from_mask, random_graph


K4 = Graph.complete(4)
K4_HAMS = [
    EdgeVector.from_pairs(K4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    EdgeVector.from_pairs(K4, [(0, 1), (1, 3), (2, 3), (0, 2)]),
    EdgeVector.from_pairs(K4, [(0, 2), (1, 2), (1, 3), (0, 3)]),
]


class TestEdgeVector:
    def test_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeVector.from_edge_ids(3, [3])

    def test_xor_and_support(self):
        a = EdgeVector.from_edge_ids(5, [0, 2])
        b = EdgeVector.from_edge_ids(5, [2, 4])
        assert (a ^ b).support() == (0, 4)

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            EdgeVector.from_edge_ids(3, [0]) ^ EdgeVector.from_edge_ids(4, [0])

    def test_hex_roundtrip_examples(self):
        v = EdgeVector.from_edge_ids(12, [0, 8, 11])
        assert EdgeVector.from_hex(v.to_hex(), 12) == v
        # edge 0 sits in the first hex pair (low bit first).
        assert v.to_hex()[:2] == "01"

    def test_hex_validation(self):
        with pytest.raises(ValueError):
            EdgeVector.from_hex("ff", 12)  # wrong byte count
        with pytest.raises(ValueError):
            EdgeVector.from_hex("00f0", 12)  # bits beyond m


class TestFromVertexPath:
    def test_repeated_consecutive_vertex_raises(self):
        # star(1) & star(1) is the whole star, not an edge.
        with pytest.raises(ValueError):
            EdgeVector.from_vertex_path(K4, [0, 1, 1, 2])

    def test_inner_non_edge_raises(self):
        with pytest.raises(ValueError):
            EdgeVector.from_vertex_path(Graph.cycle(5), [0, 1, 3, 4])

    def test_closing_non_edge_raises(self):
        path = [0, 1, 2, 3]
        assert EdgeVector.from_vertex_path(Graph.path(4), path).weight == 3
        with pytest.raises(ValueError):
            EdgeVector.from_vertex_path(Graph.path(4), path, closed=True)

    def test_vertex_out_of_range_raises(self):
        # A negative id must not wrap around to vertex n - 1.
        for path in ([0, 1, 2, -1], [0, 1, 2, 4]):
            with pytest.raises(ValueError):
                EdgeVector.from_vertex_path(Graph.complete(4), path, closed=True)

    def test_matches_edge_id_reference(self):
        rng = random.Random(44)
        for _ in range(60):
            n = rng.randint(5, 60)
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
            walk = [rng.randrange(n)]
            for _ in range(rng.randint(1, 2 * n)):
                if not g.neighbors(walk[-1]):
                    break
                walk.append(rng.choice(g.neighbors(walk[-1])))
            closing = [i for i in range(2, len(walk)) if g.has_edge(walk[i], walk[0])]
            cases = [(walk, False), (walk[:closing[-1] + 1] if closing else walk, True),
                     ([rng.randrange(n) for _ in range(rng.randint(1, n))], False),
                     ([rng.randrange(n) for _ in range(rng.randint(1, n))], True)]
            for path, closed in cases:
                try:
                    want = edge_id_vertex_path(g, path, closed)
                except ValueError:
                    with pytest.raises(ValueError):
                        EdgeVector.from_vertex_path(g, path, closed)
                    continue
                assert EdgeVector.from_vertex_path(g, path, closed).bits == want


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0))
def test_hex_roundtrip_property(m, bits):
    v = EdgeVector(bits % (1 << m) if m else 0, m)
    assert EdgeVector.from_hex(v.to_hex(), m) == v


class TestIntersectionParity:
    def test_single_shared_edge(self):
        g = Graph.path(4)
        a = EdgeVector.from_pairs(g, [(0, 1), (1, 2)])
        b = EdgeVector.from_pairs(g, [(1, 2), (2, 3)])
        assert intersection_parity(a, b) == 1

    def test_self_pairing_is_support_parity(self):
        v = EdgeVector.from_edge_ids(6, [1, 4])
        assert intersection_parity(v, v) == 0

    def test_k4_hamilton_vs_triangle(self):
        tri = EdgeVector.from_pairs(K4, [(0, 1), (0, 2), (1, 2)])
        assert intersection_parity(K4_HAMS[0], tri) == 0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            intersection_parity(EdgeVector.zero(3), EdgeVector.zero(4))


class TestGf2Basis:
    def test_first_insert_extends(self):
        basis = Gf2Basis(4)
        out = basis.insert(EdgeVector.from_edge_ids(4, [1, 2]))
        assert out.extended and basis.rank == 1

    def test_same_vector_absorbed(self):
        basis = Gf2Basis(4)
        v = EdgeVector.from_edge_ids(4, [0, 3])
        assert basis.insert(v).extended
        out = basis.insert(v)
        assert not out.extended and out.residual.is_zero() and basis.rank == 1

    def test_k4_third_hamilton_absorbed(self):
        basis = Gf2Basis(K4.m)
        assert basis.insert(K4_HAMS[0]).extended
        assert basis.insert(K4_HAMS[1]).extended
        assert not basis.insert(K4_HAMS[2]).extended
        assert (K4_HAMS[0] ^ K4_HAMS[1]) == K4_HAMS[2]

    def test_in_span(self):
        basis = Gf2Basis(K4.m)
        for h in K4_HAMS:
            basis.insert(h)
        assert basis.in_span(EdgeVector.zero(K4.m))
        tri = EdgeVector.from_pairs(K4, [(0, 1), (0, 2), (1, 2)])
        assert not basis.in_span(tri)

    def test_c4_cycle_in_own_span(self):
        c4 = Graph.cycle(4)
        ham = EdgeVector.full(c4.m)
        basis = Gf2Basis(c4.m)
        basis.insert(ham)
        assert basis.in_span(ham)

    def test_absorbed_insert_never_changes_answers(self):
        rng = random.Random(21)
        cases = [(rng.randint(1, 16), 8) for _ in range(20)]
        for m, count in cases + _WIDE:
            basis = Gf2Basis(m)
            vecs = [EdgeVector(bits, m) for bits in _vectors(rng, m, count)]
            for v in vecs:
                basis.insert(v)
            probes = [EdgeVector(rng.getrandbits(m), m) for _ in range(10)]
            probes.append(vecs[0] ^ vecs[-1])
            before = [basis.in_span(q) for q in probes]
            assert before[-1]
            absorbed = vecs[0] ^ vecs[1] if len(vecs) > 1 else vecs[0]
            if basis.in_span(absorbed):
                assert not basis.insert(absorbed).extended
                assert [basis.in_span(q) for q in probes] == before

    def test_rank_matches_batch_elimination(self):
        rng = random.Random(33)
        cases = [(rng.randint(1, 18), rng.randint(0, 10)) for _ in range(30)]
        for m, count in cases + _WIDE:
            vecs = _vectors(rng, m, count)
            basis = Gf2Basis(m)
            pivots = 0
            for bits in vecs:
                out = basis.insert(EdgeVector(bits, m))
                if out.extended:
                    # No bit at an earlier pivot (a row's highest bit).
                    assert out.residual.bits & pivots == 0
                    pivots |= 1 << (out.residual.bits.bit_length() - 1)
                else:
                    assert out.residual.is_zero()
            assert basis.rank == batch_gf2_rank(vecs, m)


# (m, vector count) at the width of a G(201, p) threshold graph: m up to
# 1 200 edges, about dim + 20 vectors, 20 of them dependent.
_WIDE = [(1200, 1020), (1167, 987), (400, 230)]


def _vectors(rng: random.Random, m: int, count: int) -> list[int]:
    """Random vectors; at widths over 64, sparse ones plus 20 XORs of them."""
    if m <= 64:
        return [rng.getrandbits(m) for _ in range(count)]
    gens = [sum(1 << e for e in rng.sample(range(m), 201)) for _ in range(count - 20)]
    combos = []
    for _ in range(20):
        acc = 0
        for bits in rng.sample(gens, rng.randint(2, 6)):
            acc ^= bits
        combos.append(acc)
    vecs = gens + combos
    rng.shuffle(vecs)
    return vecs


class TestCycleSpace:
    def test_tree_has_empty_basis(self):
        tree = Graph.path(5)
        assert cycle_space_basis(tree) == []

    def test_c4_single_vector(self):
        c4 = Graph.cycle(4)
        basis = cycle_space_basis(c4)
        assert len(basis) == 1 and basis[0].weight == 4

    def test_k4_fundamental_triangles_through_root(self):
        basis = cycle_space_basis(K4)
        assert len(basis) == 3
        for vec in basis:
            assert vec.weight == 3
            ends = {v for e in vec.support() for v in K4.pair_of(e)}
            assert 0 in ends  # BFS tree from vertex 0 puts the root on each

    def test_every_basis_vector_is_even_subgraph(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            for vec in cycle_space_basis(g):
                assert is_even_subgraph(g, vec)

    def test_dimension_law_exhaustive_n5(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_mask(n, mask)
                basis = cycle_space_basis(g)
                rank = batch_gf2_rank([v.bits for v in basis], g.m)
                assert rank == len(basis) == g.m - g.n + g.num_components()

    def test_dimension_law_random_n12(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            basis = cycle_space_basis(g)
            assert len(basis) == g.m - g.n + g.num_components()
            assert batch_gf2_rank([v.bits for v in basis], g.m) == len(basis)

    def test_random_combinations_are_even_subgraphs(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 10), 0.5)
            basis = cycle_space_basis(g)
            if not basis:
                continue
            combo = EdgeVector.zero(g.m)
            for vec in basis:
                if rng.random() < 0.5:
                    combo = combo ^ vec
            assert is_even_subgraph(g, combo)


class TestCutSpace:
    def test_triangle_star(self):
        tri = Graph.complete(3)
        stars = cut_space_stars(tri)
        assert stars[0].support() == (tri.edge_id(0, 1), tri.edge_id(0, 2))

    def test_xor_of_all_stars_is_zero(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            acc = EdgeVector.zero(g.m)
            for star in cut_space_stars(g):
                acc = acc ^ star
            assert acc.is_zero()

    def test_k4_cut_as_star_xor(self):
        stars = cut_space_stars(K4)
        cut = stars[0] ^ stars[1]
        want = EdgeVector.from_pairs(K4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert cut == want

    def test_cuts_orthogonal_to_cycles(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            cycles = cycle_space_basis(g)
            for star in cut_space_stars(g):
                for z in cycles:
                    assert intersection_parity(star, z) == 0


class TestEvenSubgraph:
    def test_cycle_true(self):
        c5 = Graph.cycle(5)
        assert is_even_subgraph(c5, EdgeVector.full(c5.m))

    def test_single_edge_false(self):
        g = Graph.path(3)
        assert not is_even_subgraph(g, EdgeVector.from_pairs(g, [(0, 1)]))

    def test_bowtie_true(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        both = EdgeVector.full(g.m)
        assert is_even_subgraph(g, both)


def test_even_n_hamilton_supports_stay_even():
    # With n even every Hamilton vector has even support, and support
    # parity is additive under XOR.
    rng = random.Random(12)
    hams = K4_HAMS
    combo = EdgeVector.zero(K4.m)
    for h in hams:
        if rng.random() < 0.7:
            combo = combo ^ h
    assert combo.weight % 2 == 0


class TestOrthocomplement:
    def test_kernel_is_orthogonal_and_full(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rng.randint(1, 14)
            vecs = [EdgeVector(rng.getrandbits(m), m) for _ in range(rng.randint(0, 6))]
            kernel = orthocomplement_basis(vecs, m)
            rank = batch_gf2_rank([v.bits for v in vecs], m)
            assert len(kernel) == m - rank
            for kv in kernel:
                for v in vecs:
                    assert intersection_parity(kv, v) == 0
            assert batch_gf2_rank([v.bits for v in kernel], m) == len(kernel)
