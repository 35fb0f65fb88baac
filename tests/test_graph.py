import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclespan.graph import (
    Graph,
    Graph6Error,
    VertexSet,
    bfs_path,
    from_edge_list,
    from_edge_list_text,
    from_graph6,
    bfs_forest,
    is_bipartite,
    is_edge_cut,
    iter_bits,
    restrict,
    small_vertices,
    to_edge_list_text,
    to_graph6,
)

from cyclespan.gf2 import cycle_space_basis

from util import brute_shortest_path, coloring_is_bipartite, coloring_is_cut, \
    forest_test_graphs, graph_from_mask, random_cut, random_graph, walk_cycle_space_basis


def test_triangle_construction():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(4, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list(4, [(0, 1), (1, 0)])


def test_loop_rejected():
    with pytest.raises(ValueError, match="loop"):
        from_edge_list(4, [(2, 2)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="range"):
        from_edge_list(3, [(0, 3)])


def test_k5_edge_ids_lexicographic():
    g = Graph.complete(5)
    assert g.edge_id(0, 1) == 0
    assert g.edge_id(3, 4) == 9
    assert g.pair_of(9) == (3, 4)


def test_edge_id_both_orders_and_errors():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for eid, (u, v) in enumerate(g.edges):
        assert g.edge_id(u, v) == g.edge_id(v, u) == eid
    for u, v in [(1, 1), (0, 2), (4, 1), (1, 5), (5, 1), (-1, 0), (0, -1), (-1, 3)]:
        with pytest.raises(ValueError, match=rf"no edge \({u}, {v}\)"):
            g.edge_id(u, v)


def test_order_insensitive_construction():
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3)]
    rng = random.Random(5)
    for _ in range(10):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in shuffled]
        h = from_edge_list(4, shuffled)
        assert h == from_edge_list(4, pairs)
        assert [h.edge_id(u, v) for u, v in pairs] == \
            [from_edge_list(4, pairs).edge_id(u, v) for u, v in pairs]


def test_neighbors_ascending_from_shuffled_pairs():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 40), rng.random())
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(pairs)
        h = from_edge_list(g.n, pairs)
        for v in range(h.n):
            assert h.neighbors(v) == tuple(iter_bits(h.adj_bits(v)))


def test_degree_sum_is_twice_m():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_components_and_acyclic():
    g = from_edge_list(6, [(0, 1), (1, 2), (3, 4)])
    comps = g.components()
    assert [sorted(c) for c in comps] == [[0, 1, 2], [3, 4], [5]]


class TestVertexSet:
    def test_basics(self):
        s = VertexSet.of(5, [0, 3])
        assert 3 in s and 1 not in s
        assert sorted(s) == [0, 3]
        assert len(s) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])


class TestSmallVertices:
    def test_k5_empty(self):
        assert len(small_vertices(Graph.complete(5))) == 0

    def test_star_leaves_not_small(self):
        # ln(10)/10 is about 0.23, below the leaf degree 1.
        star = from_edge_list(10, [(0, i) for i in range(1, 10)])
        assert len(small_vertices(star)) == 0

    def test_isolated_vertex_is_small(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3)])
        assert sorted(small_vertices(g)) == [4]

    def test_needs_two_vertices(self):
        assert len(small_vertices(from_edge_list(1, []))) == 0
        assert len(small_vertices(from_edge_list(0, []))) == 0


class TestBfsPath:
    def test_path_graph(self):
        g = Graph.path(4)
        assert bfs_path(g, 0, 3) == [0, 1, 2, 3]

    def test_forced_detour_on_c6(self):
        g = Graph.cycle(6)
        forbidden = VertexSet.of(6, [1, 2])
        assert bfs_path(g, 0, 3, forbidden) == [0, 5, 4, 3]

    def test_same_endpoints(self):
        g = Graph.path(3)
        assert bfs_path(g, 1, 1) == [1]

    def test_disconnected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert bfs_path(g, 0, 3) is None

    def test_forbidden_endpoint_rejected(self):
        g = Graph.path(3)
        with pytest.raises(ValueError):
            bfs_path(g, 0, 2, VertexSet.of(3, [0]))

    def test_matches_brute_force_distance(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.4)
            x, y = rng.sample(range(n), 2)
            banned = {v for v in range(n) if v not in (x, y) and rng.random() < 0.2}
            got = bfs_path(g, x, y, VertexSet.of(n, banned))
            want = brute_shortest_path(g, x, y, banned)
            if want is None:
                assert got is None
            else:
                assert got is not None and len(got) - 1 == want


class TestRestrict:
    def test_k4_to_triangle(self):
        g = Graph.complete(4)
        res = restrict(g, VertexSet.of(4, [0, 1, 2]))
        assert res.graph == Graph.complete(3)

    def test_drop_edge(self):
        g = Graph.complete(3)
        res = restrict(g, VertexSet.full(3), [g.edge_id(0, 1)])
        assert res.graph.m == 2

    def test_edge_map_preserves_endpoints(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, 0.5)
            keep = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.7])
            drop = [e for e in range(g.m) if rng.random() < 0.2]
            res = restrict(g, keep, drop)
            want = {(u, v) for e, (u, v) in enumerate(g.edges)
                    if e not in drop and u in keep and v in keep}
            assert {tuple(res.to_old_path(pair)) for pair in res.graph.edges} == want


class TestGraph6:
    def test_triangle_is_Bw(self):
        assert to_graph6(Graph.complete(3)) == "Bw"

    def test_single_vertex(self):
        assert to_graph6(from_edge_list(1, [])) == "@"

    def test_k5_roundtrip(self):
        g = Graph.complete(5)
        assert from_graph6(to_graph6(g)) == g

    def test_header_prefix_accepted(self):
        assert from_graph6(">>graph6<<Bw") == Graph.complete(3)

    def test_extended_header(self):
        rng = random.Random(1)
        g = random_graph(rng, 100, 0.05)
        text = to_graph6(g)
        assert text.startswith("~")
        assert from_graph6(text) == g

    def test_roundtrip_1000_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(0, 62)
            g = random_graph(rng, n, rng.random())
            assert from_graph6(to_graph6(g)) == g

    def test_malformed_header(self):
        with pytest.raises(Graph6Error):
            from_graph6("~B")

    def test_length_mismatch(self):
        with pytest.raises(Graph6Error):
            from_graph6("Bww")
        with pytest.raises(Graph6Error):
            from_graph6("B")

    def test_nonzero_padding(self):
        # n=3 needs 3 bits; the low 3 bits of the single group must be 0.
        bad = chr(63 + 3) + chr(63 + 0b111001)
        with pytest.raises(Graph6Error):
            from_graph6(bad)

    def test_invalid_character(self):
        with pytest.raises(Graph6Error):
            from_graph6("B\x07")


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0))
def test_graph6_roundtrip_property(n, seed):
    mask = seed % (1 << (n * (n - 1) // 2)) if n > 1 else 0
    g = graph_from_mask(n, mask)
    assert from_graph6(to_graph6(g)) == g


def test_edge_list_text_roundtrip():
    g = from_edge_list(5, [(0, 1), (2, 4), (1, 3)])
    text = to_edge_list_text(g)
    assert text.splitlines()[0] == "5 3"
    assert from_edge_list_text(text) == g


def test_edge_list_text_errors():
    with pytest.raises(ValueError):
        from_edge_list_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        from_edge_list_text("")


def test_is_bipartite():
    assert is_bipartite(Graph.cycle(6))
    assert not is_bipartite(Graph.cycle(5))
    assert is_bipartite(from_edge_list(3, []))


class TestBfsForest:
    """The forest-based traversals against the references in util."""

    def test_cycle_space_basis_matches_walk(self):
        for g in forest_test_graphs():
            assert [z.bits for z in cycle_space_basis(g)] == walk_cycle_space_basis(g)

    def test_is_bipartite_matches_coloring(self):
        graphs = forest_test_graphs()
        assert {is_bipartite(g) for g in graphs} == {True, False}
        for g in graphs:
            assert is_bipartite(g) == coloring_is_bipartite(g)

    def test_cut_test_matches_coloring(self):
        rng = random.Random(12)
        for g in forest_test_graphs():
            for _ in range(5):
                cut = random_cut(rng, g)
                assert is_edge_cut(g, cut) and coloring_is_cut(g, cut)
                side, _ = bfs_forest(g, cut)
                assert all((side[u] != side[v]) == (cut >> e & 1 == 1)
                           for e, (u, v) in enumerate(g.edges))
                bits = rng.getrandbits(g.m) if g.m else 0
                assert is_edge_cut(g, bits) == coloring_is_cut(g, bits)
                assert (bfs_forest(g, bits) is not None) == coloring_is_cut(g, bits)

    def test_up_masks_are_tree_paths_to_the_root(self):
        for g in forest_test_graphs():
            side, up = bfs_forest(g, 0)
            assert side == [0] * g.n
            roots = {comp.to_list()[0] for comp in g.components()}
            for v in range(g.n):
                if v in roots:
                    assert up[v] == 0
                    continue
                # One path edge at v, to a vertex whose path is the rest.
                (e,) = iter_bits(up[v] & g.star_bits(v))
                u = sum(g.pair_of(e)) - v
                assert up[u] == up[v] ^ 1 << e
