import json
import math
import random

import pytest

from cyclespan import hamfinder
from cyclespan.gf2 import EdgeVector, intersection_parity
from cyclespan.graph import Graph, VertexSet, edge_subgraph_adj, from_edge_list
from cyclespan.hamfinder import disjoint_pair_paths
from cyclespan.switcher import (
    ParitySwitcher,
    _parity_dist,
    find_switcher_cycle,
    hamilton_paths_of_switcher,
    switcher_certificate,
    switcher_cycle_cap,
)

from util import deque_parity_dist, random_graph, random_switcher, restrict_pair_paths


class TestFindSwitcherCycle:
    def test_k5_minus_one_edge(self):
        g = Graph.complete(5)
        r = EdgeVector.from_edge_ids(g.m, [e for e in range(g.m) if e != g.edge_id(3, 4)])
        cyc = find_switcher_cycle(g, r)
        assert cyc is not None
        assert len(cyc) % 2 == 0
        non_r = [1 for u, v in zip(cyc, cyc[1:] + cyc[:1]) if g.edge_id(u, v) not in r]
        assert sum(non_r) == 1
        assert {3, 4} <= set(cyc)

    def test_r_equals_g_absent(self):
        g = Graph.complete(5)
        assert find_switcher_cycle(g, EdgeVector.full(g.m)) is None

    def test_c6_minus_edge_returns_c6(self):
        g = Graph.cycle(6)
        r = EdgeVector.from_edge_ids(g.m, [e for e in range(g.m) if e != 0])
        cyc = find_switcher_cycle(g, r)
        assert cyc is not None and len(cyc) == 6
        assert set(cyc) == set(range(6))

    def test_small_adjacency_rejection(self):
        # Path 0-1-2-3 plus pendant 4 on 1: declare 4 small; any cycle in
        # the square 0-1-2-3 leaves deg(4, C) = 1, which is allowed; but
        # declaring 1 and 2 as heavy neighbors of small 4 and 5 forces a
        # rejection when both small vertices see the cycle twice.
        g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 4), (0, 5), (3, 5)])
        r = EdgeVector.from_pairs(g, [(0, 1), (1, 2), (2, 3)])
        small = VertexSet.of(6, [4])
        cyc = find_switcher_cycle(g, r, small=small)
        # deg(4, {0,1,2,3}) = 2 > 1 and 4 off-cycle: must be rejected.
        assert cyc is None

    def test_no_odd_r_path_absent(self):
        # r is a 4-cycle: bipartite, so the only x-y paths for the chord
        # have even length; no qualifying cycle exists.
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        r = EdgeVector.from_pairs(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert find_switcher_cycle(g, r) is None

    def test_cap_value(self):
        assert switcher_cycle_cap(9) is None
        cap = switcher_cycle_cap(101)
        assert cap is not None and abs(cap - 22 * math.log(101) / math.log(math.log(101))) < 1e-12

    def test_lollipop_without_simple_odd_path(self):
        # All odd walks for the seed edge revisit vertex 0 (triangle at 0);
        # no simple odd path exists, so nothing may be returned.
        g = from_edge_list(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 0)])
        r = EdgeVector.from_pairs(g, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 0)])
        assert find_switcher_cycle(g, r) is None

    def test_simple_odd_path_beats_shorter_nonsimple_walk(self):
        # The triangle at 0 gives a length-5 non-simple odd walk to 1, but
        # the search must return the longer simple odd path instead.
        g = from_edge_list(9, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 0),
                               (0, 5), (5, 6), (6, 7), (7, 8), (8, 1)])
        r = EdgeVector.from_pairs(g, [e for e in g.edges if e != (0, 1)])
        cyc = find_switcher_cycle(g, r)
        assert cyc is not None and set(cyc) == {0, 1, 5, 6, 7, 8}


class TestDisjointPairPaths:
    def test_complete_graph_direct_edges(self):
        g = Graph.complete(8)
        paths = disjoint_pair_paths(g, [(0, 1), (2, 3), (4, 5)])
        assert paths == [[0, 1], [2, 3], [4, 5]]

    def test_c6_forced_routing(self):
        g = Graph.cycle(6)
        paths = disjoint_pair_paths(g, [(0, 3), (1, 2)], seed=3)
        assert paths is not None
        assert paths[1] == [1, 2]
        assert paths[0] in ([0, 5, 4, 3], [3, 4, 5, 0]) or paths[0][0] == 0
        assert set(paths[0]) == {0, 5, 4, 3}

    def test_shared_endpoint_rejected(self):
        g = Graph.complete(5)
        with pytest.raises(ValueError):
            disjoint_pair_paths(g, [(0, 1), (1, 2)])

    def test_impossible_instance_returns_none(self, monkeypatch):
        # On C4, the pairs (0,2) and (1,3) cannot be joined disjointly.
        g = Graph.cycle(4)
        monkeypatch.setattr(hamfinder, "_LINKAGE_RETRIES", 50)
        assert disjoint_pair_paths(g, [(0, 2), (1, 3)]) is None

    def test_empty_pairs(self):
        assert disjoint_pair_paths(Graph.complete(4), []) == []

    def test_deterministic(self):
        g = Graph.complete(9)
        pairs = [(0, 8), (1, 7), (2, 6)]
        assert disjoint_pair_paths(g, pairs, seed=4) == disjoint_pair_paths(g, pairs, seed=4)


class TestDisjointPairPathsWithin:
    def test_matches_restricted_copy(self):
        # Seeded graphs, a vertex set holding the terminals, and dropped
        # pairs that are mostly edges on the routed side.
        rng = random.Random(31)
        linked = failed = dropped = 0
        for t in range(150):
            n = rng.randint(6, 40)
            g = random_graph(rng, n, rng.uniform(0.08, 0.5))
            within = VertexSet.of(n, [v for v in range(n) if rng.random() < 0.75])
            if len(within) < 4:
                continue
            ends = rng.sample(within.to_list(), 2 * rng.randint(1, min(4, len(within) // 2)))
            pairs = list(zip(ends[::2], ends[1::2]))
            inside = [e for e in g.edges if e[0] in within and e[1] in within]
            drop = rng.sample(inside, min(len(inside), rng.randint(0, 6)))
            drop += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2))]
            got = hamfinder.disjoint_pair_paths(g, pairs, seed=t, within=within, drop=drop)
            assert got == restrict_pair_paths(g, pairs, t, within, drop)
            if got is None:
                failed += 1
                continue
            linked += 1
            dropped += any({u, v} == set(e) for e in drop for p in got
                           for u, v in zip(p, p[1:]))
        assert linked >= 30 and failed >= 10
        assert dropped == 0

    def test_endpoint_outside_set_rejected(self):
        within = VertexSet.of(6, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="outside"):
            disjoint_pair_paths(Graph.complete(6), [(0, 1), (2, 4)], within=within)
        with pytest.raises(ValueError, match="outside"):
            disjoint_pair_paths(Graph.complete(6), [(5, 1)], within=within)

    def test_dropped_edge_is_not_used(self):
        g = Graph.cycle(6)
        assert disjoint_pair_paths(g, [(0, 1)], drop=[(1, 0)]) == [[0, 5, 4, 3, 2, 1]]
        assert disjoint_pair_paths(g, [(0, 1)], within=VertexSet.of(6, [0, 1, 2, 3]),
                                   drop=[(0, 1)]) is None


class TestParityDist:
    def test_matches_queue_bfs(self):
        # r-subgraphs of seeded graphs: random edge subsets (often
        # disconnected), bipartite ones, and whole graphs.
        rng = random.Random(41)
        bipartite = 0
        for t in range(150):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, rng.uniform(0.05, 0.6))
            kind = t % 3
            if kind == 0:
                bits = rng.getrandbits(g.m) if g.m else 0
            elif kind == 1:
                side = [rng.random() < 0.5 for _ in range(n)]
                bits = sum(1 << e for e, (u, v) in enumerate(g.edges) if side[u] != side[v])
                bipartite += 1
            else:
                bits = (1 << g.m) - 1
            adj = edge_subgraph_adj(g, bits)
            for src in {0, n // 2, n - 1}:
                assert _parity_dist(adj, n, src) == deque_parity_dist(adj, n, src)
        assert bipartite >= 40


class TestParitySwitcherBuild:
    def _k2_instance(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4)])
        r = EdgeVector.from_pairs(g, [(0, 1)])
        return g, r

    def test_valid_build(self):
        g, r = self._k2_instance()
        sw = ParitySwitcher.build(g, [0, 1, 2, 3], [[1, 4, 3]], r)
        assert sw.k == 2 and sw.r_parity_of_cycle == 1

    def test_even_overlap_rejected(self):
        g, _ = self._k2_instance()
        r2 = EdgeVector.from_pairs(g, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="odd number"):
            ParitySwitcher.build(g, [0, 1, 2, 3], [[1, 4, 3]], r2)

    def test_odd_cycle_length_rejected(self):
        g = Graph.complete(5)
        r = EdgeVector.from_pairs(g, [(0, 1)])
        with pytest.raises(ValueError, match="even length"):
            ParitySwitcher.build(g, [0, 1, 2], [], r)

    def test_path_touching_cycle_rejected(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4), (0, 4)])
        r = EdgeVector.from_pairs(g, [(0, 1)])
        with pytest.raises(ValueError, match="interior touches"):
            ParitySwitcher.build(g, [0, 1, 2, 3], [[1, 0, 3]], r)

    def test_wrong_endpoints_rejected(self):
        g, r = self._k2_instance()
        with pytest.raises(ValueError, match="must join"):
            ParitySwitcher.build(g, [0, 1, 2, 3], [[1, 4]], r)


class TestHamiltonPathsOfSwitcher:
    def test_k2_hand_example(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4)])
        r = EdgeVector.from_pairs(g, [(0, 1)])
        sw = ParitySwitcher.build(g, [0, 1, 2, 3], [[1, 4, 3]], r)
        even_p, odd_p = hamilton_paths_of_switcher(sw, r)
        assert {tuple(even_p), tuple(odd_p)} == {(0, 1, 4, 3, 2), (0, 3, 4, 1, 2)}
        va = EdgeVector.from_vertex_path(g, even_p)
        vb = EdgeVector.from_vertex_path(g, odd_p)
        assert (va ^ vb) == sw.cycle_vector
        assert intersection_parity(va, r) == 0
        assert intersection_parity(vb, r) == 1

    def test_invariants_on_random_switchers(self):
        for seed in range(40):
            g, cycle, paths, r = random_switcher(seed)
            sw = ParitySwitcher.build(g, cycle, paths, r)
            even_p, odd_p = hamilton_paths_of_switcher(sw, r)
            expected = sw.vertices()
            for p in (even_p, odd_p):
                assert set(p) == expected and len(p) == len(expected)
                assert p[0] == cycle[0] and p[-1] == cycle[sw.k]
                for u, v in zip(p, p[1:]):
                    assert g.has_edge(u, v)
            va = EdgeVector.from_vertex_path(g, even_p)
            vb = EdgeVector.from_vertex_path(g, odd_p)
            assert (va ^ vb) == sw.cycle_vector
            assert intersection_parity(va, r) == 0
            assert intersection_parity(vb, r) == 1

    def test_mismatched_r_rejected(self):
        g, cycle, paths, r = random_switcher(3)
        sw = ParitySwitcher.build(g, cycle, paths, r)
        with pytest.raises(ValueError):
            hamilton_paths_of_switcher(sw, EdgeVector.zero(g.m))


def test_switcher_certificate_json():
    g, cycle, paths, r = random_switcher(8, k=3)
    sw = ParitySwitcher.build(g, cycle, paths, r)
    doc = json.loads(switcher_certificate(sw))
    assert doc["cycle"] == list(sw.cycle)
    assert doc["r_parity_of_cycle"] == 1
    assert len(doc["paths"]) == sw.k - 1
    assert len(doc["cycle_edge_ids"]) == len(sw.cycle)
