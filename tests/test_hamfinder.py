import random

import pytest

from cyclespan.gf2 import EdgeVector
from cyclespan.graph import Graph, VertexSet, from_edge_list
from cyclespan.hamfinder import (
    ExpanderParams,
    SplitRequest,
    StepCounter,
    expander_check,
    hamilton_path_protected,
    lll_split,
    rotate_cycle,
    rotation_extension_path,
    short_path_in_r,
)

from util import brute_shortest_path, random_graph


class TestRotationExtension:
    def test_complete_graph(self):
        g = Graph.complete(6)
        for x, y in [(0, 1), (2, 5), (4, 3)]:
            path = rotation_extension_path(g, x, y, budget=10_000, seed=1)
            assert path is not None and path[0] == x and path[-1] == y

    def test_path_graph_forced(self):
        g = Graph.path(4)
        assert rotation_extension_path(g, 0, 3, budget=10_000, seed=0) == [0, 1, 2, 3]

    def test_star_has_no_hamilton_path(self):
        g = from_edge_list(5, [(0, i) for i in range(1, 5)])
        assert rotation_extension_path(g, 1, 2, budget=5_000, seed=0) is None

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            rotation_extension_path(Graph.complete(4), 2, 2)

    def test_outputs_verified_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(4, 20)
            g = random_graph(rng, n, 0.6)
            x, y = rng.sample(range(n), 2)
            path = rotation_extension_path(g, x, y, budget=20_000, seed=rng.randrange(1 << 30))
            if path is not None:
                assert path[0] == x and path[-1] == y
                assert sorted(path) == list(range(n))
                assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))

    def test_deterministic_given_seed(self):
        g = Graph.complete(9)
        a = rotation_extension_path(g, 0, 8, budget=10_000, seed=77)
        b = rotation_extension_path(g, 0, 8, budget=10_000, seed=77)
        assert a == b

    def test_two_vertex_graph(self):
        g = from_edge_list(2, [(0, 1)])
        assert rotation_extension_path(g, 0, 1) == [0, 1]


class TestRotateCycle:
    def _is_hamilton_cycle(self, g, order):
        return (sorted(order) == list(range(g.n))
                and all(g.has_edge(u, v) for u, v in zip(order, order[1:] + order[:1])))

    def test_closes_into_hamilton_cycle(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(5, 20)
            g = random_graph(rng, n, 0.6)
            path = rotation_extension_path(g, *g.edges[0], budget=20_000, seed=1)
            if path is None:
                continue
            counter = StepCounter()
            cut = rng.randrange(n)
            order = rotate_cycle(g, path, cut, 10, 10_000, seed=rng.randrange(1 << 30),
                                 counter=counter)
            assert order is not None and self._is_hamilton_cycle(g, order)
            assert order[0] == path[cut]
            assert counter.steps >= 10

    def test_none_when_budget_below_min_rotations(self):
        counter = StepCounter()
        assert rotate_cycle(Graph.complete(7), list(range(7)), 0, 10, 9, seed=1,
                            counter=counter) is None
        assert counter.steps == 9

    def test_deterministic_given_seed(self):
        g = Graph.complete(9)
        a = rotate_cycle(g, list(range(9)), 4, 10, 1_000, seed=5)
        b = rotate_cycle(g, list(range(9)), 4, 10, 1_000, seed=5)
        assert a == b


class TestLllSplit:
    def test_k6_balanced(self):
        g = Graph.complete(6)
        out = lll_split(g, SplitRequest(VertexSet.full(6), 3, 3), seed=1)
        assert out is not None
        a, b = out
        assert len(a) == 3 and len(b) == 3
        assert (a.mask & b.mask) == 0 and (a.mask | b.mask) == VertexSet.full(6).mask

    def test_independent_target_is_vacuous(self):
        # Y with no internal or incident edges puts every floor at zero.
        g = from_edge_list(6, [(0, 1)])
        y = VertexSet.of(6, [2, 3, 4, 5])
        out = lll_split(g, SplitRequest(y, 2, 2), seed=0)
        assert out is not None

    def test_single_y_neighbor_is_infeasible(self):
        # A vertex with exactly one neighbor in Y can never satisfy both
        # positive floors.
        g = from_edge_list(4, [(0, 1), (2, 3)])
        y = VertexSet.of(4, [1, 2, 3])
        out = lll_split(g, SplitRequest(y, 1, 2), retries=50, seed=0)
        assert out is None

    def test_star_center_needs_two_leaves_per_side(self):
        # Star center with 10 leaves as Y, split 5/5: the center's floor
        # is (5/30)*10, so it needs at least 2 leaves on each side, which
        # every balanced split of the leaves provides.
        g = from_edge_list(11, [(0, i) for i in range(1, 11)])
        y = VertexSet.of(11, range(1, 11))
        out = lll_split(g, SplitRequest(y, 5, 5), seed=3)
        assert out is not None
        a, b = out
        assert (g.adj_bits(0) & a.mask).bit_count() >= 2
        assert (g.adj_bits(0) & b.mask).bit_count() >= 2

    def test_floors_hold_exactly(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(4, 14)
            g = random_graph(rng, n, 0.7)
            members = [v for v in range(n) if rng.random() < 0.8]
            if len(members) < 2:
                continue
            y = VertexSet.of(n, members)
            a = len(members) // 2
            out = lll_split(g, SplitRequest(y, a, len(members) - a), seed=rng.randrange(99))
            if out is None:
                continue
            sa, sb = out
            size = len(members)
            for v in range(n):
                deg_y = (g.adj_bits(v) & y.mask).bit_count()
                assert 3 * size * (g.adj_bits(v) & sa.mask).bit_count() >= a * deg_y
                assert 3 * size * (g.adj_bits(v) & sb.mask).bit_count() >= (size - a) * deg_y

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SplitRequest(VertexSet.full(4), 1, 2)
        with pytest.raises(ValueError):
            SplitRequest(VertexSet.full(4), 0, 4)


class TestShortPathInR:
    def test_c6_opposite(self):
        g = Graph.cycle(6)
        path = short_path_in_r(g, EdgeVector.full(g.m), 0, 3)
        assert path is not None and len(path) - 1 == 3

    def test_avoid_separates(self):
        g = Graph.cycle(6)
        avoid = VertexSet.of(6, [1, 5])
        assert short_path_in_r(g, EdgeVector.full(g.m), 0, 3, avoid) is None

    def test_avoided_endpoint_rejected(self):
        g = Graph.cycle(6)
        with pytest.raises(ValueError):
            short_path_in_r(g, EdgeVector.full(g.m), 0, 3, VertexSet.of(6, [0]))

    def test_k5_minus_matching_short(self):
        g = Graph.complete(5)
        r = EdgeVector.from_edge_ids(
            g.m, [e for e in range(g.m) if e not in (g.edge_id(0, 1), g.edge_id(2, 3))])
        for x in range(5):
            for y in range(5):
                if x == y:
                    continue
                path = short_path_in_r(g, r, x, y)
                assert path is not None and len(path) - 1 <= 2

    def test_matches_restricted_distance_oracle(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.5)
            bits = rng.getrandbits(g.m) if g.m else 0
            r = EdgeVector(bits, g.m)
            x, y = rng.sample(range(n), 2) if n > 1 else (0, 0)
            avoid_ids = {v for v in range(n) if v not in (x, y) and rng.random() < 0.25}
            sub_pairs = [g.pair_of(e) for e in r.support()
                         if not (set(g.pair_of(e)) & avoid_ids)]
            sub = from_edge_list(n, sub_pairs)
            want = brute_shortest_path(sub, x, y, set())
            got = short_path_in_r(g, r, x, y, VertexSet.of(n, avoid_ids))
            if want is None:
                assert got is None
            else:
                assert got is not None and len(got) - 1 == want


class TestHamiltonPathProtected:
    def test_reduces_to_rotation_on_k7(self):
        g = Graph.complete(7)
        res = hamilton_path_protected(g, VertexSet.full(7), 0, 6, seed=2)
        assert res.ok and res.failed_stage is None
        assert res.path[0] == 0 and res.path[-1] == 6
        assert sorted(res.path) == list(range(7))

    def test_escorted_low_degree_vertex(self):
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        pairs += [(7, 2), (7, 3)]
        g = from_edge_list(8, pairs)
        res = hamilton_path_protected(g, VertexSet.full(8), 0, 1, seed=4,
                                      small=VertexSet.of(8, [7]))
        assert res.ok
        i = res.path.index(7)
        assert {res.path[i - 1], res.path[i + 1]} == {2, 3}

    def test_two_sheltered_vertices(self):
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        pairs += [(8, 2), (8, 3), (9, 4), (9, 5)]
        g = from_edge_list(10, pairs)
        res = hamilton_path_protected(g, VertexSet.full(10), 0, 1, seed=9,
                                      small=VertexSet.of(10, [8, 9]))
        assert res.ok
        assert sorted(res.path) == list(range(10))

    def test_precondition_violation_rejected(self):
        # Vertex 7 has one neighbor besides x, below the required two.
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        pairs += [(7, 0), (7, 2)]
        g = from_edge_list(8, pairs)
        with pytest.raises(ValueError, match="fewer than 2"):
            hamilton_path_protected(g, VertexSet.full(8), 0, 1, seed=0,
                                    small=VertexSet.of(8, [7]))

    def test_small_endpoint_rejected(self):
        g = Graph.complete(6)
        with pytest.raises(ValueError, match="low-degree"):
            hamilton_path_protected(g, VertexSet.full(6), 0, 1, seed=0,
                                    small=VertexSet.of(6, [0]))

    def test_on_subset(self):
        g = Graph.complete(9)
        s = VertexSet.of(9, [0, 2, 4, 6, 8])
        res = hamilton_path_protected(g, s, 0, 8, seed=1)
        assert res.ok and sorted(res.path) == [0, 2, 4, 6, 8]


class TestExpanderCheck:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExpanderParams(c=0)
        with pytest.raises(ValueError):
            ExpanderParams(c=1, n0=3, d=3)
        with pytest.raises(ValueError):
            ExpanderParams(c=1, alpha=1.0)

    def test_k10_expands(self):
        rep = expander_check(Graph.complete(10), ExpanderParams(c=2.0), mode="exact")
        assert rep.small_set_expansion.verdict == "holds"
        assert rep.large_pair_edge.verdict == "holds"

    def test_disjoint_cliques_fail_large_pair(self):
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        pairs += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        g = from_edge_list(10, pairs)
        rep = expander_check(g, ExpanderParams(c=1.0), mode="exact")
        assert rep.large_pair_edge.verdict == "violated"
        x = rep.large_pair_edge.witness["X"]
        y = rep.large_pair_edge.witness["Y"]
        assert not any(g.has_edge(u, v) for u in x for v in y)

    def test_path_graph_fails_small_expansion(self):
        rep = expander_check(Graph.path(10), ExpanderParams(c=2.0), mode="exact")
        assert rep.small_set_expansion.verdict == "violated"
        x = rep.small_set_expansion.witness["X"]
        ext = set()
        g = Graph.path(10)
        for v in x:
            ext.update(g.neighbors(v))
        ext -= set(x)
        assert len(ext) < 2.0 * len(x)

    def test_robust_expansion_flags_weak_graph(self):
        rep = expander_check(Graph.cycle(12), ExpanderParams(c=1.0, n0=4, d=3),
                             mode="exact")
        # A cycle cannot 6-expand even singletons.
        assert rep.robust_expansion.verdict == "violated"
        assert rep.robust_expansion.mode == "heuristic-exact"

    def test_sample_mode_never_certifies(self):
        rep = expander_check(Graph.complete(12), ExpanderParams(c=1.5), mode="sample",
                             seed=3, samples=200)
        assert rep.small_set_expansion.verdict in ("no_counterexample_found", "violated")
        assert rep.small_set_expansion.mode == "sampled"

    def test_sample_mode_finds_planted_violation(self):
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        pairs += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        g = from_edge_list(10, pairs)
        rep = expander_check(g, ExpanderParams(c=1.0), mode="sample", seed=1,
                             samples=500)
        assert rep.large_pair_edge.verdict == "violated"

    def test_exact_size_limit(self):
        with pytest.raises(ValueError):
            expander_check(Graph.complete(21), ExpanderParams(c=1.0), mode="exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            expander_check(Graph.complete(4), ExpanderParams(c=1.0), mode="quick")
