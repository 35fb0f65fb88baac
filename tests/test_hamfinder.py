import hashlib
import itertools
import random

import pytest

from cyclespan import hamfinder
from cyclespan.experiments import ModelParams, sample_gnp
from cyclespan.graph import Graph, VertexSet, from_edge_list
from cyclespan.hamfinder import (
    StepCounter,
    hamilton_path_protected,
    lll_split,
    rotate_cycle,
    rotation_extension_path,
)

from util import loop_lll_split, mask_rotate_cycle, random_graph, restrict_closing_path


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


class TestRotationExtensionWithin:
    def _cases(self):
        """Seeded graphs, a vertex set, two of its vertices, a budget and a seed."""
        rng = random.Random(21)
        for t in range(120):
            n = rng.randint(3, 40)
            g = random_graph(rng, n, rng.uniform(0.1, 0.8))
            within = VertexSet.of(n, [v for v in range(n) if rng.random() < rng.uniform(0.3, 1)])
            if len(within) < 2:
                continue
            x, y = rng.sample(within.to_list(), 2)
            yield g, within, x, y, rng.choice((50, 3_000, 20_000)), t

    def test_matches_restricted_copy(self):
        found = cut_off = 0
        for g, within, x, y, budget, seed in self._cases():
            counter = StepCounter()
            got = rotation_extension_path(g, x, y, budget=budget, seed=seed,
                                          counter=counter, within=within)
            want, steps = restrict_closing_path(g, within, x, y, budget, seed)
            assert got == want
            assert counter.steps == steps
            found += got is not None
            comp = next(c for c in Graph(g.n, [e for e in g.edges if e[0] in within
                                               and e[1] in within]).components() if x in c)
            if y not in comp:
                assert got is None
                cut_off += 1
        assert found >= 20 and cut_off >= 5

    def test_two_vertex_set(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert rotation_extension_path(g, 3, 2, within=VertexSet.of(5, [2, 3])) == [3, 2]
        assert rotation_extension_path(g, 1, 3, within=VertexSet.of(5, [1, 3])) is None
        assert restrict_closing_path(g, VertexSet.of(5, [1, 3]), 1, 3, 1_000, 0) == (None, 0)

    def test_endpoint_outside_set_rejected(self):
        within = VertexSet.of(6, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="outside"):
            rotation_extension_path(Graph.complete(6), 0, 4, within=within)
        with pytest.raises(ValueError, match="outside"):
            rotation_extension_path(Graph.complete(6), 5, 1, within=within)
        with pytest.raises(ValueError, match="universe"):
            rotation_extension_path(Graph.complete(6), 0, 1, within=VertexSet.full(7))


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

    def _cycles(self):
        """Graphs with one Hamilton cycle each: seeded G(n, p), K_n, C_n."""
        rng = random.Random(11)
        for t in range(40):
            n = rng.randint(3, 60)
            g = random_graph(rng, n, rng.uniform(0.15, 0.9))
            if g.m:
                yield g, rotation_extension_path(g, *g.edges[0], budget=30_000, seed=t)
        for t in range(4):
            g = sample_gnp(ModelParams(n=101, f=3, seed=500 + t))
            if g.min_degree() >= 2:
                yield g, rotation_extension_path(g, *g.edges[0], budget=200_000, seed=t)
        for n in (3, 4, 9, 30):
            yield Graph.complete(n), list(range(n))
            yield Graph.cycle(n), list(range(n))

    def test_matches_mask_reference(self):
        checked = 0
        for g, order in self._cycles():
            if order is None:
                continue
            for cut in {0, 1, g.n // 2, g.n - 1}:
                for seed in (1, 77, 4096):
                    for min_rot in (0, 10):
                        for budget in (min_rot - 1, 50, 30_000):
                            counter = StepCounter()
                            got = rotate_cycle(g, order, cut, min_rot, budget, seed,
                                               counter=counter)
                            want, steps = mask_rotate_cycle(g, order, cut, min_rot,
                                                            budget, seed)
                            assert got == want
                            assert counter.steps == steps
                            checked += want is not None
        assert checked > 1_000


def _count_samples(monkeypatch) -> list:
    """Record every `sample` call of the generators lll_split creates."""
    calls = []

    class Counting(random.Random):
        def sample(self, *args, **kwargs):
            calls.append(args)
            return super().sample(*args, **kwargs)

    monkeypatch.setattr(hamfinder.random, "Random", Counting)
    return calls


def _floors_hold(g, y_mask: int, a_mask: int, a: int) -> bool:
    size = y_mask.bit_count()
    b_mask = y_mask & ~a_mask
    for v in range(g.n):
        adj = g.adj_bits(v)
        deg_y = (adj & y_mask).bit_count()
        if 3 * size * (adj & a_mask).bit_count() < a * deg_y:
            return False
        if 3 * size * (adj & b_mask).bit_count() < (size - a) * deg_y:
            return False
    return True


class TestLllSplit:
    def test_k6_balanced(self):
        g = Graph.complete(6)
        out = lll_split(g, VertexSet.full(6), seed=1)
        assert out is not None
        a, b = out
        assert len(a) == 3 and len(b) == 3
        assert (a.mask & b.mask) == 0 and (a.mask | b.mask) == VertexSet.full(6).mask

    def test_independent_target_is_vacuous(self):
        # Y with no internal or incident edges puts every floor at zero.
        g = from_edge_list(6, [(0, 1)])
        y = VertexSet.of(6, [2, 3, 4, 5])
        out = lll_split(g, y, seed=0)
        assert out is not None

    def test_single_y_neighbor_is_infeasible(self):
        # A vertex with exactly one neighbor in Y can never satisfy both
        # positive floors.
        g = from_edge_list(4, [(0, 1), (2, 3)])
        y = VertexSet.of(4, [1, 2, 3])
        out = lll_split(g, y, retries=50, seed=0)
        assert out is None

    def test_star_center_needs_two_leaves_per_side(self):
        # Star center with 10 leaves as Y, split 5/5: the center's floor
        # is (5/30)*10, so it needs at least 2 leaves on each side, which
        # every balanced split of the leaves provides.
        g = from_edge_list(11, [(0, i) for i in range(1, 11)])
        y = VertexSet.of(11, range(1, 11))
        out = lll_split(g, y, seed=3)
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
            out = lll_split(g, y, seed=rng.randrange(99))
            if out is None:
                continue
            sa, sb = out
            size = len(members)
            for v in range(n):
                deg_y = (g.adj_bits(v) & y.mask).bit_count()
                assert 3 * size * (g.adj_bits(v) & sa.mask).bit_count() >= a * deg_y
                assert 3 * size * (g.adj_bits(v) & sb.mask).bit_count() >= (size - a) * deg_y

    def test_infeasible_request_draws_nothing(self, monkeypatch):
        calls = _count_samples(monkeypatch)
        g = from_edge_list(4, [(0, 1), (2, 3)])
        y = VertexSet.of(4, [1, 2, 3])
        assert lll_split(g, y, retries=50, seed=0) is None
        assert calls == []
        k6 = Graph.complete(6)
        assert lll_split(k6, VertexSet.full(6), seed=1) is not None
        assert calls

    def test_up_front_none_only_when_no_split_exists(self, monkeypatch):
        rng = random.Random(12)
        calls = _count_samples(monkeypatch)
        fired = 0
        for _ in range(80):
            n = rng.randint(3, 10)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            members = [v for v in range(n) if rng.random() < 0.7]
            if len(members) < 2:
                continue
            y = VertexSet.of(n, members)
            a = len(members) // 2
            calls.clear()
            out = lll_split(g, y, retries=3, seed=0)
            if calls:
                continue
            fired += 1
            assert out is None
            for chosen in itertools.combinations(members, a):
                a_mask = VertexSet.of(n, chosen).mask
                assert not _floors_hold(g, y.mask, a_mask, a)
        assert fired >= 5

    def test_matches_per_vertex_loop(self):
        # Splits of seeded Y at retries=5: infeasible requests, feasible ones
        # whose five draws all fail, and ones that succeed must all agree.
        rng = random.Random(8)
        kinds = {"infeasible": 0, "ran out": 0, "split": 0}
        for t in range(400):
            n = rng.randint(4, 40)
            g = random_graph(rng, n, rng.uniform(0.05, 0.7))
            members = [v for v in range(n) if rng.random() < 0.6]
            if len(members) < 2:
                continue
            y = VertexSet.of(n, members)
            got = lll_split(g, y, retries=5, seed=t)
            want = loop_lll_split(g, y, retries=5, seed=t)
            assert (got and (got[0].mask, got[1].mask)) == want
            if not hamfinder.split_feasible(g, y):
                kinds["infeasible"] += 1
            else:
                kinds["ran out" if got is None else "split"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_size_validation(self):
        g = Graph.complete(4)
        for y in (VertexSet(4), VertexSet.of(4, [2]), VertexSet.full(5)):
            with pytest.raises(ValueError):
                lll_split(g, y, seed=0)
            with pytest.raises(ValueError):
                hamfinder.split_feasible(g, y)


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

    def test_escorts_stay_with_their_vertex_after_a_reshuffle(self):
        # Vertex 10 sees 2..5 and vertex 11 only 2, 3.  A first pass that
        # escorts 10 by 2 or 3 leaves 11 short, so the escort picker
        # reshuffles; its escorts must still sit next to their own vertex.
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        pairs += [(10, v) for v in (2, 3, 4, 5)] + [(11, 2), (11, 3)]
        g = from_edge_list(12, pairs)
        for seed in range(20):
            res = hamilton_path_protected(g, VertexSet.full(12), 0, 1, seed=seed,
                                          small=VertexSet.of(12, [10, 11]))
            assert res.ok and sorted(res.path) == list(range(12))
            i = res.path.index(11)
            assert {res.path[i - 1], res.path[i + 1]} == {2, 3}

    def test_on_subset(self):
        g = Graph.complete(9)
        s = VertexSet.of(9, [0, 2, 4, 6, 8])
        res = hamilton_path_protected(g, s, 0, 8, seed=1)
        assert res.ok and sorted(res.path) == [0, 2, 4, 6, 8]


def _sheltered_calls():
    """Seeded G(61, p) with three vertices declared low-degree, and the endpoints."""
    rng = random.Random(61)
    for t in range(200):
        g = random_graph(rng, 61, rng.uniform(0.08, 0.3))
        x, y, *small = rng.sample(range(61), 5)
        yield t, g, x, y, VertexSet.of(61, small)


def test_sheltered_path_golden():
    # Pins the escort, split, hub-linkage and closing stages, which the
    # refutation's golden rows never reach at n = 101 (no low-degree
    # vertex there): ten trials that succeed and some that stop at each stage.
    rows = []
    for t, g, x, y, small in _sheltered_calls():
        if t not in SHELTERED_STAGES:
            continue
        try:
            res = hamilton_path_protected(g, VertexSet.full(61), x, y, seed=t, small=small)
        except ValueError as exc:
            rows.append((t, "ValueError", str(exc)))
            assert SHELTERED_STAGES[t] == "ValueError"
            continue
        assert res.failed_stage == SHELTERED_STAGES[t]
        rows.append((t, res.path, res.failed_stage))
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == SHELTERED_ROWS


SHELTERED_STAGES = {
    **dict.fromkeys((0, 1, 2, 4, 5, 7, 9, 11, 12, 14)),
    3: "split", 6: "split", 8: "ValueError", 123: "escort",
    118: "linkage", 156: "linkage", 199: "linkage",
    10: "closing", 93: "closing", 133: "closing",
}
SHELTERED_ROWS = "1c6c296845ecb9bd"
