import json
import random

import pytest

from cyclespan import hamfinder, spanning
from cyclespan.experiments import ModelParams, sample_gnp
from cyclespan.gf2 import EdgeVector, Gf2Basis, cycle_space_basis, intersection_parity
from cyclespan.graph import Graph, from_edge_list, is_bipartite
from cyclespan.spanning import (
    HamiltonCycle,
    VerdictKind,
    WitnessR,
    confirm_spanning_sampled,
    decide_spanning_exact,
    enumerate_hamilton_cycles,
    extract_witness,
    hillclimb_flip_count,
    is_bipartition_form,
    normalize_witness,
    witness_certificate,
)

from util import (
    all_bipartition_cuts,
    batch_gf2_rank,
    edge_id_vertex_path,
    graph_from_mask,
    gray_loop_normalize,
    naive_two_opt_moves,
    permutation_hamilton_cycles,
    petersen,
    random_graph,
)


class TestEnumerator:
    def test_k4_has_three(self):
        assert len(list(enumerate_hamilton_cycles(Graph.complete(4)))) == 3

    def test_k5_has_twelve(self):
        assert len(list(enumerate_hamilton_cycles(Graph.complete(5)))) == 12

    def test_petersen_empty(self):
        assert list(enumerate_hamilton_cycles(petersen())) == []

    def test_petersen_matches_permutation_oracle(self):
        assert permutation_hamilton_cycles(petersen()) == set()

    def test_canonical_form(self):
        for hc in enumerate_hamilton_cycles(Graph.complete(5)):
            assert hc.order[0] == 0
            assert hc.order[1] < hc.order[-1]
            assert len(set(hc.order)) == 5
            assert hc.vector.weight == 5

    def test_limit(self):
        got = list(enumerate_hamilton_cycles(Graph.complete(6), limit=4))
        assert len(got) == 4

    def test_matches_oracle_on_corpus(self):
        rng = random.Random(42)
        corpus = [Graph.complete(4), Graph.complete(5), Graph.cycle(6),
                  Graph.path(5), Graph.complete(3)]
        for _ in range(30):
            corpus.append(random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.9)))
        for g in corpus:
            got = {hc.order for hc in enumerate_hamilton_cycles(g)}
            assert got == permutation_hamilton_cycles(g)


class TestHamiltonCycleType:
    def test_canonicalization(self):
        g = Graph.cycle(5)
        a = HamiltonCycle.from_order(g, [2, 3, 4, 0, 1])
        b = HamiltonCycle.from_order(g, [0, 4, 3, 2, 1])
        assert a == b and a.order[0] == 0 and a.order[1] == 1

    def test_rejects_non_cycle(self):
        g = Graph.path(4)
        with pytest.raises(ValueError):
            HamiltonCycle.from_order(g, [0, 1, 2, 3])

    def test_rejects_inner_non_edge(self):
        with pytest.raises(ValueError):
            HamiltonCycle.from_order(Graph.cycle(5), [0, 1, 3, 2, 4])


class TestDecideExact:
    def test_triangle(self):
        v = decide_spanning_exact(Graph.complete(3))
        assert v.kind is VerdictKind.SPANNED_EXACT
        assert v.rank_reached == v.dim_cycle_space == 1

    def test_k4_not_spanned(self):
        v = decide_spanning_exact(Graph.complete(4))
        assert v.kind is VerdictKind.NOT_SPANNED
        assert (v.rank_reached, v.dim_cycle_space) == (2, 3)
        assert v.witness is not None
        assert v.witness.even_with_all_hamilton and v.witness.odd_with_some_cycle

    def test_k5_spanned(self):
        v = decide_spanning_exact(Graph.complete(5))
        assert v.kind is VerdictKind.SPANNED_EXACT
        assert v.rank_reached == v.dim_cycle_space == 6
        assert len(v.certificate) == 6

    def test_tree_trivially_spanned(self):
        v = decide_spanning_exact(Graph.path(5))
        assert v.kind is VerdictKind.TRIVIALLY_SPANNED

    def test_non_hamiltonian_with_cycles(self):
        v = decide_spanning_exact(petersen())
        assert v.kind is VerdictKind.NOT_SPANNED
        assert v.rank_reached == 0 and v.witness is not None

    def test_budget_inconclusive(self):
        v = decide_spanning_exact(Graph.complete(8), budget=10)
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_rank_matches_batch_oracle(self):
        from util import batch_gf2_rank
        rng = random.Random(77)
        for _ in range(15):
            g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.4, 0.9))
            v = decide_spanning_exact(g)
            if v.kind is VerdictKind.TRIVIALLY_SPANNED:
                continue
            hams = [hc.vector.bits for hc in enumerate_hamilton_cycles(g)]
            assert v.rank_reached == batch_gf2_rank(hams, g.m)


def _assert_exact(g):
    """decide_spanning_exact against enumeration and batch elimination."""
    v = decide_spanning_exact(g)
    assert v.kind is not VerdictKind.INCONCLUSIVE
    hams = [hc.vector for hc in enumerate_hamilton_cycles(g)]
    assert v.rank_reached == batch_gf2_rank([h.bits for h in hams], g.m)
    if v.kind is VerdictKind.NOT_SPANNED:
        assert all(intersection_parity(v.witness.vector, h) == 0 for h in hams)
        assert any(intersection_parity(v.witness.vector, z) for z in cycle_space_basis(g))
    return v


def _pendant_triangle_graph(rng, n, p):
    """Odd n, vertex n-1 of degree 2 with adjacent neighbors.

    No Hamilton cycle uses the edge between those neighbors, so spanning
    fails although the parity bound says nothing for odd n: only the
    parity DP can prove the witness.
    """
    base = random_graph(rng, n - 1, p)
    a, b = rng.sample(range(n - 1), 2)
    pairs = set(base.edges) | {(min(a, b), max(a, b))}
    return from_edge_list(n, sorted(pairs) + [(a, n - 1), (b, n - 1)])


@pytest.fixture
def dp_calls(monkeypatch):
    calls = []
    real = spanning._odd_hamilton_cycle

    def counted(g, r_bits):
        calls.append(g.n)
        return real(g, r_bits)

    monkeypatch.setattr(spanning, "_odd_hamilton_cycle", counted)
    return calls


class TestDecideExactDifferential:
    def test_every_labelled_graph_up_to_five(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                _assert_exact(graph_from_mask(n, mask))

    def test_seeded_graphs_six_to_ten(self):
        rng = random.Random(610)
        for _ in range(60):
            _assert_exact(random_graph(rng, rng.randint(6, 10), rng.uniform(0.3, 0.8)))

    def test_odd_graphs_with_degree_two_vertex_run_the_dp(self, dp_calls):
        rng = random.Random(611)
        for n in (7, 9, 9, 11):
            v = _assert_exact(_pendant_triangle_graph(rng, n, 0.7))
            assert v.kind is VerdictKind.NOT_SPANNED
        assert dp_calls

    def test_parity_dp_matches_enumeration(self):
        rng = random.Random(612)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.3, 0.9))
            r = rng.getrandbits(g.m) if g.m else 0
            hams = list(enumerate_hamilton_cycles(g))
            hamiltonian, order = spanning._odd_hamilton_cycle(g, r)
            assert hamiltonian == bool(hams)
            assert (order is not None) == any((hc.vector.bits & r).bit_count() % 2
                                              for hc in hams)
            if order is not None:
                hc = HamiltonCycle.from_order(g, order)
                assert (hc.vector.bits & r).bit_count() % 2 == 1

    def test_dp_over_budget_is_skipped(self, dp_calls):
        g = _pendant_triangle_graph(random.Random(613), 9, 0.7)
        v = decide_spanning_exact(g, budget=2 ** 8 * 9 * 2 - 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert dp_calls == []

    def test_sampled_never_spanned_where_exact_refutes(self):
        rng = random.Random(614)
        refuted = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(5, 12), rng.uniform(0.5, 0.9))
            if decide_spanning_exact(g).kind is not VerdictKind.NOT_SPANNED:
                continue
            refuted += 1
            sampled = confirm_spanning_sampled(
                g, budget=spanning.cycle_space_dim(g) + 20, seed=rng.getrandbits(32))
            assert sampled.spanned is not True
        assert refuted >= 10

    @pytest.mark.parametrize("n, p, kind", [
        (16, 0.6, VerdictKind.NOT_SPANNED),
        (15, 0.7, VerdictKind.SPANNED_EXACT),
    ])
    def test_roadmap_cases_decided_under_default_budget(self, n, p, kind):
        g = random_graph(random.Random(0), n, p)
        v = decide_spanning_exact(g)
        assert v.kind is kind
        if kind is VerdictKind.NOT_SPANNED:
            assert v.rank_reached == v.dim_cycle_space - 1
            assert all(intersection_parity(v.witness.vector, hc.vector) == 0
                       for hc in v.certificate)


    # Certificate orders and witness of the exact decider; the harvested
    # 2-opt cycles are among them.
    @pytest.mark.parametrize("n, p, kind, orders, witness_hex", [
        (9, 0.6, VerdictKind.SPANNED_EXACT, [
            [0, 2, 4, 8, 1, 7, 6, 5, 3], [0, 2, 4, 8, 5, 6, 7, 1, 3],
            [0, 2, 4, 8, 1, 7, 5, 6, 3], [0, 2, 4, 8, 1, 7, 6, 3, 5],
            [0, 2, 4, 8, 5, 3, 1, 7, 6], [0, 2, 4, 8, 1, 3, 5, 7, 6],
            [0, 1, 7, 6, 3, 5, 8, 4, 2], [0, 2, 6, 3, 1, 7, 4, 8, 5],
            [0, 2, 4, 7, 1, 8, 5, 3, 6], [0, 3, 5, 8, 1, 7, 4, 2, 6],
            [0, 6, 2, 4, 7, 1, 3, 5, 8]], None),
        (8, 0.8, VerdictKind.NOT_SPANNED, [
            [0, 2, 5, 4, 6, 3, 1, 7], [0, 3, 6, 4, 5, 2, 1, 7], [0, 5, 2, 4, 6, 3, 1, 7],
            [0, 6, 4, 5, 2, 3, 1, 7], [0, 2, 3, 6, 4, 5, 1, 7], [0, 2, 5, 4, 3, 6, 1, 7],
            [0, 2, 5, 4, 6, 1, 3, 7], [0, 1, 7, 3, 6, 4, 5, 2], [0, 1, 6, 4, 5, 2, 3, 7],
            [0, 3, 2, 5, 4, 6, 1, 7], [0, 5, 4, 6, 1, 2, 3, 7], [0, 6, 1, 4, 5, 2, 3, 7],
            [0, 1, 5, 4, 6, 2, 3, 7]], "c73101"),
    ])
    def test_golden_exact_certificate(self, n, p, kind, orders, witness_hex):
        v = decide_spanning_exact(random_graph(random.Random(2026), n, p))
        assert v.kind is kind
        assert [list(hc.order) for hc in v.certificate] == orders
        assert (v.witness and v.witness.vector.to_hex()) == witness_hex


def _harvest_cases():
    """(graph, Hamilton cycle): K5..K9 and 30 seeded Hamiltonian graphs, n = 5..12."""
    graphs = [Graph.complete(n) for n in range(5, 10)]
    rng = random.Random(616)
    while len(graphs) < 35:
        g = random_graph(rng, rng.randint(5, 12), rng.uniform(0.4, 0.9))
        if next(enumerate_hamilton_cycles(g, limit=1), None) is not None:
            graphs.append(g)
    return [(g, next(enumerate_hamilton_cycles(g, limit=1))) for g in graphs]


def _four_cycles(g, h):
    """Vector of the 4-cycle of each naive 2-opt move of h, in scan order."""
    n = len(h)
    moves = sorted(naive_two_opt_moves(g, h), key=lambda ij: (ij[0], h[ij[1]]))
    return [edge_id_vertex_path(g, [h[i], h[(i + 1) % n], h[(j + 1) % n], h[j]],
                                closed=True) for i, j in moves]


class _RecordingBasis(Gf2Basis):
    """A basis that records the bits of every vector inserted."""

    def __init__(self, m):
        super().__init__(m)
        self.calls = []

    def insert(self, v):
        self.calls.append(v.bits)
        return super().insert(v)


def _recording_sampler(g):
    sampler = spanning._CycleSampler(g, 0)
    sampler.basis = _RecordingBasis(g.m)
    return sampler


class TestTwoOptHarvest:
    def test_tries_every_move_once_in_scan_order(self):
        for g, hc in _harvest_cases():
            want = [hc.vector.bits ^ c4 for c4 in _four_cycles(g, list(hc.order))]
            sampler = _recording_sampler(g)
            sampler.harvest(hc.order, budget=10**9, bound=10**9)
            assert sampler.basis.calls == want
            assert sampler.counter.steps == len(want)

    def test_harvested_cycles_are_hamiltonian_two_opt_neighbours(self):
        for g, hc in _harvest_cases():
            four_cycles = set(_four_cycles(g, list(hc.order)))
            sampler = spanning._CycleSampler(g, 0)
            sampler.harvest(hc.order, budget=10**9, bound=10**9)
            assert sampler.rank == len(sampler.certificate) > 0
            edges = set(g.edges)
            for new in sampler.certificate:
                assert sorted(new.order) == list(range(g.n))
                pairs = list(zip(new.order, new.order[1:] + new.order[:1]))
                assert all((min(u, w), max(u, w)) in edges for u, w in pairs)
                assert new.vector.bits == edge_id_vertex_path(g, list(new.order), closed=True)
                assert new.vector.bits ^ hc.vector.bits in four_cycles
            vectors = [c.vector.bits for c in sampler.certificate]
            assert batch_gf2_rank(vectors, g.m) == len(vectors)

    def test_stops_at_budget_and_at_bound(self):
        g, hc = Graph.complete(8), next(enumerate_hamilton_cycles(Graph.complete(8), limit=1))
        sampler = _recording_sampler(g)
        sampler.counter.steps = 100
        sampler.harvest(hc.order, budget=103, bound=10**9)
        assert len(sampler.basis.calls) == 3 and sampler.counter.steps == 103
        sampler = spanning._CycleSampler(g, 0)
        assert sampler.harvest(hc.order, budget=10**9, bound=2)
        assert sampler.rank == 2
        assert not sampler.harvest(hc.order, budget=10**9, bound=2)


class TestConfirmSampled:
    def test_c5_confirmed_first_sample(self):
        v = confirm_spanning_sampled(Graph.cycle(5), budget=1, seed=0)
        assert v.kind is VerdictKind.SPANNED_CONFIRMED
        assert len(v.certificate) == 1

    def test_k5_confirmed_within_20(self):
        v = confirm_spanning_sampled(Graph.complete(5), budget=20, seed=0)
        assert v.kind is VerdictKind.SPANNED_CONFIRMED
        assert v.rank_reached == 6

    def test_petersen_inconclusive(self):
        v = confirm_spanning_sampled(petersen(), budget=100, seed=0)
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_forest_trivial(self):
        v = confirm_spanning_sampled(Graph.path(6), budget=10, seed=0)
        assert v.kind is VerdictKind.TRIVIALLY_SPANNED

    def test_deterministic(self):
        a = confirm_spanning_sampled(Graph.complete(6), budget=30, seed=5)
        b = confirm_spanning_sampled(Graph.complete(6), budget=30, seed=5)
        assert a.kind == b.kind
        assert [hc.order for hc in a.certificate] == [hc.order for hc in b.certificate]


    # Certificate orders of the fresh-draw stream, recorded when it was
    # still the sampled confirmer's only sampler.  The exact decider draws
    # from it, so it must not move.
    @pytest.mark.parametrize("n, p, kind, orders", [
        (9, 0.6, VerdictKind.SPANNED_CONFIRMED, [
            [0, 1, 8, 4, 7, 5, 3, 6, 2], [0, 5, 3, 1, 7, 6, 2, 4, 8],
            [0, 2, 4, 8, 5, 7, 1, 3, 6], [0, 2, 4, 7, 6, 5, 3, 1, 8],
            [0, 2, 6, 5, 3, 1, 7, 4, 8], [0, 1, 3, 5, 8, 4, 7, 6, 2],
            [0, 3, 6, 2, 4, 8, 1, 7, 5], [0, 2, 4, 8, 1, 7, 5, 6, 3],
            [0, 6, 2, 4, 7, 5, 3, 1, 8], [0, 3, 5, 7, 1, 8, 4, 2, 6],
            [0, 1, 7, 5, 8, 4, 2, 6, 3]]),
        (11, 0.5, VerdictKind.INCONCLUSIVE, [
            [0, 1, 8, 4, 10, 5, 9, 3, 7, 2, 6], [0, 1, 8, 4, 10, 6, 2, 7, 3, 9, 5],
            [0, 1, 8, 4, 10, 7, 2, 6, 3, 9, 5], [0, 1, 8, 4, 10, 3, 6, 2, 7, 9, 5],
            [0, 1, 8, 4, 10, 3, 9, 5, 7, 2, 6], [0, 1, 8, 4, 10, 3, 9, 7, 2, 6, 5]]),
    ])
    def test_golden_certificate(self, n, p, kind, orders):
        g = random_graph(random.Random(2026), n, p)
        dim = spanning.cycle_space_dim(g)
        sampler = spanning._CycleSampler(g, 5)
        while sampler.attempts < dim + 10 and sampler.rank < dim:
            sampler.draw(30_000)
        v = sampler.verdict(VerdictKind.SPANNED_CONFIRMED if sampler.rank == dim
                            else VerdictKind.INCONCLUSIVE, dim)
        assert v.kind is kind
        assert [list(hc.order) for hc in v.certificate] == orders

    # Certificate orders of the chain sampler on the same graphs.
    @pytest.mark.parametrize("n, p, kind, orders", [
        (9, 0.6, VerdictKind.SPANNED_CONFIRMED, [
            [0, 1, 8, 4, 7, 5, 3, 6, 2], [0, 2, 6, 5, 8, 4, 7, 1, 3],
            [0, 3, 1, 8, 5, 7, 4, 2, 6], [0, 2, 4, 7, 6, 5, 3, 1, 8],
            [0, 1, 8, 5, 7, 4, 2, 6, 3], [0, 1, 3, 6, 2, 4, 7, 5, 8],
            [0, 1, 7, 5, 3, 6, 2, 4, 8], [0, 1, 7, 5, 8, 4, 2, 6, 3],
            [0, 2, 6, 7, 4, 8, 1, 3, 5], [0, 2, 4, 7, 6, 3, 1, 8, 5],
            [0, 5, 7, 4, 2, 6, 3, 1, 8]]),
        (11, 0.5, VerdictKind.INCONCLUSIVE, [
            [0, 1, 8, 4, 10, 5, 9, 3, 7, 2, 6], [0, 1, 8, 4, 10, 3, 9, 5, 7, 2, 6],
            [0, 1, 8, 4, 10, 3, 6, 2, 7, 9, 5], [0, 1, 8, 4, 10, 3, 9, 7, 2, 6, 5],
            [0, 1, 8, 4, 10, 7, 2, 6, 3, 9, 5], [0, 1, 8, 4, 10, 6, 2, 7, 3, 9, 5]]),
    ])
    def test_golden_chain_certificate(self, n, p, kind, orders):
        g = random_graph(random.Random(2026), n, p)
        v = confirm_spanning_sampled(g, budget=spanning.cycle_space_dim(g) + 10, seed=5)
        assert v.kind is kind
        assert [list(hc.order) for hc in v.certificate] == orders

    def test_chain_certificate_cycles_are_hamiltonian(self):
        g = sample_gnp(ModelParams(n=101, f=3.0, seed=11))
        v = confirm_spanning_sampled(g, budget=spanning.cycle_space_dim(g) + 50, seed=3)
        assert v.kind is VerdictKind.SPANNED_CONFIRMED
        edges = set(g.edges)
        for hc in v.certificate:
            assert sorted(hc.order) == list(range(g.n))
            for u, w in zip(hc.order, hc.order[1:] + hc.order[:1]):
                assert (min(u, w), max(u, w)) in edges
            assert hc.vector.bits == sum(1 << g.edge_id(u, w) for u, w in
                                         zip(hc.order, hc.order[1:] + hc.order[:1]))

    def test_chain_deterministic_per_seed(self):
        g = sample_gnp(ModelParams(n=51, f=3.0, seed=4))
        budget = spanning.cycle_space_dim(g) + 50
        runs = [confirm_spanning_sampled(g, budget=budget, seed=s) for s in (8, 8, 9)]
        orders = [[hc.order for hc in v.certificate] for v in runs]
        assert runs[0].kind is VerdictKind.SPANNED_CONFIRMED
        assert orders[0] == orders[1]
        assert orders[0] != orders[2]

    def test_chain_out_of_rotations_falls_back_to_draw(self, monkeypatch):
        calls = []
        real_draw, real_chain = spanning._CycleSampler.draw, spanning._CycleSampler.chain

        def draw(self, rotation_budget):
            calls.append("draw")
            return real_draw(self, rotation_budget)

        def chain(self, rotation_budget):
            calls.append("chain")
            return real_chain(self, rotation_budget)

        monkeypatch.setattr(spanning._CycleSampler, "draw", draw)
        monkeypatch.setattr(spanning._CycleSampler, "chain", chain)
        # K6 needs 4 extensions per draw, but a chain step needs more
        # rotations than the budget allows, so every chain step fails.
        budget = spanning._CHAIN_MIN_ROTATIONS - 1
        v = confirm_spanning_sampled(Graph.complete(6), budget=12, seed=0,
                                     rotation_budget=budget)
        assert calls == ["draw", "chain"] * 6
        assert v.rank_reached == len(v.certificate) > 0

    @pytest.mark.parametrize("g", [
        from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 4)]),
    ])
    def test_no_hamilton_cycle_possible_returns_at_once(self, g, monkeypatch):
        calls = []
        real = hamfinder.rotation_extension_path
        monkeypatch.setattr(hamfinder, "rotation_extension_path",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        v = confirm_spanning_sampled(g, budget=100, seed=0)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.rank_reached == 0 and v.certificate == ()
        assert v.dim_cycle_space == spanning.cycle_space_dim(g) > 0
        assert calls == []

    def test_stalled_chain_draws_through_an_uncovered_edge(self, monkeypatch):
        # On this graph the chain alone stays one rank short after dim + 50
        # attempts: every cycle it finds avoids one rarely used edge.
        g = sample_gnp(ModelParams(n=101, f=3.0, seed=434))
        dim = spanning.cycle_space_dim(g)
        with monkeypatch.context() as m:
            m.setattr(spanning, "_CHAIN_PATIENCE", dim + 50)
            v = confirm_spanning_sampled(g, budget=dim + 50, seed=434)
        assert v.kind is VerdictKind.INCONCLUSIVE and v.rank_reached == dim - 1
        targeted = []
        real_draw = spanning._CycleSampler.draw

        def draw(self, rotation_budget, edge=None):
            if edge is not None:
                uses = [hc.vector.bits >> edge & 1 for hc in self.certificate]
                targeted.append((edge, any(uses)))
            return real_draw(self, rotation_budget, edge)

        monkeypatch.setattr(spanning._CycleSampler, "draw", draw)
        v = confirm_spanning_sampled(g, budget=dim + 50, seed=434)
        assert v.kind is VerdictKind.SPANNED_CONFIRMED
        assert targeted and not any(used for _, used in targeted)
        assert len({e for e, _ in targeted}) == len(targeted)

    def test_chain_closes_near_dim_at_threshold(self, monkeypatch):
        samplers = []

        class Spy(spanning._CycleSampler):
            def __init__(self, *args):
                super().__init__(*args)
                samplers.append(self)

        monkeypatch.setattr(spanning, "_CycleSampler", Spy)
        checked = 0
        for s in range(40):
            g = sample_gnp(ModelParams(n=101, f=3.0, seed=9000 + s))
            if g.min_degree() < 3:
                continue
            dim = spanning.cycle_space_dim(g)
            v = confirm_spanning_sampled(g, budget=dim + 50, seed=s)
            assert v.kind is VerdictKind.SPANNED_CONFIRMED
            assert samplers[-1].attempts - dim <= 20
            checked += 1
            if checked == 20:
                break
        assert checked == 20


class TestExtractWitness:
    def test_k4_witness_with_triangle_checkable(self):
        g = Graph.complete(4)
        hams = list(enumerate_hamilton_cycles(g))
        w = extract_witness(g, hams)
        assert w is not None
        assert all(intersection_parity(w.vector, h.vector) == 0 for h in hams)
        assert any(intersection_parity(w.vector, z) == 1 for z in cycle_space_basis(g))
        # The specific triangle {01, 02, 12} also satisfies the predicate.
        tri = EdgeVector.from_pairs(g, [(0, 1), (0, 2), (1, 2)])
        assert all(intersection_parity(tri, h.vector) == 0 for h in hams)
        assert intersection_parity(tri, tri) == 1

    def test_c5_absent(self):
        g = Graph.cycle(5)
        assert extract_witness(g, list(enumerate_hamilton_cycles(g))) is None

    def test_tree_absent(self):
        g = Graph.path(4)
        assert extract_witness(g, []) is None


class TestNormalize:
    def test_k4_triangle_hillclimb_fills(self):
        g = Graph.complete(4)
        tri = WitnessR.unverified(EdgeVector.from_pairs(g, [(0, 1), (0, 2), (1, 2)]))
        out = normalize_witness(g, tri, mode="hillclimb")
        assert out.size == 6 and out.vector == EdgeVector.full(6)
        assert out.normalized

    def test_fixpoint_unchanged(self):
        g = Graph.cycle(4)
        r = WitnessR.unverified(EdgeVector.full(g.m))
        out = normalize_witness(g, r, mode="hillclimb")
        assert out.vector == r.vector
        assert hillclimb_flip_count(g, r) == 0

    def test_hillclimb_reaches_half_degree_everywhere(self):
        rng = random.Random(10)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.9))
            r = WitnessR.unverified(EdgeVector(rng.getrandbits(g.m) if g.m else 0, g.m))
            flips = hillclimb_flip_count(g, r)
            assert flips <= sum(g.degree(v) for v in range(g.n))
            out = normalize_witness(g, r, mode="hillclimb")
            for v in range(g.n):
                star = g.star_bits(v)
                assert 2 * (star & out.vector.bits).bit_count() >= star.bit_count()

    def test_pairings_preserved(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 10), 0.6)
            r = WitnessR.unverified(EdgeVector(rng.getrandbits(g.m) if g.m else 0, g.m))
            out = normalize_witness(g, r, mode="hillclimb")
            for z in cycle_space_basis(g):
                assert intersection_parity(r.vector, z) == intersection_parity(out.vector, z)

    def test_exact_mode_maximizes_and_satisfies_cut_bound(self):
        rng = random.Random(14)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 7), 0.7)
            r = WitnessR.unverified(EdgeVector(rng.getrandbits(g.m) if g.m else 0, g.m))
            out = normalize_witness(g, r, mode="exact")
            # No cut flip can enlarge it; check every partition directly.
            for cut in all_bipartition_cuts(g):
                e_cut = cut.bit_count()
                e_r_cut = (cut & out.vector.bits).bit_count()
                assert 2 * e_r_cut >= e_cut
            assert out.size >= r.size

    @pytest.mark.parametrize("block_bits", [12, 3, 1])
    def test_exact_sweep_matches_gray_loop(self, monkeypatch, block_bits):
        monkeypatch.setattr(spanning, "_SWEEP_BLOCK_BITS", block_bits)
        rng = random.Random(15)
        graphs = [random_graph(rng, rng.randint(2, 12), rng.uniform(0.2, 0.9))
                  for _ in range(30)]
        # Three components of 5, 4 and 2 vertices, plus an isolated vertex.
        graphs.append(from_edge_list(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2),
                                          (5, 6), (6, 7), (7, 8), (8, 5), (5, 7), (9, 10)]))
        for g in graphs:
            for _ in range(3):
                bits = rng.getrandbits(g.m) if g.m else 0
                out = normalize_witness(g, WitnessR.unverified(EdgeVector(bits, g.m)),
                                        mode="exact")
                assert out.vector.bits == gray_loop_normalize(g, bits)
                assert out.size == out.vector.bits.bit_count()

    def test_exact_mode_size_limit(self):
        g = Graph.path(30)
        with pytest.raises(ValueError):
            normalize_witness(g, WitnessR.unverified(EdgeVector.zero(g.m)), mode="exact")

    def test_unknown_mode(self):
        g = Graph.path(3)
        with pytest.raises(ValueError):
            normalize_witness(g, WitnessR.unverified(EdgeVector.zero(g.m)), mode="bogus")


class TestBipartitionForm:
    def test_k4_cut_true(self):
        g = Graph.complete(4)
        cut = EdgeVector.from_pairs(g, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_bipartition_form(g, cut)

    def test_k4_triangle_false(self):
        g = Graph.complete(4)
        tri = EdgeVector.from_pairs(g, [(0, 1), (0, 2), (1, 2)])
        assert not is_bipartition_form(g, tri)

    def test_c6_alternating_false(self):
        g = Graph.cycle(6)
        alt = EdgeVector.from_pairs(g, [(0, 1), (2, 3), (4, 5)])
        assert not is_bipartition_form(g, alt)

    def test_empty_set_is_trivial_cut(self):
        g = Graph.complete(4)
        assert is_bipartition_form(g, EdgeVector.zero(g.m))

    def test_matches_partition_oracle(self):
        rng = random.Random(15)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            cuts = all_bipartition_cuts(g)
            for _ in range(8):
                bits = rng.getrandbits(g.m) if g.m else 0
                assert is_bipartition_form(g, EdgeVector(bits, g.m)) == (bits in cuts)


def test_parity_obstruction_small_sample():
    # Even n, non-bipartite, Hamiltonian: spanning must fail.
    rng = random.Random(70)
    found = 0
    while found < 10:
        g = random_graph(rng, 6, rng.uniform(0.5, 0.9))
        if is_bipartite(g):
            continue
        if not next(iter(enumerate_hamilton_cycles(g, limit=1)), None):
            continue
        assert decide_spanning_exact(g).kind is VerdictKind.NOT_SPANNED
        found += 1


def test_witness_certificate_json():
    g = Graph.complete(4)
    verdict = decide_spanning_exact(g)
    doc = json.loads(witness_certificate(g, verdict))
    assert doc["verdict"] == "NotSpanned"
    assert doc["rank"] == 2 and doc["dim"] == 3
    vec = EdgeVector.from_hex(doc["witness_hex"], g.m)
    hams = list(enumerate_hamilton_cycles(g))
    assert all(intersection_parity(vec, h.vector) == 0 for h in hams)
    assert isinstance(doc["bipartition_form"], bool)
