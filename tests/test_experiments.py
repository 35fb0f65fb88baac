import math
import random

import pytest

from cyclespan import experiments
from cyclespan.experiments import (
    CellSpec,
    ExperimentConfig,
    ModelParams,
    half_degree_holds,
    property_report,
    read_trials_csv,
    run_experiment,
    sample_gnp,
    threshold_p,
)
from cyclespan.gf2 import EdgeVector, intersection_parity
from cyclespan.graph import Graph, VertexSet, from_edge_list
from cyclespan.refute import refutation_pipeline, synthetic_witness
from cyclespan.spanning import WitnessR, enumerate_hamilton_cycles, is_bipartition_form

from util import petersen, random_graph

_real_run_trial = experiments._run_trial


def _trial_failing_on_task_3(task):
    if task[1:3] == (0, 3):
        raise RuntimeError("trial 3 failed")
    return _real_run_trial(task)


class TestThresholdP:
    def test_n101_f3_value(self):
        want = (math.log(101) + 2 * math.log(math.log(101)) + 3) / 101
        got = threshold_p(101, 3)
        assert got == pytest.approx(want, abs=0)
        assert got == pytest.approx(0.1057, abs=2e-4)

    def test_clamp(self):
        n = 101
        f = 101 - math.log(n) - 2 * math.log(math.log(n)) + 5
        assert threshold_p(n, f) == 1.0
        assert threshold_p(n, -100) == 0.0

    def test_monotone_in_f(self):
        assert threshold_p(101, 1) < threshold_p(101, 2) < threshold_p(101, 3)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            threshold_p(2, 1)


class TestModelParams:
    def test_even_n_needs_override(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, f=1.0)
        ModelParams(n=10, f=1.0, allow_even_n=True)

    def test_p_or_f_required(self):
        with pytest.raises(ValueError):
            ModelParams(n=11)

    def test_explicit_p_validated(self):
        with pytest.raises(ValueError):
            ModelParams(n=11, p=1.5)


class TestSampleGnp:
    def test_p_zero_empty(self):
        g = sample_gnp(ModelParams(n=9, p=0.0, seed=1))
        assert g.m == 0

    def test_p_one_complete(self):
        g = sample_gnp(ModelParams(n=9, p=1.0, seed=1))
        assert g.m == 9 * 8 // 2

    def test_deterministic(self):
        a = sample_gnp(ModelParams(n=11, f=3.0, seed=42))
        b = sample_gnp(ModelParams(n=11, f=3.0, seed=42))
        assert a == b
        c = sample_gnp(ModelParams(n=11, f=3.0, seed=43))
        assert a != c  # overwhelmingly likely

    def test_edge_count_binomial_sanity(self):
        n, f, trials = 101, 3.0, 300
        p = threshold_p(n, f)
        k = n * (n - 1) // 2
        counts = [sample_gnp(ModelParams(n=n, f=f, seed=s)).m for s in range(trials)]
        mean = sum(counts) / trials
        sd_of_mean = math.sqrt(k * p * (1 - p) / trials)
        assert abs(mean - k * p) <= 3 * sd_of_mean


class TestPropertyReport:
    def test_k7_vacuous_small_checks(self):
        rep = property_report(Graph.complete(7))
        assert rep["small_closure_bound"].passed
        assert rep["small_path_free"].passed
        assert rep["max_degree_bound"].passed
        assert rep["min_degree_three"].passed

    def test_adjacent_small_vertices_fail_path_check(self):
        # At n = 25000 the low-degree threshold passes 1, so two adjacent
        # degree-1 vertices are both small and form a length-1 violation.
        g = from_edge_list(25_000, [(0, 1), (2, 3)])
        rep = property_report(g, samples=5)
        check = rep["small_path_free"]
        assert not check.passed
        u, w = check.detail["endpoints"]
        assert u != w and g.has_edge(u, w)
        assert check.detail["length"] == 1

    def test_small_override_injects_fragile_vertices(self):
        # The path-length cap only admits length 1 once 0.3 ln n/ln ln n
        # reaches 1, so inject the fragile pair into a larger graph.
        g = from_edge_list(500, [(0, 1), (1, 2), (3, 4)])
        rep = property_report(g, small=VertexSet.of(500, [0, 1]), samples=5)
        check = rep["small_path_free"]
        assert not check.passed
        assert check.detail["endpoints"] == [0, 1]

    def test_planted_dense_band_violation_reverifies(self):
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        pairs += [(i, j) for i in range(7, 14) for j in range(i + 1, 14)]
        pairs += [(0, 7)]
        g = from_edge_list(14, pairs)
        rep = property_report(g)
        check = rep["dense_pair_band"]
        assert check.mode == "exact" and not check.passed
        a = check.detail["A"]
        b = check.detail["B"]
        e = sum(1 for u in a for v in b if g.has_edge(u, v))
        assert e == check.detail["edges"]
        expect = len(a) * len(b) * check.detail["p"]
        assert not (0.999 * expect <= e <= 1.001 * expect)

    def test_sampled_mode_labels(self):
        g = sample_gnp(ModelParams(n=101, f=3.0, seed=9))
        rep = property_report(g, p=threshold_p(101, 3.0), samples=300, seed=4)
        assert rep["sparse_internal_edges"].mode in ("sampled", "vacuous")
        assert rep["dense_pair_band"].mode in ("sampled", "vacuous")

    def test_witness_cross_check_requires_r(self):
        g = Graph.complete(6)
        rep = property_report(g)
        assert "witness_cross_edges" not in rep.checks
        rep2 = property_report(g, r=EdgeVector.full(g.m))
        assert rep2["witness_cross_edges"].passed

    def test_witness_cross_violation(self):
        # r empty: any two large sets have zero r-edges between them.
        g = Graph.complete(10)
        rep = property_report(g, r=EdgeVector.zero(g.m))
        check = rep["witness_cross_edges"]
        assert not check.passed
        a, b = check.detail["A"], check.detail["B"]
        assert len(a) == len(b) == 4

    def test_half_degree_primitive(self):
        g = Graph.complete(8)
        ok, u = half_degree_holds(g, VertexSet.of(8, [0]), VertexSet.of(8, list(range(1, 8))))
        assert ok and u == 0
        ok2, _ = half_degree_holds(g, VertexSet.of(8, [0]), VertexSet.of(8, [1]))
        assert not ok2


class TestSyntheticWitness:
    def test_properties(self):
        g = sample_gnp(ModelParams(n=101, f=3.0, seed=3))
        wit = synthetic_witness(g, seed=5)
        assert wit is not None
        assert wit.normalized
        assert wit.vector.bits != (1 << g.m) - 1
        assert not is_bipartition_form(g, wit.vector)
        for v in range(g.n):
            star = g.star_bits(v)
            assert 2 * (star & wit.vector.bits).bit_count() >= star.bit_count()

    def test_deterministic(self):
        g = sample_gnp(ModelParams(n=51, f=2.0, seed=8))
        assert synthetic_witness(g, seed=1) == synthetic_witness(g, seed=1)


class TestRefutationPipeline:
    def test_k5_fallback_or_staged(self):
        g = Graph.complete(5)
        wit = synthetic_witness(g, seed=2)
        assert wit is not None
        res = refutation_pipeline(g, wit, seed=2)
        assert res.ok
        assert intersection_parity(res.cycle.vector, wit.vector) == 1
        assert sorted(res.cycle.order) == list(range(5))

    def test_full_r_fails_fast(self):
        g = Graph.complete(5)
        wit = WitnessR.unverified(EdgeVector.full(g.m))
        res = refutation_pipeline(g, wit, seed=0)
        assert not res.ok
        assert res.failed_stage == "S2a"
        assert "non-R" in res.detail

    def test_petersen_fails(self):
        g = petersen()
        wit = synthetic_witness(g, seed=1)
        if wit is None:
            pytest.skip("no usable synthetic witness")
        res = refutation_pipeline(g, wit, seed=1)
        assert not res.ok
        assert res.failed_stage == "S3" and res.detail == "no Hamilton cycle exists"

    def test_cut_witness_has_no_odd_cycle(self):
        # r = E(A, B): every Hamilton cycle crosses a cut evenly, so the
        # parity DP fallback proves that no cycle meets r oddly.
        g = Graph.complete(7)
        cut = EdgeVector.from_pairs(
            g, [(u, v) for u in range(3) for v in range(3, 7)])
        res = refutation_pipeline(g, WitnessR.unverified(cut), seed=0, retries=1)
        assert not res.ok
        assert res.detail == "no odd-overlap Hamilton cycle exists"

    @pytest.mark.parametrize("n", [12, 16])
    def test_fallback_proves_half_cut_unrefutable(self, n):
        # Far more Hamilton cycles than an enumeration could scan.
        g = Graph.complete(n)
        half = n // 2
        cut = EdgeVector.from_pairs(
            g, [(u, v) for u in range(half) for v in range(half, n)])
        res = refutation_pipeline(g, WitnessR.unverified(cut), seed=0, retries=0)
        assert not res.ok
        assert res.failed_stage == "S3"
        assert res.detail == "no odd-overlap Hamilton cycle exists"

    def test_fallback_agrees_with_enumeration(self):
        rng = random.Random(17)
        found = 0
        for _ in range(40):
            n = rng.randint(3, 9)
            g = random_graph(rng, n, rng.uniform(0.4, 0.9))
            r = EdgeVector(rng.getrandbits(g.m) if g.m else 0, g.m)
            if r.bits == (1 << g.m) - 1:
                continue
            cycles = list(enumerate_hamilton_cycles(g))
            odd = any(intersection_parity(hc.vector, r) for hc in cycles)
            res = refutation_pipeline(g, WitnessR.unverified(r), seed=0, retries=0)
            assert res.ok == odd
            if res.ok:
                found += 1
                assert res.via == "parity_dp"
                assert intersection_parity(res.cycle.vector, r) == 1
                assert res.cycle in cycles
            else:
                assert res.detail == ("no odd-overlap Hamilton cycle exists" if cycles
                                      else "no Hamilton cycle exists")
        assert found >= 5

    def test_threshold_instance_verified(self):
        g = sample_gnp(ModelParams(n=101, f=3.0, seed=2024))
        wit = synthetic_witness(g, seed=7)
        assert wit is not None
        res = refutation_pipeline(g, wit, seed=7, enumeration_fallback=False)
        assert res.ok and res.via == "switcher"
        assert intersection_parity(res.cycle.vector, wit.vector) == 1
        assert res.switcher is not None
        assert len(res.switcher.cycle) % 2 == 0


class TestRunExperiment:
    def _config(self, workers):
        return ExperimentConfig(
            cells=(CellSpec(n=11, f=2.0, trials=4), CellSpec(n=13, f=2.0, trials=3)),
            master_seed=99, workers=workers, span_extra=10)

    def test_records_and_csv_roundtrip(self, tmp_path):
        out = tmp_path / "trials.csv"
        records = run_experiment(self._config(1), out_path=str(out))
        assert len(records) == 7
        back = read_trials_csv(str(out))
        for a, b in zip(records, back):
            assert a.seed == b.seed and a.n == b.n and a.p == b.p and a.m == b.m
            assert a.min_degree == b.min_degree and a.verdict == b.verdict
            assert a.rank == b.rank and a.dim == b.dim
            assert a.hamiltonian == b.hamiltonian

    def test_worker_count_does_not_change_records(self):
        one = run_experiment(self._config(1))
        two = run_experiment(self._config(2))
        strip = lambda r: (r.seed, r.n, r.p, r.m, r.min_degree, r.small_count,
                           r.hamiltonian, r.verdict, r.rank, r.dim)
        assert [strip(r) for r in one] == [strip(r) for r in two]

    def test_refutation_columns(self):
        config = ExperimentConfig(
            cells=(CellSpec(n=31, f=3.0, trials=2),), master_seed=5, workers=1,
            span_extra=10, with_refutation=True)
        records = run_experiment(config)
        for rec in records:
            assert rec.refutation_ok is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_trial_keeps_finished_rows(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(experiments, "_run_trial", _trial_failing_on_task_3)
        out = tmp_path / "trials.csv"
        with pytest.raises(RuntimeError, match="trial 3 failed"):
            run_experiment(self._config(workers), out_path=str(out))
        rows = read_trials_csv(str(out))
        config = self._config(workers)
        want = [_real_run_trial((config, 0, t, threshold_p(11, 2.0))) for t in range(3)]
        assert [(r.seed, r.verdict, r.rank) for r in rows] == \
            [(r.seed, r.verdict, r.rank) for r in want]

    def test_csv_header_guard(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_trials_csv(str(bad))
