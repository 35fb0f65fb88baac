"""The benchmark's own re-verification, run on the package's outputs.

`perfbench/verify.py` re-checks every op of the benchmark with code that
shares nothing with the package, and the benchmark exits 3 on the first
violation.  These tests load it by path and put the same checks on the
exact and sampled deciders and on the refutation, so an output the
benchmark would refuse fails here first.  The digests of the first ops
of each workload are pinned too, so a change that alters any op's outcome
fails here before a paired benchmark run.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cyclespan import spanning
from cyclespan.experiments import ModelParams, refutation_pipeline, sample_gnp, \
    synthetic_witness

VERIFY = Path(__file__).resolve().parents[1] / "perfbench" / "verify.py"
# The verdicts each workload's check allows (perfbench/workloads.py).
EXACT_ALLOWED = frozenset({"SpannedExact", "NotSpanned", "TriviallySpanned", "Inconclusive"})
SPAN_ALLOWED = frozenset({"SpannedConfirmed", "TriviallySpanned", "Inconclusive"})
EXACT_BUDGET = 50_000
# sha256 prefixes of the lines f"{i}:{digest}" of each workload's first
# ops at seed 1, digest being what its check returns.
BENCH_DIGESTS = {
    "span_threshold": (4, "d0da6adb5edf5938"),
    "refute_threshold": (256, "d39613215ef66223"),
    "exact_threshold": (64, "06c59501297e51aa"),
}


@pytest.fixture(scope="module")
def verify():
    spec = importlib.util.spec_from_file_location("perfbench_verify", VERIFY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", VERIFY.with_name("workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(VERIFY.parent))  # for its `import verify`
    sys.modules[spec.name] = mod  # dataclasses looks the module up by name
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(VERIFY.parent))
        del sys.modules[spec.name]
    return mod


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_bench_op_digests(workloads, name):
    ops, want = BENCH_DIGESTS[name]
    wl = workloads.WORKLOADS[name]
    st = wl.setup(1)
    h = hashlib.sha256()
    for i in range(ops):
        h.update(f"{i}:{wl.check(st, i, wl.op(st, i)).digest}\n".encode())
    assert h.hexdigest()[:16] == want


@pytest.mark.parametrize("n", range(9, 17))
def test_exact_decider_passes_bench_verify(verify, n):
    for seed in (0, 1):
        g = sample_gnp(ModelParams(n=n, f=3, seed=seed, allow_even_n=True))
        verdict = spanning.decide_spanning_exact(g, budget=EXACT_BUDGET)
        facts = verify.facts_of(g)
        masks = verify.check_verdict(facts, verdict, EXACT_ALLOWED)
        kind = verdict.kind.value
        assert not (n % 2 == 0 and not facts.bipartite and kind in verify.SPANNED)
        if kind == "NotSpanned":
            witness = verdict.witness.vector.bits
            normal = spanning.normalize_witness(g, verdict.witness, mode="exact")
            verify.check_witness(facts, masks, witness, "witness")
            verify.check_normalized(facts, masks, witness, normal.vector.bits)


def test_sampled_confirmer_passes_bench_verify(verify):
    for seed in (0, 1):
        g = sample_gnp(ModelParams(n=51, f=3, seed=seed))
        verdict = spanning.confirm_spanning_sampled(
            g, budget=spanning.cycle_space_dim(g) + 50, seed=seed)
        verify.check_verdict(verify.facts_of(g), verdict, SPAN_ALLOWED)


def test_refutation_passes_bench_verify(verify):
    refuted = 0
    for seed in range(8):
        g = sample_gnp(ModelParams(n=101, f=3, seed=seed))
        wit = synthetic_witness(g, seed)
        if wit is None:
            continue
        res = refutation_pipeline(g, wit, seed, enumeration_fallback=False)
        if res.ok:
            verify.check_refutation(verify.facts_of(g), wit.vector.bits, res.cycle)
            refuted += 1
    assert refuted >= 6
