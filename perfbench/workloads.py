"""The benchmark's three workloads: inputs from a seed, one op, and its check.

Each workload builds its inputs in `setup(seed)`, runs op i with
`op(state, i)` through the package's public functions, and re-verifies
the result with `check(state, i, result)` using the benchmark's own code
(see verify.py). `check` returns whether the op reached a decisive
outcome and a short digest line (verdict, rank and dim) that the traced
run must reproduce. Ops run one at a time in one process; a run stops
only at a multiple of `round_size` ops, so every run sees the same mix.

The package must be importable before this module is imported.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Calls go through the module objects, so the tracer's rebinding sees them.
from cyclespan import experiments, spanning
from cyclespan.experiments import ModelParams
from cyclespan.seeds import derive_seed

import verify

SPAN_N = 201
REFUTE_N = 101
REFUTE_POOL = 256
EXACT_SIZES = tuple(range(9, 17))
EXACT_ROUNDS = 32
# Expansion budget of the exact decider. At 5e4 an undecided graph costs
# about 0.25 s, so a run covers about 20 graphs of every size; every graph
# from n = 12 up, and a few below, come back Inconclusive and are counted.
EXACT_BUDGET = 50_000
F_OFFSET = 3


def input_seed(seed: int, *parts: object) -> int:
    """Seeds of the benchmark's inputs, derived apart from the package's."""
    text = ":".join(str(p) for p in ("perfbench", seed) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Outcome:
    decided: bool
    digest: str


def _verdict_digest(v) -> str:
    return f"{v.kind.value}|{v.rank_reached}|{v.dim_cycle_space}"


class SpanThreshold:
    """One campaign trial at n = 201, f = 3, refutation off."""

    name = "span_threshold"
    round_size = 1

    def setup(self, seed: int):
        return seed

    def op(self, seed: int, i: int):
        s = input_seed(seed, "span", i)
        g = experiments.sample_gnp(ModelParams(n=SPAN_N, f=F_OFFSET, seed=s))
        verdict = spanning.confirm_spanning_sampled(
            g, budget=spanning.cycle_space_dim(g) + 50, seed=derive_seed(s, "span"))
        return g, verdict

    def check(self, seed: int, i: int, result) -> Outcome:
        g, verdict = result
        facts = verify.facts_of(g)
        verify.check_verdict(facts, verdict, frozenset(
            {"SpannedConfirmed", "TriviallySpanned", "Inconclusive"}))
        return Outcome(verdict.kind.value != "Inconclusive", _verdict_digest(verdict))


class RefuteThreshold:
    """Synthetic witness plus refutation pipeline on pre-sampled G(101, p)."""

    name = "refute_threshold"
    round_size = 1

    def setup(self, seed: int):
        pool = [experiments.sample_gnp(ModelParams(
            n=REFUTE_N, f=F_OFFSET, seed=input_seed(seed, "refute", j)))
            for j in range(REFUTE_POOL)]
        return seed, pool

    def op(self, state, i: int):
        seed, pool = state
        g = pool[i % REFUTE_POOL]
        s = input_seed(seed, "refute-op", i)
        wit = experiments.synthetic_witness(g, derive_seed(s, "witness"))
        if wit is None:
            return wit, None
        return wit, experiments.refutation_pipeline(
            g, wit, derive_seed(s, "pipeline"), enumeration_fallback=False)

    def check(self, state, i: int, result) -> Outcome:
        wit, res = result
        if res is None:
            return Outcome(False, "no-witness")
        if res.ok:
            verify.check_refutation(verify.facts_of(state[1][i % REFUTE_POOL]),
                                    wit.vector.bits, res.cycle)
        return Outcome(res.ok, f"{res.ok}|{res.failed_stage}|{res.attempts}")


class ExactThreshold:
    """Exact decision on pre-sampled threshold graphs, n = 9..16."""

    name = "exact_threshold"
    round_size = len(EXACT_SIZES)

    def setup(self, seed: int):
        return [experiments.sample_gnp(ModelParams(
            n=n, f=F_OFFSET, seed=input_seed(seed, "exact", r, n), allow_even_n=True))
            for r in range(EXACT_ROUNDS) for n in EXACT_SIZES]

    def op(self, pool, i: int):
        g = pool[i % len(pool)]
        verdict = spanning.decide_spanning_exact(g, budget=EXACT_BUDGET)
        normal = None
        if verdict.kind.value == "NotSpanned":
            normal = spanning.normalize_witness(g, verdict.witness, mode="exact")
        return verdict, normal

    def check(self, pool, i: int, result) -> Outcome:
        verdict, normal = result
        facts = verify.facts_of(pool[i % len(pool)])
        masks = verify.check_verdict(facts, verdict, frozenset(
            {"SpannedExact", "NotSpanned", "TriviallySpanned", "Inconclusive"}))
        kind = verdict.kind.value
        if facts.n % 2 == 0 and not facts.bipartite and kind in verify.SPANNED:
            raise verify.VerificationError("even-n non-bipartite graph reported spanned")
        if kind == "NotSpanned":
            witness = verdict.witness.vector.bits
            verify.check_witness(facts, masks, witness, "witness")
            verify.check_normalized(facts, masks, witness, normal.vector.bits)
        return Outcome(kind != "Inconclusive", _verdict_digest(verdict))


WORKLOADS = {w.name: w for w in (SpanThreshold(), RefuteThreshold(), ExactThreshold())}
