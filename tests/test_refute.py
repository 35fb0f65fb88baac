"""Pinned outputs of the constructive refutation.

The hashes below pin the pipeline on threshold graphs at fixed seeds:
any change to a refutation cycle, a failure stage or detail, an attempt
count, or the switcher gadget shows up here.
"""

import hashlib

import pytest

from cyclespan import refute
from cyclespan.cli import main
from cyclespan.experiments import ModelParams, refutation_pipeline, sample_gnp, \
    synthetic_witness
from cyclespan.graph import to_graph6


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _graph(t: int):
    return sample_gnp(ModelParams(n=101, f=3, seed=900_000 + t))


def test_refutation_golden():
    rows = []
    for t in range(40):
        g = _graph(t)
        wit = synthetic_witness(g, t)
        if wit is None:
            rows.append(None)
            continue
        res = refutation_pipeline(g, wit, t, enumeration_fallback=False)
        sw = res.switcher
        rows.append((res.ok, res.failed_stage, res.detail, res.attempts, res.via,
                     res.cycle.order if res.ok else None,
                     (sw.cycle, sw.paths) if sw is not None else None))
    assert sum(1 for r in rows if r and r[0]) == GOLDEN_OK
    assert _digest(rows) == GOLDEN_ROWS


def test_switcher_command_golden(capsys):
    outs = []
    for t in SWITCHER_TRIALS:
        code = main(["switcher", "--graph6", to_graph6(_graph(t)), "--seed", str(t)])
        outs.append((code, capsys.readouterr().out))
    assert [code for code, _ in outs] == SWITCHER_CODES
    assert _digest(outs) == GOLDEN_SWITCHER


def test_seed_independent_failure_is_not_retried():
    # Trial 36: some vertex has one neighbour in Y, so no split meets the
    # floors, and every retry would rebuild the same Y.
    g = _graph(36)
    res = refutation_pipeline(g, synthetic_witness(g, 36), 36, enumeration_fallback=False)
    assert (res.failed_stage, res.detail) == ("S2b", "degree-preserving split failed")
    assert res.attempts == 1


@pytest.mark.parametrize("name, detail", [
    ("disjoint_pair_paths", "vertex-disjoint linkage failed"),
    ("lll_split", "degree-preserving split failed"),
])
def test_seeded_failure_is_retried(monkeypatch, name, detail):
    # Trial 0 refutes at its first attempt; a failing linkage, or a
    # feasible split whose draws run out, leaves the seed to blame.
    monkeypatch.setattr(refute, name, lambda *args, **kwargs: None)
    g = _graph(0)
    res = refutation_pipeline(g, synthetic_witness(g, 0), 0, enumeration_fallback=False)
    assert (res.failed_stage, res.detail, res.attempts) == ("S2b", detail, 5)


GOLDEN_OK = 39  # trial 36 fails at S2b: "degree-preserving split failed"
# Re-pinned when seed-independent failures stopped being retried: trial
# 36 went from 5 attempts to 1.
GOLDEN_ROWS = "3dae0d5e3b1cce06"
# Trial 0 builds a switcher; trial 36 prints the S2b failure record,
# which says the failure does not depend on the seed.
SWITCHER_TRIALS = (0, 36)
SWITCHER_CODES = [0, 1]
GOLDEN_SWITCHER = "e42a8f0748dee1a9"
