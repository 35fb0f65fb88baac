"""Pinned outputs of the constructive refutation.

The hashes below pin the pipeline on threshold graphs at fixed seeds:
any change to a refutation cycle, a failure stage or detail, an attempt
count, or the switcher gadget shows up here.
"""

import hashlib

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


GOLDEN_OK = 39  # trial 36 fails at S2b: "degree-preserving split failed"
GOLDEN_ROWS = "352e4df9b8d8c31a"
# Trial 0 builds a switcher; trial 36 prints the S2b failure record.
SWITCHER_TRIALS = (0, 36)
SWITCHER_CODES = [0, 1]
GOLDEN_SWITCHER = "0508ecb6944f9a72"
