"""Smoke tests of the benchmark itself.

A few ops of every workload, untraced and traced, must print every metric
that BENCHMARK.json names, with its unit, and must have re-verified every
op. Tampered outputs must fail the benchmark's independent checks, and a
directory without the package's sources must make the benchmark fail.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import verify  # noqa: E402
from cyclespan import Graph  # noqa: E402
from cyclespan.spanning import decide_spanning_exact  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_few_ops_print_every_metric_and_verify(workload, trace, kind):
    out = bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines)
    summary = next(ln for ln in lines if ln.startswith("ops="))
    ops = result["attempted"]
    verified = f"verified={ops}+{ops}" if trace else f"verified={ops}"
    assert verified in summary.split()
    if trace:
        assert "digest=match" in summary


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", SPEC["workloads"][0]["name"], "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _k5_verdict():
    g = Graph.complete(5)
    return verify.facts_of(g), decide_spanning_exact(g)


def test_untampered_verdict_passes():
    facts, v = _k5_verdict()
    assert v.kind.value == "SpannedExact"
    assert verify.gf2_rank(verify.check_verdict(facts, v, verify.SPANNED)) == facts.dim


def test_wrong_rank_is_caught():
    facts, v = _k5_verdict()
    bad = dataclasses.replace(v, kind=type(v.kind)("Inconclusive"),
                              rank_reached=v.rank_reached - 1)
    with pytest.raises(verify.VerificationError):
        verify.check_verdict(facts, bad, frozenset({"Inconclusive"}))


def test_non_hamiltonian_cycle_is_caught():
    facts, v = _k5_verdict()
    hc = v.certificate[0]
    with pytest.raises(verify.VerificationError):
        verify.check_refutation(facts, hc.vector.bits,
                                dataclasses.replace(hc, order=hc.order[:-1] + (hc.order[0],)))


def test_witness_checks():
    g = Graph.complete(4)
    facts = verify.facts_of(g)
    v = decide_spanning_exact(g)
    masks = verify.check_verdict(facts, v, frozenset({"NotSpanned"}))
    witness = v.witness.vector.bits
    verify.check_witness(facts, masks, witness, "witness")
    with pytest.raises(verify.VerificationError):
        verify.check_witness(facts, masks, witness ^ (masks[0] & -masks[0]), "witness")
    with pytest.raises(verify.VerificationError):
        verify.check_normalized(facts, masks, witness, 0)
