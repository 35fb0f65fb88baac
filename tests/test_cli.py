import functools
import hashlib
import json

import pytest

from cyclespan import cli
from cyclespan.cli import main
from cyclespan.experiments import ModelParams, property_report, sample_gnp
from cyclespan.graph import Graph, from_graph6, to_graph6
from cyclespan.refute import synthetic_witness


def test_gen_deterministic(capsys):
    assert main(["gen", "--n", "11", "--f", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "11", "--f", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    from_graph6(first.strip())  # parses


def test_gen_count_and_out(tmp_path):
    out = tmp_path / "graphs.g6"
    assert main(["gen", "--n", "9", "--f", "1", "--seed", "1",
                 "--count", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_span_exit_codes(capsys):
    k4 = to_graph6(Graph.complete(4))
    assert main(["span", "--graph6", k4]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "NotSpanned"

    k5 = to_graph6(Graph.complete(5))
    assert main(["span", "--graph6", k5]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "SpannedExact"


def test_span_sampled_mode(capsys):
    c7 = to_graph6(Graph.cycle(7))
    assert main(["span", "--graph6", c7, "--mode", "sampled", "--samples", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] in ("SpannedConfirmed", "TriviallySpanned")


def test_span_reads_edge_list_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3 3\n0 1\n1 2\n0 2\n")
    assert main(["span", "--in", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "SpannedExact"


def test_witness_command(capsys):
    k4 = to_graph6(Graph.complete(4))
    assert main(["witness", "--graph6", k4]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["normalized"] is True
    assert doc["witness_hex"]


def test_witness_absent_exit_code(capsys):
    k5 = to_graph6(Graph.complete(5))
    assert main(["witness", "--graph6", k5]) == 1


def test_witness_inconclusive_exit_code(capsys):
    k7 = to_graph6(Graph.complete(7))
    assert main(["witness", "--graph6", k7, "--budget", "10"]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "Inconclusive"
    assert main(["witness", "--graph6", k7]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "SpannedExact"


def test_switcher_command(capsys):
    k5 = to_graph6(Graph.complete(5))
    code = main(["switcher", "--graph6", k5, "--seed", "3"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    if code == 0:
        assert doc["r_parity_of_cycle"] == 1
        assert len(doc["cycle"]) % 2 == 0
    else:
        assert "error" in doc


def test_refute_command(capsys):
    k5 = to_graph6(Graph.complete(5))
    assert main(["refute", "--graph6", k5, "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["hamilton_cycle"]) == 5


@pytest.mark.parametrize("argv", [
    ["span", "--graph6", "!!"],
    ["witness", "--graph6", "~~~"],
    ["span", "--mode", "bogus"],
    ["span", "--graph6", "Bw", "--budget", "many"],
    ["refute", "--graph6", "Bw", "--r-hex", "ffff"],
    ["refute", "--graph6", "Bw"],
    ["switcher", "--graph6", "Bg"],
    ["experiment", "--trials", "1"],
    ["bogus"],
])
def test_usage_errors_exit_64(argv, capsys):
    assert main(argv) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("cyclespan: error: ") and err.count("\n") == 1


def test_missing_input_file_exits_64(tmp_path, capsys):
    assert main(["span", "--in", str(tmp_path / "missing.g6")]) == 64
    assert "missing.g6" in capsys.readouterr().err


def test_internal_error_still_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")
    monkeypatch.setattr(cli, "decide_spanning_exact", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["span", "--graph6", "Bw"])


def test_props_command(capsys):
    k7 = to_graph6(Graph.complete(7))
    main(["props", "--graph6", k7, "--samples", "50"])
    doc = json.loads(capsys.readouterr().out)
    assert "max_degree_bound" in doc


# sha256 prefixes of the `props` JSON; n <= 14 runs the exact checks,
# larger n the sampled ones.
_PROPS_GOLDEN = {
    (9, 1): "8aef2b96c558aec8",
    (11, 2): "0118dc85adb23c87",
    (13, 3): "415e7c1a379a1c23",
    (14, 4): "680685f4fc9dfb30",
    (51, 5): "4433072b7d3cc4ee",
    (101, 6): "8705a074a14d7147",
}


@pytest.mark.parametrize("n, seed", sorted(_PROPS_GOLDEN))
def test_props_report_golden(n, seed, capsys, monkeypatch):
    g = sample_gnp(ModelParams(n=n, f=3, seed=seed, allow_even_n=True))
    wit = synthetic_witness(g, seed)
    monkeypatch.setattr(cli, "property_report",
                        functools.partial(property_report, r=wit.vector))
    main(["props", "--graph6", to_graph6(g), "--seed", str(seed), "--samples", "500"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == _PROPS_GOLDEN[(n, seed)]


def test_experiment_command(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    assert main(["experiment", "--n", "11", "--trials", "2", "--f", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("seed,n,p,m,min_degree")
    assert len(text) == 3
