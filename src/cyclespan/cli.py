"""Command line interface.

Subcommands: gen, span, witness, switcher, refute, props, experiment.
The span subcommand's exit code is the verdict: 0 spanned, 1 not
spanned, 2 inconclusive.  The witness subcommand exits 0 with a
witness, 1 when spanning holds, 2 inconclusive.  Every subcommand exits
64 (EX_USAGE) with one line on stderr when its arguments, graph or
witness cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    CellSpec,
    ExperimentConfig,
    ModelParams,
    property_report,
    run_experiment,
    sample_gnp,
)
from .gf2 import EdgeVector
from .graph import Graph, from_edge_list_text, from_graph6, to_graph6
from .refute import build_switcher, refutation_pipeline, synthetic_witness
from .spanning import (
    VerdictKind,
    WitnessR,
    confirm_spanning_sampled,
    decide_spanning_exact,
    normalize_witness,
    witness_certificate,
)
from .switcher import switcher_certificate

class UsageError(Exception):
    """Unreadable arguments, graph or witness: `main` exits 64 (EX_USAGE)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_graph(args) -> Graph:
    try:
        if getattr(args, "graph6", None):
            return from_graph6(args.graph6)
        if getattr(args, "infile", None):
            with open(args.infile) as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        if " " in first.strip():
            return from_edge_list_text(text)
        return from_graph6(first)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read graph: {exc}") from None


def _load_witness(args, g: Graph) -> WitnessR:
    if getattr(args, "r_hex", None):
        try:
            vec = EdgeVector.from_hex(args.r_hex, g.m)
        except ValueError as exc:
            raise UsageError(f"cannot read --r-hex: {exc}") from None
        return normalize_witness(g, WitnessR.unverified(vec), mode="hillclimb")
    wit = synthetic_witness(g, args.seed)
    if wit is None:
        raise UsageError("could not generate a usable synthetic witness")
    return wit


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    lines = []
    for i in range(args.count):
        params = ModelParams(n=args.n, f=args.f, p=args.p,
                             seed=args.seed + i, allow_even_n=args.allow_even_n)
        lines.append(to_graph6(sample_gnp(params)))
    _emit(args, "\n".join(lines))
    return 0


_EXIT_BY_KIND = {
    VerdictKind.SPANNED_EXACT: 0,
    VerdictKind.SPANNED_CONFIRMED: 0,
    VerdictKind.TRIVIALLY_SPANNED: 0,
    VerdictKind.NOT_SPANNED: 1,
    VerdictKind.INCONCLUSIVE: 2,
}


def _cmd_span(args) -> int:
    g = _load_graph(args)
    if args.mode == "exact":
        verdict = decide_spanning_exact(g, budget=args.budget)
    else:
        verdict = confirm_spanning_sampled(g, budget=args.samples, seed=args.seed)
    _emit(args, witness_certificate(g, verdict))
    return _EXIT_BY_KIND[verdict.kind]


def _cmd_witness(args) -> int:
    g = _load_graph(args)
    verdict = decide_spanning_exact(g, budget=args.budget)
    if verdict.witness is not None and args.normalize != "none":
        wit = normalize_witness(g, verdict.witness, mode=args.normalize)
        verdict = type(verdict)(verdict.kind, verdict.rank_reached,
                                verdict.dim_cycle_space, wit, verdict.certificate)
    _emit(args, witness_certificate(g, verdict))
    if verdict.kind is VerdictKind.INCONCLUSIVE:
        return 2
    return 0 if verdict.witness is not None else 1


def _cmd_switcher(args) -> int:
    g = _load_graph(args)
    wit = _load_witness(args, g)
    sw, meta = build_switcher(g, wit, args.seed)
    if sw is None:
        _emit(args, json.dumps({"error": meta}, indent=2, sort_keys=True))
        return 1
    _emit(args, switcher_certificate(sw))
    return 0


def _cmd_refute(args) -> int:
    g = _load_graph(args)
    wit = _load_witness(args, g)
    result = refutation_pipeline(g, wit, args.seed)
    doc = {
        "ok": result.ok,
        "via": result.via,
        "attempts": result.attempts,
        "witness_hex": wit.vector.to_hex(),
    }
    if result.ok:
        doc["hamilton_cycle"] = list(result.cycle.order)
    else:
        doc["failed_stage"] = result.failed_stage
        doc["detail"] = result.detail
    _emit(args, json.dumps(doc, indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _cmd_props(args) -> int:
    g = _load_graph(args)
    report = property_report(g, p=args.p, seed=args.seed, samples=args.samples)
    doc = {
        name: {"passed": c.passed, "mode": c.mode, "detail": c.detail}
        for name, c in report.checks.items()
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True, default=str))
    return 0 if report.all_passed else 1


def _cmd_experiment(args) -> int:
    if not args.n:
        raise UsageError("experiment needs at least one --n")
    cells = tuple(CellSpec(n=n, f=args.f, p=args.p, trials=args.trials)
                  for n in args.n)
    config = ExperimentConfig(
        cells=cells, master_seed=args.seed, workers=args.workers,
        span_extra=args.budget,
        with_refutation=args.refute, allow_even_n=args.allow_even_n)
    records = run_experiment(config, out_path=args.out)
    confirmed = sum(1 for r in records if r.verdict == "SpannedConfirmed")
    print(f"{len(records)} trials, {confirmed} spanning-confirmed, "
          f"csv={args.out or '(not written)'}", file=sys.stderr)
    return 0


def _add_graph_input(sp) -> None:
    sp.add_argument("--graph6", help="graph6 string")
    sp.add_argument("--in", dest="infile", help="file with graph6 or edge-list text")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cyclespan")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="sample G(n, p) at the threshold, emit graph6")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--f", type=float, default=None, help="threshold offset")
    sp.add_argument("--p", type=float, default=None, help="explicit p (overrides f)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--allow-even-n", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("span", help="spanning verdict (exit 0/1/2)")
    _add_graph_input(sp)
    sp.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    sp.add_argument("--budget", type=int, default=10**8,
                    help="search-step budget for exact mode")
    sp.add_argument("--samples", type=int, default=200,
                    help="sample budget for sampled mode")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_span)

    sp = sub.add_parser("witness", help="extract and normalize a witness "
                        "(exit 0 witness / 1 spanned / 2 inconclusive)")
    _add_graph_input(sp)
    sp.add_argument("--normalize", choices=["hillclimb", "exact", "none"],
                    default="hillclimb")
    sp.add_argument("--budget", type=int, default=10**8,
                    help="search-step budget of the exact decider")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_witness)

    sp = sub.add_parser("switcher", help="build a parity switcher certificate")
    _add_graph_input(sp)
    sp.add_argument("--r-hex", help="witness edge set as hex (default: synthetic)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_switcher)

    sp = sub.add_parser("refute", help="construct an odd-overlap Hamilton cycle")
    _add_graph_input(sp)
    sp.add_argument("--r-hex", help="witness edge set as hex (default: synthetic)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_refute)

    sp = sub.add_parser("props", help="edge-distribution property report")
    _add_graph_input(sp)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_props)

    sp = sub.add_parser("experiment", help="Monte Carlo campaign to CSV")
    sp.add_argument("--n", type=int, action="append",
                    help="cell size; repeat for a grid")
    sp.add_argument("--f", type=float, default=3.0)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--budget", type=int, default=50,
                    help="extra spanning samples beyond the cycle-space dim")
    sp.add_argument("--refute", action="store_true")
    sp.add_argument("--allow-even-n", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_experiment)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"cyclespan: error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    raise SystemExit(main())
