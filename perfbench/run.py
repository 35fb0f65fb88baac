"""cyclespan benchmark: three closed-loop workloads, one op at a time.

Run from the repository root:

    python3 perfbench/run.py --workload span_threshold --seed 1 --seconds 35 --trace 0

`--workload all` (the default) runs every workload, each in a fresh
process, one after another. `--trace 0` measures the end-to-end metrics
with tracing off; `--trace 1` measures ops untraced for part of the time,
replays the same ops under the per-layer tracer, checks that both runs
produced the same outputs, and reports the per-layer metrics and the
tracing overhead. Every op's output is re-verified by the benchmark's
own code outside the timed region; a violation exits with code 3 and
prints no result. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("span_threshold", "refute_threshold", "exact_threshold")
# Set-up runs this many times in all: once here, the rest in fresh
# interpreters, so that each sample pays the package import again.
SETUP_SAMPLES = 3
# In a traced run, the untraced pass gets this share of --seconds and the
# traced replay of the same ops takes about the rest.
UNTRACED_SHARE = 0.45
P90_MIN_OPS = 100
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
               "print(run.timed_setup(sys.argv[2], int(sys.argv[3]))[2])")


class SourceMissing(Exception):
    """The checkout holds no cyclespan source tree to benchmark."""


def load_package() -> None:
    """Import cyclespan from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "cyclespan" / "__init__.py").is_file():
        raise SourceMissing(f"no cyclespan package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import cyclespan
    if Path(cyclespan.__file__).resolve().parent != src / "cyclespan":
        raise SourceMissing(f"cyclespan was imported from {cyclespan.__file__}")


def timed_setup(name: str, seed: int):
    """Import the package and build the workload's inputs; return both and the seconds."""
    t0 = time.perf_counter()
    load_package()
    import workloads
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    return wl, state, time.perf_counter() - t0


def setup_seconds(name: str, seed: int, first: float) -> float:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Run:
    """Op times, outcomes and failures of one pass over a workload."""

    def __init__(self):
        self.times: list[float] = []
        self.busy = 0.0
        self.decided = 0
        self.verified = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def do_op(self, wl, state, i: int) -> None:
        t0 = time.perf_counter()
        try:
            result = wl.op(state, i)
        except Exception:
            self._took(time.perf_counter() - t0)
            self.failed += 1
            self.digest.update(f"{i}:error\n".encode())
            print(f"op {i} raised:", file=sys.stderr)
            traceback.print_exc()
            return
        self._took(time.perf_counter() - t0)
        outcome = wl.check(state, i, result)
        self.verified += 1
        self.decided += outcome.decided
        self.digest.update(f"{i}:{outcome.digest}\n".encode())

    def _took(self, seconds: float) -> None:
        self.times.append(seconds)
        self.busy += seconds


def measure(wl, state, seconds: float) -> Run:
    """Closed loop: ops until their busy time reaches `seconds`, in whole rounds."""
    run = Run()
    i = 0
    while run.busy < seconds or i % wl.round_size:
        run.do_op(wl, state, i)
        i += 1
    return run


def replay(wl, state, ops: int) -> Run:
    run = Run()
    for i in range(ops):
        run.do_op(wl, state, i)
    return run


def percentile_ms(times: list[float], q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1000


def environment() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} machine={platform.machine()}")


def emit(attempted: int, failed: int, metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.4f} {units[name]}")
    doc = {"correct": True, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(doc))


def end_to_end(wl, state, seed: int, seconds: float, setup_first: float) -> None:
    run = measure(wl, state, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = setup_seconds(wl.name, seed, setup_first)
    n = len(run.times)
    print(f"ops={n} verified={run.verified} failed={run.failed} busy_s={run.busy:.3f}")
    print(f"  {'ops_per_s':<48} {n / run.busy:>14.4f} 1/s")
    print(f"  {'fail_frac':<48} {1 - run.decided / n:>14.4f} ratio")
    if n >= P90_MIN_OPS:
        print(f"  {'op_ms_p90':<48} {percentile_ms(run.times, 90):>14.4f} ms")
    else:
        print(f"  op_ms_p90 not reported: {n} ops < {P90_MIN_OPS}")
    emit(n, run.failed, {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(run.times) * 1000,
        "decided_frac": run.decided / n,
        "peak_rss_mb": rss_mb,
    }, {"setup_s": "s", "op_ms_p50": "ms", "decided_frac": "ratio", "peak_rss_mb": "MiB"})


def per_layer(wl, state, seed: int, seconds: float) -> None:
    from tracer import Tracer, metric_units
    from verify import VerificationError
    plain = measure(wl, state, seconds * UNTRACED_SHARE)
    n = len(plain.times)
    with Tracer() as tracer:
        t0 = time.perf_counter()
        traced_state = wl.setup(seed)
        traced_setup = time.perf_counter() - t0
        traced = replay(wl, traced_state, n)
    if traced.digest.digest() != plain.digest.digest():
        raise VerificationError("traced run produced different outputs than the untraced run")
    metrics = tracer.metrics()
    metrics["tracer.overhead"] = traced.busy / plain.busy - 1
    total_ms = (traced_setup + traced.busy) * 1000
    print(f"ops={n} verified={plain.verified}+{traced.verified} failed={plain.failed} "
          f"digest=match untraced_busy_s={plain.busy:.3f} traced_busy_s={traced.busy:.3f}")
    print("layers by self time, share of traced set-up plus ops:")
    by_self = sorted((k[:-len(".self_ms")] for k in metrics if k.endswith(".self_ms")),
                     key=lambda k: -metrics[k + ".self_ms"])
    for key in by_self[:6]:
        print(f"  {key:<48} {metrics[key + '.self_ms'] / total_ms:>8.1%}")
    emit(n, plain.failed, metrics, metric_units())


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        wl, state, setup_first = timed_setup(args.workload, args.seed)
    except SourceMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    import verify
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {environment()}")
    try:
        if args.trace:
            per_layer(wl, state, args.seed, args.seconds)
        else:
            end_to_end(wl, state, args.seed, args.seconds, setup_first)
    except verify.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
