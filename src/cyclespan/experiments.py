"""Random-model sampling at the sharp threshold and the study harness.

The model is G(n, p) with p = (ln n + 2 ln ln n + f)/n: right where the
minimum degree reaches 3 and Hamilton cycles start spanning the cycle
space (for odd n).  This module samples it reproducibly, checks the
edge-distribution properties that drive the constructive arguments,
and batches seeded Monte Carlo campaigns, with the spanning check and
optionally the refutation pipeline per trial, into CSV.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .gf2 import EdgeVector
from .graph import Graph, VertexSet, bfs_path, edge_subgraph_adj, from_edge_list, \
    iter_bits, mask_of, small_vertices
# build_switcher is bound here too: the benchmark's tracer looks it up as
# experiments.build_switcher.
from .refute import build_switcher, refutation_pipeline, synthetic_witness  # noqa: F401
from .seeds import derive_seed
from .spanning import confirm_spanning_sampled, cycle_space_dim

# Margin of the half-degree majority: deg(u, B) >= (1 + delta) deg(u)/2.
_HALF_DEGREE_DELTA = 0.1
# property_report counts set pairs exhaustively up to this n, by sampling above.
_EXACT_LIMIT = 14


def threshold_p(n: int, f: float) -> float:
    """(ln n + 2 ln ln n + f)/n, clamped to [0, 1]."""
    if n < 3:
        raise ValueError("threshold_p needs n >= 3")
    val = (math.log(n) + 2.0 * math.log(math.log(n)) + f) / n
    return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class ModelParams:
    """One G(n, p) sampling cell.

    p may be given directly; otherwise it is derived from the offset f
    via threshold_p.  Even n is refused unless allow_even_n is set (the
    spanning question is parity-obstructed there, which is exactly what
    the obstruction tests want to see).
    """

    n: int
    f: float | None = None
    p: float | None = None
    seed: int = 0
    allow_even_n: bool = False

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.n % 2 == 0 and not self.allow_even_n:
            raise ValueError("even n requires allow_even_n=True")
        if self.p is None:
            if self.f is None:
                raise ValueError("give either p or f")
            object.__setattr__(self, "p", threshold_p(self.n, self.f))
        elif not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


def sample_gnp(params: ModelParams) -> Graph:
    """Sample G(n, p) reproducibly.

    The generator is numpy's PCG64 seeded with params.seed; the C(n, 2)
    vertex pairs are examined in lexicographic order against one uniform
    draw each, so identical params give identical graphs on every
    platform.
    """
    n = params.n
    rng = np.random.Generator(np.random.PCG64(params.seed))
    draws = rng.random(n * (n - 1) // 2)
    keep = draws < params.p
    rows, cols = np.triu_indices(n, 1)
    # triu_indices enumerates pairs in lexicographic order already.
    pairs = list(zip(rows[keep].tolist(), cols[keep].tolist()))
    return from_edge_list(n, pairs)


# ---------------------------------------------------------------------------
# property report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    mode: str  # "exact" | "sampled" | "vacuous"
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PropertyReport:
    n: int
    checks: dict[str, PropertyCheck]

    def __getitem__(self, name: str) -> PropertyCheck:
        return self.checks[name]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def half_degree_holds(g: Graph, a_set: VertexSet, b_set: VertexSet) -> tuple[bool, int | None]:
    """Does some u in A have deg(u, B) >= (1+delta) deg(u)/2?

    Returns (holds, witness_vertex).
    """
    for u in a_set:
        if 2 * (g.adj_bits(u) & b_set.mask).bit_count() >= (1 + _HALF_DEGREE_DELTA) * g.degree(u):
            return True, u
    return False, None


def property_report(
    g: Graph,
    r: EdgeVector | None = None,
    p: float | None = None,
    small: VertexSet | None = None,
    seed: int = 0,
    samples: int = 10_000,
) -> PropertyReport:
    """Edge-distribution health report for a (near-)threshold sample.

    Degree and low-degree-closure checks are exact at every size.  The
    set-quantified edge counts are exact for n <= _EXACT_LIMIT and
    randomized refutation sweeps above (`samples` sampled set pairs per
    property); each entry records which mode produced it, and every
    reported violation carries the concrete sets so it can be recounted.

    p defaults to the empirical edge density; r, when given, enables the
    witness cross-edge check.  `small` overrides the low-degree set for
    synthetic tests.
    """
    n = g.n
    if n < 3:
        raise ValueError("property_report needs n >= 3")
    rng = random.Random(seed)
    ln_n = math.log(n)
    lln = math.log(ln_n)
    exact = n <= _EXACT_LIMIT
    checks: dict[str, PropertyCheck] = {}

    # Maximum degree.
    worst = max(range(n), key=g.degree)
    checks["max_degree_bound"] = PropertyCheck(
        "max_degree_bound", g.degree(worst) <= 10 * ln_n, "exact",
        {"bound": 10 * ln_n, "max_degree": g.degree(worst), "vertex": worst})

    checks["min_degree_three"] = PropertyCheck(
        "min_degree_three", g.min_degree() >= 3, "exact",
        {"min_degree": g.min_degree()})

    small_set = small if small is not None else small_vertices(g)
    closure = small_set.mask
    for u in small_set:
        closure |= g.adj_bits(u)
    checks["small_closure_bound"] = PropertyCheck(
        "small_closure_bound", closure.bit_count() <= math.sqrt(n), "exact",
        {"bound": math.sqrt(n), "size": closure.bit_count(),
         "small_count": len(small_set)})

    checks["small_path_free"] = _check_small_path_free(g, small_set, ln_n, lln)

    # Internal edges of small vertex sets.
    size_cap = math.floor(n * lln * lln / ln_n) if lln > 0 else 0
    dens_bound = ln_n / lln if lln > 0 else float("inf")
    checks["sparse_internal_edges"] = _check_sparse_internal(
        g, size_cap, dens_bound, exact, rng, samples)

    checks["sparse_cross_edges"] = _check_sparse_cross(
        g, size_cap, dens_bound, ln_n, exact, rng, samples)

    p_eff = p if p is not None else (g.m / (n * (n - 1) / 2) if n > 1 else 0.0)
    floor_size = math.ceil(n * lln ** 1.5 / ln_n) if lln > 0 else n + 1
    checks["dense_pair_band"] = _check_dense_band(
        g, floor_size, p_eff, exact, rng, samples)

    checks["half_degree_majority"] = _check_half_degree(g, ln_n, lln, rng, samples)

    if r is not None:
        checks["witness_cross_edges"] = _check_witness_cross(
            g, r, exact, rng, samples)

    return PropertyReport(n, checks)


def _check_small_path_free(g: Graph, small_set: VertexSet, ln_n: float,
                           lln: float) -> PropertyCheck:
    cap = 0.3 * ln_n / lln if lln > 0 else 0.0
    max_len = math.floor(cap)
    detail: dict = {"max_length": cap}
    if max_len < 1 or not small_set:
        return PropertyCheck("small_path_free", True,
                             "vacuous" if not small_set else "exact", detail)
    small_list = small_set.to_list()
    # Distinct endpoints: bounded BFS from each small vertex.
    for u in small_list:
        dist = {u: 0}
        frontier = [u]
        for d in range(1, max_len + 1):
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
                        if w != u and w in small_set:
                            detail["endpoints"] = [u, w]
                            detail["length"] = d
                            return PropertyCheck("small_path_free", False,
                                                 "exact", detail)
            frontier = nxt
    # Same endpoint: a short cycle through a small vertex.
    for u in small_list:
        nbrs = g.neighbors(u)
        banned = VertexSet(g.n).add(u)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                path = bfs_path(g, a, b, banned)
                if path is not None and len(path) + 1 <= max_len:
                    detail["endpoints"] = [u, u]
                    detail["length"] = len(path) + 1
                    return PropertyCheck("small_path_free", False, "exact", detail)
    return PropertyCheck("small_path_free", True, "exact", detail)


def _set_pairs(n: int, exact: bool, rng: random.Random, samples: int,
               sizes: Iterable[tuple[int, Iterable[int]]],
               draw: Callable[[random.Random], tuple[int, int]],
               unordered: bool = False) -> Iterator[tuple[int, int]]:
    """Vertex-set pairs (A, B), as bit masks, for one set-quantified check.

    Exact: for each (a, bs) in `sizes`, every a-subset A in combination
    order and, inside that, every B of a size in bs taken from the other
    vertices; `unordered` skips the pairs whose least vertex lies in B.
    Sampled: `samples` draws, each taking the sizes (a, b) = draw(rng)
    and then rng.sample(range(n), a + b), whose first a vertices form A.
    """
    if not exact:
        for _ in range(samples):
            a, b = draw(rng)
            pick = rng.sample(range(n), a + b)
            yield mask_of(pick[:a]), mask_of(pick[a:])
        return
    for a, bs in sizes:
        for combo_a in itertools.combinations(range(n), a):
            mask_a = mask_of(combo_a)
            rest = [v for v in range(n) if not mask_a >> v & 1]
            for b in bs:
                for combo_b in itertools.combinations(rest, b):
                    if unordered and combo_a[0] > combo_b[0]:
                        continue
                    yield mask_a, mask_of(combo_b)


def _first_violation(name: str, exact: bool, detail: dict,
                     pairs: Iterable[tuple[int, int]], violation) -> PropertyCheck:
    """Fail at the first pair whose `violation` is not None.

    The failure records A, B when it is not empty, and the violation's
    own entries in `detail`.
    """
    mode = "exact" if exact else "sampled"
    for mask_a, mask_b in pairs:
        found = violation(mask_a, mask_b)
        if found is not None:
            detail["A"] = list(iter_bits(mask_a))
            if mask_b:
                detail["B"] = list(iter_bits(mask_b))
            detail.update(found)
            return PropertyCheck(name, False, mode, detail)
    return PropertyCheck(name, True, mode, detail)


def _edges_inside(g: Graph, mask: int) -> int:
    total = 0
    for v in iter_bits(mask):
        total += (g.adj_bits(v) & mask).bit_count()
    return total // 2


def _edges_between(g: Graph, a_mask: int, b_mask: int) -> int:
    total = 0
    for v in iter_bits(a_mask):
        total += (g.adj_bits(v) & b_mask).bit_count()
    return total


def _check_sparse_internal(g, size_cap, dens_bound, exact, rng, samples):
    name = "sparse_internal_edges"
    detail = {"size_cap": size_cap, "density_bound": dens_bound}
    if size_cap < 2:
        return PropertyCheck(name, True, "vacuous", detail)
    top = min(size_cap, g.n)

    def violation(mask_a, _mask_b):
        edges = _edges_inside(g, mask_a)
        return {"edges": edges} if edges > mask_a.bit_count() * dens_bound else None

    pairs = _set_pairs(g.n, exact, rng, samples, [(a, [0]) for a in range(2, top + 1)],
                       lambda r: (r.randrange(2, top + 1), 0))
    return _first_violation(name, exact, detail, pairs, violation)


def _check_sparse_cross(g, size_cap, dens_bound, ln_n, exact, rng, samples):
    name = "sparse_cross_edges"
    detail = {"size_cap": size_cap, "density_bound": dens_bound}
    n = g.n
    sizes = [(a, math.floor(a * math.sqrt(ln_n))) for a in range(1, min(size_cap, n) + 1)]
    sizes = [(a, b) for a, b in sizes if b >= 1 and a + b <= n]
    if not sizes:
        return PropertyCheck(name, True, "vacuous", detail)

    def violation(mask_a, mask_b):
        edges = _edges_between(g, mask_a, mask_b)
        return {"edges": edges} if edges > mask_a.bit_count() * dens_bound else None

    pairs = _set_pairs(n, exact, rng, samples, [(a, [b]) for a, b in sizes],
                       lambda r: r.choice(sizes))
    return _first_violation(name, exact, detail, pairs, violation)


def _check_dense_band(g, floor_size, p_eff, exact, rng, samples):
    name = "dense_pair_band"
    detail = {"floor_size": floor_size, "p": p_eff}
    n = g.n
    if floor_size < 1 or 2 * floor_size > n or p_eff <= 0:
        return PropertyCheck(name, True, "vacuous", detail)

    def violation(mask_a, mask_b):
        edges = _edges_between(g, mask_a, mask_b)
        expect = mask_a.bit_count() * mask_b.bit_count() * p_eff
        return None if 0.999 * expect <= edges <= 1.001 * expect else {"edges": edges}

    def draw(r):
        a = r.randrange(floor_size, n - floor_size + 1)
        return a, r.randrange(floor_size, n - a + 1)

    sizes = [(a, range(floor_size, n - a + 1))
             for a in range(floor_size, n - floor_size + 1)]
    pairs = _set_pairs(n, exact, rng, samples, sizes, draw, unordered=True)
    return _first_violation(name, exact, detail, pairs, violation)


def _check_half_degree(g, ln_n, lln, rng, samples):
    name = "half_degree_majority"
    n = g.n
    a_req = math.ceil(n * lln * lln / math.sqrt(ln_n)) if lln > 0 else n + 1
    b_req = math.floor((0.5 + _HALF_DEGREE_DELTA) * n)
    detail = {"delta": _HALF_DEGREE_DELTA, "a_size": a_req, "b_size": b_req}
    if a_req < 1 or b_req < 1 or a_req + b_req > n:
        # The quantifier range is empty at this n; nothing to refute.
        return PropertyCheck(name, True, "vacuous", detail)

    def violation(mask_a, mask_b):
        ok, _w = half_degree_holds(g, VertexSet(n, mask_a), VertexSet(n, mask_b))
        return None if ok else {}

    pairs = _set_pairs(n, False, rng, samples, (), lambda r: (a_req, b_req))
    return _first_violation(name, False, detail, pairs, violation)


def _check_witness_cross(g, r, exact, rng, samples):
    name = "witness_cross_edges"
    n = g.n
    size = (2 * n) // 5
    detail = {"size": size}
    if size < 1 or 2 * size > n:
        return PropertyCheck(name, True, "vacuous", detail)
    r_adj = edge_subgraph_adj(g, r.bits)

    def violation(mask_a, mask_b):
        return None if any(r_adj[v] & mask_b for v in iter_bits(mask_a)) else {}

    pairs = _set_pairs(n, exact, rng, samples, [(size, [size])],
                       lambda _r: (size, size), unordered=True)
    return _first_violation(name, exact, detail, pairs, violation)


# ---------------------------------------------------------------------------
# Monte Carlo campaigns
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "seed", "n", "p", "m", "min_degree", "small_count", "hamiltonian",
    "verdict", "rank", "dim", "switcher_found", "refutation_ok",
    "ms_sample", "ms_span", "ms_refute",
]


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    n: int
    p: float
    m: int
    min_degree: int
    small_count: int
    hamiltonian: str  # "yes" | "no" | "unknown"
    verdict: str
    rank: int
    dim: int
    switcher_found: bool
    refutation_ok: bool | None
    ms_sample: float
    ms_span: float
    ms_refute: float

    def to_row(self) -> list[str]:
        def b(x):
            return "" if x is None else ("true" if x else "false")
        return [
            str(self.seed), str(self.n), repr(self.p), str(self.m),
            str(self.min_degree), str(self.small_count), self.hamiltonian,
            self.verdict, str(self.rank), str(self.dim),
            b(self.switcher_found), b(self.refutation_ok),
            f"{self.ms_sample:.3f}", f"{self.ms_span:.3f}", f"{self.ms_refute:.3f}",
        ]

    @classmethod
    def from_row(cls, row: Sequence[str]) -> "TrialRecord":
        def ob(x):
            return None if x == "" else x == "true"
        return cls(
            seed=int(row[0]), n=int(row[1]), p=float(row[2]), m=int(row[3]),
            min_degree=int(row[4]), small_count=int(row[5]), hamiltonian=row[6],
            verdict=row[7], rank=int(row[8]), dim=int(row[9]),
            switcher_found=row[10] == "true", refutation_ok=ob(row[11]),
            ms_sample=float(row[12]), ms_span=float(row[13]), ms_refute=float(row[14]),
        )


@dataclass(frozen=True)
class CellSpec:
    n: int
    f: float | None = None
    p: float | None = None
    trials: int = 100


@dataclass(frozen=True)
class ExperimentConfig:
    cells: tuple[CellSpec, ...]
    master_seed: int = 0
    workers: int = 1
    span_extra: int = 50
    with_refutation: bool = False
    allow_even_n: bool = False


def _run_trial(task: tuple[ExperimentConfig, int, int, float]) -> TrialRecord:
    config, cell_idx, trial_idx, p = task
    n = config.cells[cell_idx].n
    seed = derive_seed(config.master_seed, "cell", cell_idx, "trial", trial_idx)
    params = ModelParams(n=n, p=p, seed=seed, allow_even_n=config.allow_even_n)
    t0 = time.perf_counter()
    g = sample_gnp(params)
    ms_sample = (time.perf_counter() - t0) * 1000

    small_count = len(small_vertices(g)) if n >= 2 else 0
    dim = cycle_space_dim(g)

    t0 = time.perf_counter()
    verdict = confirm_spanning_sampled(
        g, budget=dim + config.span_extra, seed=derive_seed(seed, "span"))
    ms_span = (time.perf_counter() - t0) * 1000

    if dim == 0 and g.n >= 3:
        hamiltonian = "no"
    elif verdict.certificate:
        hamiltonian = "yes"
    else:
        hamiltonian = "unknown"

    switcher_found = False
    refutation_ok: bool | None = None
    ms_refute = 0.0
    if config.with_refutation:
        t0 = time.perf_counter()
        wit = synthetic_witness(g, derive_seed(seed, "witness"))
        if wit is None:
            refutation_ok = False
        else:
            result = refutation_pipeline(g, wit, derive_seed(seed, "pipeline"),
                                         enumeration_fallback=False)
            switcher_found = result.switcher is not None
            refutation_ok = result.ok
        ms_refute = (time.perf_counter() - t0) * 1000

    return TrialRecord(
        seed=seed, n=n, p=params.p, m=g.m, min_degree=g.min_degree(),
        small_count=small_count, hamiltonian=hamiltonian,
        verdict=verdict.kind.value, rank=verdict.rank_reached, dim=dim,
        switcher_found=switcher_found, refutation_ok=refutation_ok,
        ms_sample=ms_sample, ms_span=ms_span, ms_refute=ms_refute,
    )


def run_experiment(config: ExperimentConfig, out_path: str | None = None) -> list[TrialRecord]:
    """Run every (cell, trial) task and optionally write the CSV.

    Per-trial seeds derive from (master seed, cell index, trial index),
    so the records are identical for any worker count; only the timing
    columns vary between runs.  Records arrive in task order and each CSV
    row is written as its record arrives, so when a trial raises, the
    rows of the trials before it are on disk before the error propagates.
    """
    tasks = []
    for ci, cell in enumerate(config.cells):
        if cell.p is None:
            if cell.f is None:
                raise ValueError("cell needs f or p")
            p = threshold_p(cell.n, cell.f)
        else:
            p = cell.p
        for ti in range(cell.trials):
            tasks.append((config, ci, ti, p))
    records = []
    with contextlib.ExitStack() as stack:
        if config.workers > 1:
            pool = stack.enter_context(multiprocessing.Pool(config.workers))
            results = pool.imap(_run_trial, tasks, chunksize=1)
        else:
            results = map(_run_trial, tasks)
        if out_path is None:
            records.extend(results)
        else:
            write_trials_csv(out_path, _kept(results, records))
    return records


def _kept(records: Iterable[TrialRecord], into: list[TrialRecord]) -> Iterator[TrialRecord]:
    for rec in records:
        into.append(rec)
        yield rec


def write_trials_csv(path: str, records: Iterable[TrialRecord]) -> None:
    """Write the CSV, flushing each row as its record arrives."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_row())
            fh.flush()


def read_trials_csv(path: str) -> list[TrialRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_COLUMNS:
            raise ValueError("unexpected CSV header")
        return [TrialRecord.from_row(row) for row in reader]
