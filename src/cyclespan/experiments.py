"""Random-model sampling at the sharp threshold and the study harness.

The model is G(n, p) with p = (ln n + 2 ln ln n + f)/n: right where the
minimum degree reaches 3 and Hamilton cycles start spanning the cycle
space (for odd n).  This module samples it reproducibly, checks the
edge-distribution properties that drive the constructive arguments,
runs the full parity-switcher refutation pipeline, and batches seeded
Monte Carlo campaigns into CSV.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import spanning
from .gf2 import EdgeVector, intersection_parity
from .graph import Graph, VertexSet, from_edge_list, iter_bits, restrict, small_vertices
from .hamfinder import SplitRequest, hamilton_path_protected, lll_split
from .seeds import derive_seed
from .spanning import (
    HamiltonCycle,
    WitnessR,
    confirm_spanning_sampled,
    cycle_space_dim,
    is_bipartition_form,
    normalize_witness,
)
from .switcher import (
    ParitySwitcher,
    disjoint_pair_paths,
    find_switcher_cycle,
    hamilton_paths_of_switcher,
)


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


def chernoff_tail(kind: str, mean: float, ratio: float) -> float:
    """Binomial tail bound exp(-(r ln r - r + 1) * mean).

    kind="lower" bounds P(X <= ratio*E X) for 0 < ratio < 1;
    kind="upper" bounds P(X >= ratio*E X) for ratio > 1.
    """
    if mean < 0:
        raise ValueError("mean must be nonnegative")
    if kind == "lower":
        if not 0 < ratio < 1:
            raise ValueError("lower tail needs 0 < ratio < 1")
    elif kind == "upper":
        if not ratio > 1:
            raise ValueError("upper tail needs ratio > 1")
    else:
        raise ValueError(f"unknown kind {kind!r}")
    exponent = (ratio * math.log(ratio) - ratio + 1.0) * mean
    return math.exp(-exponent)


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


def half_degree_holds(g: Graph, a_set: VertexSet, b_set: VertexSet,
                      delta: float = 0.1) -> tuple[bool, int | None]:
    """Does some u in A have deg(u, B) >= (1+delta) deg(u)/2?

    Returns (holds, witness_vertex).
    """
    for u in a_set:
        if 2 * (g.adj_bits(u) & b_set.mask).bit_count() >= (1 + delta) * g.degree(u):
            return True, u
    return False, None


def property_report(
    g: Graph,
    r: EdgeVector | None = None,
    p: float | None = None,
    delta: float = 0.1,
    small: VertexSet | None = None,
    seed: int = 0,
    samples: int = 10_000,
    exact_limit: int = 14,
) -> PropertyReport:
    """Edge-distribution health report for a (near-)threshold sample.

    Degree and low-degree-closure checks are exact at every size.  The
    set-quantified edge counts are exact for n <= exact_limit and
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
    exact = n <= exact_limit
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

    checks["half_degree_majority"] = _check_half_degree(
        g, delta, ln_n, lln, rng, samples)

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
                from .graph import bfs_path
                path = bfs_path(g, a, b, banned)
                if path is not None and len(path) + 1 <= max_len:
                    detail["endpoints"] = [u, u]
                    detail["length"] = len(path) + 1
                    return PropertyCheck("small_path_free", False, "exact", detail)
    return PropertyCheck("small_path_free", True, "exact", detail)


def _subset_masks(universe: list[int], size: int):
    for combo in itertools.combinations(universe, size):
        mask = 0
        for v in combo:
            mask |= 1 << v
        yield combo, mask


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
    n = g.n
    if exact:
        for size in range(2, min(size_cap, n) + 1):
            for combo, mask in _subset_masks(list(range(n)), size):
                if _edges_inside(g, mask) > size * dens_bound:
                    detail.update({"A": list(combo), "edges": _edges_inside(g, mask)})
                    return PropertyCheck(name, False, "exact", detail)
        return PropertyCheck(name, True, "exact", detail)
    for _ in range(samples):
        size = rng.randrange(2, min(size_cap, n) + 1)
        combo = rng.sample(range(n), size)
        mask = 0
        for v in combo:
            mask |= 1 << v
        if _edges_inside(g, mask) > size * dens_bound:
            detail.update({"A": sorted(combo), "edges": _edges_inside(g, mask)})
            return PropertyCheck(name, False, "sampled", detail)
    return PropertyCheck(name, True, "sampled", detail)


def _check_sparse_cross(g, size_cap, dens_bound, ln_n, exact, rng, samples):
    name = "sparse_cross_edges"
    detail = {"size_cap": size_cap, "density_bound": dens_bound}
    n = g.n
    sizes = [(a, math.floor(a * math.sqrt(ln_n))) for a in range(1, min(size_cap, n) + 1)]
    sizes = [(a, b) for a, b in sizes if b >= 1 and a + b <= n]
    if not sizes:
        return PropertyCheck(name, True, "vacuous", detail)
    if exact:
        for a, b in sizes:
            for combo_a, mask_a in _subset_masks(list(range(n)), a):
                rest = [v for v in range(n) if not mask_a >> v & 1]
                for combo_b, mask_b in _subset_masks(rest, b):
                    if _edges_between(g, mask_a, mask_b) > a * dens_bound:
                        detail.update({"A": list(combo_a), "B": list(combo_b),
                                       "edges": _edges_between(g, mask_a, mask_b)})
                        return PropertyCheck(name, False, "exact", detail)
        return PropertyCheck(name, True, "exact", detail)
    for _ in range(samples):
        a, b = rng.choice(sizes)
        pick = rng.sample(range(n), a + b)
        mask_a = mask_b = 0
        for v in pick[:a]:
            mask_a |= 1 << v
        for v in pick[a:]:
            mask_b |= 1 << v
        if _edges_between(g, mask_a, mask_b) > a * dens_bound:
            detail.update({"A": sorted(pick[:a]), "B": sorted(pick[a:]),
                           "edges": _edges_between(g, mask_a, mask_b)})
            return PropertyCheck(name, False, "sampled", detail)
    return PropertyCheck(name, True, "sampled", detail)


def _check_dense_band(g, floor_size, p_eff, exact, rng, samples):
    name = "dense_pair_band"
    detail = {"floor_size": floor_size, "p": p_eff}
    n = g.n
    if floor_size < 1 or 2 * floor_size > n or p_eff <= 0:
        return PropertyCheck(name, True, "vacuous", detail)

    def band_ok(mask_a, mask_b) -> bool:
        e = _edges_between(g, mask_a, mask_b)
        expect = mask_a.bit_count() * mask_b.bit_count() * p_eff
        return 0.999 * expect <= e <= 1.001 * expect

    if exact:
        for a in range(floor_size, n - floor_size + 1):
            for combo_a, mask_a in _subset_masks(list(range(n)), a):
                rest = [v for v in range(n) if not mask_a >> v & 1]
                for b in range(floor_size, len(rest) + 1):
                    for combo_b, mask_b in _subset_masks(rest, b):
                        if combo_a[0] > combo_b[0]:
                            continue  # unordered pairs once
                        if not band_ok(mask_a, mask_b):
                            detail.update({"A": list(combo_a), "B": list(combo_b),
                                           "edges": _edges_between(g, mask_a, mask_b)})
                            return PropertyCheck(name, False, "exact", detail)
        return PropertyCheck(name, True, "exact", detail)
    for _ in range(samples):
        a = rng.randrange(floor_size, n - floor_size + 1)
        b_max = n - a
        if b_max < floor_size:
            continue
        b = rng.randrange(floor_size, b_max + 1)
        pick = rng.sample(range(n), a + b)
        mask_a = mask_b = 0
        for v in pick[:a]:
            mask_a |= 1 << v
        for v in pick[a:]:
            mask_b |= 1 << v
        if not band_ok(mask_a, mask_b):
            detail.update({"A": sorted(pick[:a]), "B": sorted(pick[a:]),
                           "edges": _edges_between(g, mask_a, mask_b)})
            return PropertyCheck(name, False, "sampled", detail)
    return PropertyCheck(name, True, "sampled", detail)


def _check_half_degree(g, delta, ln_n, lln, rng, samples):
    name = "half_degree_majority"
    n = g.n
    a_req = math.ceil(n * lln * lln / math.sqrt(ln_n)) if lln > 0 else n + 1
    b_req = math.floor((0.5 + delta) * n)
    detail = {"delta": delta, "a_size": a_req, "b_size": b_req}
    if a_req < 1 or b_req < 1 or a_req + b_req > n:
        # The quantifier range is empty at this n; nothing to refute.
        return PropertyCheck(name, True, "vacuous", detail)
    for _ in range(samples):
        pick = rng.sample(range(n), a_req + b_req)
        a_set = VertexSet.of(n, pick[:a_req])
        b_set = VertexSet.of(n, pick[a_req:])
        ok, _w = half_degree_holds(g, a_set, b_set, delta)
        if not ok:
            detail.update({"A": sorted(pick[:a_req]), "B": sorted(pick[a_req:])})
            return PropertyCheck(name, False, "sampled", detail)
    return PropertyCheck(name, True, "sampled", detail)


def _check_witness_cross(g, r, exact, rng, samples):
    name = "witness_cross_edges"
    n = g.n
    size = (2 * n) // 5
    detail = {"size": size}
    if size < 1 or 2 * size > n:
        return PropertyCheck(name, True, "vacuous", detail)
    r_adj = [0] * n
    for eid in iter_bits(r.bits):
        u, v = g.pair_of(eid)
        r_adj[u] |= 1 << v
        r_adj[v] |= 1 << u

    def r_edges_between(mask_a, mask_b):
        return sum((r_adj[v] & mask_b).bit_count() for v in iter_bits(mask_a))

    if exact:
        for combo_a, mask_a in _subset_masks(list(range(n)), size):
            rest = [v for v in range(n) if not mask_a >> v & 1]
            for combo_b, mask_b in _subset_masks(rest, size):
                if combo_a[0] > combo_b[0]:
                    continue
                if r_edges_between(mask_a, mask_b) == 0:
                    detail.update({"A": list(combo_a), "B": list(combo_b)})
                    return PropertyCheck(name, False, "exact", detail)
        return PropertyCheck(name, True, "exact", detail)
    for _ in range(samples):
        pick = rng.sample(range(n), 2 * size)
        mask_a = mask_b = 0
        for v in pick[:size]:
            mask_a |= 1 << v
        for v in pick[size:]:
            mask_b |= 1 << v
        if r_edges_between(mask_a, mask_b) == 0:
            detail.update({"A": sorted(pick[:size]), "B": sorted(pick[size:])})
            return PropertyCheck(name, False, "sampled", detail)
    return PropertyCheck(name, True, "sampled", detail)


# ---------------------------------------------------------------------------
# synthetic witnesses and the refutation pipeline
# ---------------------------------------------------------------------------

def synthetic_witness(g: Graph, seed: int, max_tries: int = 64) -> WitnessR | None:
    """A normalized random edge subset usable as pipeline input.

    Draws a uniform random edge subset, pushes it to half degree
    everywhere by hill climbing, and discards it when it is a full edge
    set, a bipartition cut, or leaves no outside edge.  This is how the
    switcher machinery gets exercised on graphs where spanning holds and
    no true witness exists.
    """
    for attempt in range(max_tries):
        rng = random.Random(derive_seed(seed, "synthR", attempt))
        bits = rng.getrandbits(g.m) if g.m else 0
        cand = normalize_witness(g, WitnessR.unverified(EdgeVector(bits, g.m)),
                                 mode="hillclimb")
        if cand.vector.bits == (1 << g.m) - 1:
            continue
        if is_bipartition_form(g, cand.vector):
            continue
        return cand
    return None


@dataclass(frozen=True)
class RefutationResult:
    """Outcome of the odd-parity Hamilton cycle construction."""

    cycle: HamiltonCycle | None
    failed_stage: str | None = None  # "S2a" | "S2b" | "S3"
    detail: str | None = None
    switcher: ParitySwitcher | None = None
    outer_parity: int | None = None
    attempts: int = 0
    via: str = "none"  # "switcher" | "enumeration" | "none"

    @property
    def ok(self) -> bool:
        return self.cycle is not None


def build_switcher(
    g: Graph,
    r: WitnessR,
    seed: int,
    small: VertexSet | None = None,
) -> tuple[ParitySwitcher, dict] | tuple[None, dict]:
    """Find the odd-overlap cycle and link it into a switcher gadget.

    Returns (switcher, meta) on success where meta carries the split
    sides and escort assignment needed by the closing stage, or
    (None, meta) with meta["stage"]/meta["detail"] telling what failed.
    """
    n = g.n
    small_set = small if small is not None else small_vertices(g)
    if r.vector.bits == (1 << g.m) - 1:
        return None, {"stage": "S2a", "detail": "no non-R edge"}
    cycle = find_switcher_cycle(g, r.vector, small=small_set)
    if cycle is None:
        return None, {"stage": "S2a", "detail": "no qualifying cycle"}
    two_k = len(cycle)
    k = two_k // 2

    # Escorts: low-degree cycle vertices delegate to an ordinary neighbor.
    taken = set(cycle)
    vp: list[int] = []
    for v in cycle:
        if v in small_set:
            cand = [w for w in g.neighbors(v) if w not in small_set and w not in taken]
            if not cand:
                return None, {"stage": "S2b", "detail": f"no escort for {v}"}
            vp.append(cand[0])
            taken.add(cand[0])
        else:
            vp.append(v)

    u_mask = 0
    for v in itertools.chain(cycle, vp):
        u_mask |= 1 << v
    y_mask = ((1 << n) - 1) & ~small_set.mask & ~u_mask
    y_set = VertexSet(n, y_mask)
    if len(y_set) < 2:
        return None, {"stage": "S2b", "detail": "too few vertices to split"}
    halves = lll_split(g, SplitRequest.halves(y_set),
                       seed=derive_seed(seed, "split"))
    if halves is None:
        return None, {"stage": "S2b", "detail": "degree-preserving split failed"}
    a_half, b_half = halves

    z_mask = small_set.mask
    for u in small_set:
        z_mask |= g.adj_bits(u)
    vp_mask = 0
    for v in vp:
        vp_mask |= 1 << v
    side_a = (a_half.mask | z_mask) & ~u_mask
    side_b = (b_half.mask & ~z_mask) | vp_mask

    # Route the connector interiors inside the B side, away from the
    # cycle edges, the escort hops, and the two closing-stage terminals.
    drop = [g.edge_id(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    for v, w in zip(cycle, vp):
        if v != w and g.has_edge(v, w):
            drop.append(g.edge_id(v, w))
    keep = VertexSet(n, side_b & ~(1 << vp[0]) & ~(1 << vp[k]))
    sub = restrict(g, keep, drop)
    idx = sub.new_vertex
    try:
        pairs = [(idx[vp[j]], idx[vp[two_k - j]]) for j in range(1, k)]
    except KeyError:
        return None, {"stage": "S2b", "detail": "escort missing from link side"}
    routed = disjoint_pair_paths(sub.graph, pairs,
                                 seed=derive_seed(seed, "link"))
    if routed is None:
        return None, {"stage": "S2b", "detail": "vertex-disjoint linkage failed"}
    links = [sub.to_old_path(p) for p in routed]

    paths = []
    for j, link in enumerate(links, start=1):
        if link[0] != vp[j]:
            link = link[::-1]
        full = list(link)
        if vp[j] != cycle[j]:
            full = [cycle[j]] + full
        if vp[two_k - j] != cycle[two_k - j]:
            full = full + [cycle[two_k - j]]
        paths.append(full)
    try:
        sw = ParitySwitcher.build(g, cycle, paths, r.vector)
    except ValueError as exc:
        return None, {"stage": "S2b", "detail": f"switcher invalid: {exc}"}
    meta = {
        "vp": vp,
        "side_a": side_a,
        "side_b": side_b,
        "links": links,
    }
    return sw, meta


def refutation_pipeline(
    g: Graph,
    r: WitnessR,
    seed: int,
    retries: int = 5,
    small: VertexSet | None = None,
    closing_budget: int = 300_000,
    enumeration_fallback: bool = True,
    fallback_budget: int = 10**7,
) -> RefutationResult:
    """Construct a verified Hamilton cycle with odd witness overlap.

    Staged construction, with failures tagged by stage: the switcher
    cycle ("S2a"), its connector linkage ("S2b"), and the sheltered
    Hamilton path over everything outside the gadget ("S3").  The final
    assembly picks the switcher traversal whose parity complements the
    outer path and concatenates the two.  Every success is re-verified:
    the output is a Hamilton cycle of g whose overlap with r.vector is
    odd.  Failures are retried with fresh sub-seeds; for n <= 16 a final
    fallback scans the complete Hamilton cycle enumeration instead.
    """
    small_set = small if small is not None else (small_vertices(g) if g.n >= 2 else VertexSet(g.n))
    last_stage, last_detail = "S2a", "not attempted"
    if r.vector.bits == (1 << g.m) - 1 and g.m > 0:
        # Structural validation failure: every edge is a witness edge, so
        # no switcher seed exists and no fallback applies.
        return RefutationResult(None, failed_stage="S2a", detail="no non-R edge")
    for attempt in range(retries):
        sub_seed = derive_seed(seed, "refute", attempt)
        sw, meta = build_switcher(g, r, sub_seed, small=small_set)
        if sw is None:
            last_stage, last_detail = meta["stage"], meta["detail"]
            continue
        vp = meta["vp"]
        cycle = sw.cycle
        k = sw.k
        w_mask = 0
        for v in itertools.chain(cycle, *meta["links"]):
            w_mask |= 1 << v
        w_mask &= ~(1 << vp[0]) & ~(1 << vp[k])
        s_set = VertexSet(g.n, ((1 << g.n) - 1) & ~w_mask)
        try:
            ppr = hamilton_path_protected(
                g, s_set, vp[0], vp[k], seed=derive_seed(sub_seed, "close"),
                small=small_set, closing_budget=closing_budget)
        except ValueError as exc:
            last_stage, last_detail = "S3", str(exc)
            continue
        if not ppr.ok:
            last_stage, last_detail = "S3", f"protected path failed at {ppr.failed_stage}"
            continue
        outer = list(ppr.path)
        if vp[0] != cycle[0]:
            outer = [cycle[0]] + outer
        if vp[k] != cycle[k]:
            outer = outer + [cycle[k]]
        outer_parity = intersection_parity(
            EdgeVector.from_vertex_path(g, outer), r.vector)
        even_path, odd_path = hamilton_paths_of_switcher(sw, r.vector)
        inner = odd_path if outer_parity == 0 else even_path
        order = outer + inner[-2:0:-1]
        hc = HamiltonCycle.from_order(g, order)
        if intersection_parity(hc.vector, r.vector) != 1:
            raise RuntimeError("assembled cycle has even witness overlap")
        return RefutationResult(hc, switcher=sw, outer_parity=outer_parity,
                                attempts=attempt + 1, via="switcher")
    if enumeration_fallback and g.n <= 16:
        try:
            for hc in spanning.enumerate_hamilton_cycles(g, budget=fallback_budget):
                if intersection_parity(hc.vector, r.vector) == 1:
                    return RefutationResult(hc, attempts=retries, via="enumeration")
            last_stage, last_detail = "S3", "no odd-overlap Hamilton cycle exists"
        except spanning.BudgetExceeded:
            last_stage, last_detail = "S3", "enumeration fallback budget exhausted"
    return RefutationResult(None, failed_stage=last_stage, detail=last_detail,
                            attempts=retries)


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
    rotation_budget: int = 30_000
    with_properties: bool = False
    with_refutation: bool = False
    allow_even_n: bool = False


def _run_trial(args: tuple) -> TrialRecord:
    (cell_idx, trial_idx, n, p, master_seed, span_extra, rotation_budget,
     with_props, with_refutation, allow_even) = args
    seed = derive_seed(master_seed, "cell", cell_idx, "trial", trial_idx)
    params = ModelParams(n=n, p=p, seed=seed, allow_even_n=allow_even)
    t0 = time.perf_counter()
    g = sample_gnp(params)
    ms_sample = (time.perf_counter() - t0) * 1000

    small_count = len(small_vertices(g)) if n >= 2 else 0
    dim = cycle_space_dim(g)

    t0 = time.perf_counter()
    verdict = confirm_spanning_sampled(
        g, budget=dim + span_extra, seed=derive_seed(seed, "span"),
        rotation_budget=rotation_budget)
    ms_span = (time.perf_counter() - t0) * 1000

    if dim == 0 and g.n >= 3:
        hamiltonian = "no"
    elif verdict.certificate:
        hamiltonian = "yes"
    else:
        hamiltonian = "unknown"

    if with_props:
        rep = property_report(g, p=p, seed=derive_seed(seed, "props"), samples=2_000)
        if not rep.all_passed:
            failed = [name for name, c in rep.checks.items() if not c.passed]
            logging.getLogger(__name__).info(
                "trial seed=%d: property checks failed: %s", seed, failed)

    switcher_found = False
    refutation_ok: bool | None = None
    ms_refute = 0.0
    if with_refutation:
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
            tasks.append((ci, ti, cell.n, p, config.master_seed,
                          config.span_extra, config.rotation_budget,
                          config.with_properties, config.with_refutation,
                          config.allow_even_n))
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
