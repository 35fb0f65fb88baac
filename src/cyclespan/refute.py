"""The constructive refutation: an odd-overlap Hamilton cycle for a witness.

A witness R claims that every Hamilton cycle meets it evenly.  The
refutation builds a Hamilton cycle that meets R oddly.  It finds a parity
switcher (an even cycle with one edge outside R, chorded by vertex-disjoint
connectors), closes everything outside the gadget with a sheltered
Hamilton path, and picks whichever of the gadget's two traversals makes
the total overlap odd.  `synthetic_witness` supplies normalized random
edge sets, so the construction can be exercised on graphs where spanning
holds and no true witness exists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .gf2 import EdgeVector, intersection_parity
from .graph import Graph, VertexSet, mask_of, small_vertices
from .hamfinder import disjoint_pair_paths, hamilton_path_protected, lll_split, \
    split_feasible
from .seeds import derive_seed
from .spanning import HamiltonCycle, WitnessR, _odd_hamilton_cycle, \
    is_bipartition_form, normalize_witness
from .switcher import ParitySwitcher, find_switcher_cycle, hamilton_paths_of_switcher

# Random edge subsets synthetic_witness draws before it gives up.
_SYNTHETIC_WITNESS_TRIES = 64
# Attempts refutation_pipeline makes, each with a fresh sub-seed.
_REFUTE_RETRIES = 5


def synthetic_witness(g: Graph, seed: int) -> WitnessR | None:
    """A normalized random edge subset usable as pipeline input.

    Draws a uniform random edge subset, pushes it to half degree
    everywhere by hill climbing, and discards it when it is a full edge
    set, a bipartition cut, or leaves no outside edge.
    """
    for attempt in range(_SYNTHETIC_WITNESS_TRIES):
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
    attempts: int = 0
    via: str = "none"  # "switcher" | "parity_dp" | "none"

    @property
    def ok(self) -> bool:
        return self.cycle is not None


def _failed(stage: str, detail: str, seed_dependent: bool) -> tuple[None, dict]:
    return None, {"stage": stage, "detail": detail, "seed_dependent": seed_dependent}


def build_switcher(
    g: Graph,
    r: WitnessR,
    seed: int,
    small: VertexSet | None = None,
) -> tuple[ParitySwitcher, dict] | tuple[None, dict]:
    """Find the odd-overlap cycle and link it into a switcher gadget.

    Returns (switcher, {"vp": vp}) on success, where vp[i] stands in for
    cycle vertex i at the gadget's boundary: the vertex itself, or its
    escort when it is a low-degree vertex.  On failure returns
    (None, {"stage": ..., "detail": ..., "seed_dependent": ...}) telling
    what failed and whether another seed could change that.  The switcher
    cycle, the escorts, Y and the split's degree floors do not depend on
    the seed; the split's draws and the linkage do.
    """
    n = g.n
    small_set = small if small is not None else small_vertices(g)
    if r.vector.bits == (1 << g.m) - 1:
        return _failed("S2a", "no non-R edge", False)
    cycle = find_switcher_cycle(g, r.vector, small=small_set)
    if cycle is None:
        return _failed("S2a", "no qualifying cycle", False)
    two_k = len(cycle)
    k = two_k // 2

    # Escorts: low-degree cycle vertices delegate to an ordinary neighbor.
    taken = set(cycle)
    vp: list[int] = []
    for v in cycle:
        if v in small_set:
            cand = [w for w in g.neighbors(v) if w not in small_set and w not in taken]
            if not cand:
                return _failed("S2b", f"no escort for {v}", False)
            vp.append(cand[0])
            taken.add(cand[0])
        else:
            vp.append(v)

    u_mask = mask_of(itertools.chain(cycle, vp))
    y_mask = ((1 << n) - 1) & ~small_set.mask & ~u_mask
    y_set = VertexSet(n, y_mask)
    if len(y_set) < 2:
        return _failed("S2b", "too few vertices to split", False)
    halves = lll_split(g, y_set, seed=derive_seed(seed, "split"))
    if halves is None:
        return _failed("S2b", "degree-preserving split failed", split_feasible(g, y_set))

    # Route the connector interiors inside the B half, away from the low-
    # degree vertices and their neighbours, the cycle edges, the escort
    # hops, and the two closing-stage terminals.
    z_mask = small_set.mask
    for u in small_set:
        z_mask |= g.adj_bits(u)
    side_b = (halves[1].mask & ~z_mask) | mask_of(vp)
    drop = list(zip(cycle, cycle[1:] + cycle[:1]))
    drop += [(v, w) for v, w in zip(cycle, vp) if v != w]
    keep = side_b & ~(1 << vp[0]) & ~(1 << vp[k])
    pairs = [(vp[j], vp[two_k - j]) for j in range(1, k)]
    if mask_of(itertools.chain(*pairs)) & ~keep:
        return _failed("S2b", "escort missing from link side", True)
    routed = disjoint_pair_paths(g, pairs, seed=derive_seed(seed, "link"),
                                 within=VertexSet(n, keep), drop=drop)
    if routed is None:
        return _failed("S2b", "vertex-disjoint linkage failed", True)

    # Each routed link runs from vp[j] to vp[2k - j].
    paths = []
    for j, full in enumerate(routed, start=1):
        if vp[j] != cycle[j]:
            full = [cycle[j]] + full
        if vp[two_k - j] != cycle[two_k - j]:
            full = full + [cycle[two_k - j]]
        paths.append(full)
    try:
        sw = ParitySwitcher.build(g, cycle, paths, r.vector)
    except ValueError as exc:
        return _failed("S2b", f"switcher invalid: {exc}", True)
    return sw, {"vp": vp}


def refutation_pipeline(
    g: Graph,
    r: WitnessR,
    seed: int,
    small: VertexSet | None = None,
    enumeration_fallback: bool = True,
) -> RefutationResult:
    """Construct a verified Hamilton cycle with odd witness overlap.

    Staged construction, with failures tagged by stage: the switcher
    cycle ("S2a"), its connector linkage ("S2b"), and the sheltered
    Hamilton path over everything outside the gadget ("S3").  The final
    assembly picks the switcher traversal whose parity complements the
    outer path and concatenates the two.  Every success is re-verified:
    the output is a Hamilton cycle of g whose overlap with r.vector is
    odd.  Failures are retried with fresh sub-seeds, up to
    `_REFUTE_RETRIES` attempts, unless build_switcher reports that the
    failure does not depend on the seed (see there); then the loop ends
    after that attempt, and `attempts` counts the attempts made.  For
    n <= 16, `enumeration_fallback` then asks the exact decider's parity
    subset DP, which returns a Hamilton cycle meeting r oddly or proves
    that none exists.  That includes R = E(G), which leaves no switcher
    edge but meets every Hamilton cycle oddly at odd n.
    """
    small_set = small if small is not None else small_vertices(g)
    last_stage, last_detail = "S2a", "not attempted"
    attempts = 0
    for attempt in range(_REFUTE_RETRIES):
        attempts = attempt + 1
        sub_seed = derive_seed(seed, "refute", attempt)
        sw, meta = build_switcher(g, r, sub_seed, small=small_set)
        if sw is None:
            last_stage, last_detail = meta["stage"], meta["detail"]
            if not meta["seed_dependent"]:
                break  # every retry would rebuild the same inputs and fail alike
            continue
        vp = meta["vp"]
        cycle = sw.cycle
        k = sw.k
        # The outer path covers everything but the gadget, plus its two terminals.
        w_mask = mask_of(sw.vertices()) & ~(1 << vp[0]) & ~(1 << vp[k])
        s_set = VertexSet(g.n, ((1 << g.n) - 1) & ~w_mask)
        try:
            ppr = hamilton_path_protected(
                g, s_set, vp[0], vp[k], seed=derive_seed(sub_seed, "close"),
                small=small_set)
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
        return RefutationResult(hc, switcher=sw, attempts=attempts, via="switcher")
    if enumeration_fallback and g.n <= 16:
        hamiltonian, order = _odd_hamilton_cycle(g, r.vector.bits)
        if order is not None:
            hc = HamiltonCycle.from_order(g, order)
            if intersection_parity(hc.vector, r.vector) != 1:
                raise RuntimeError("parity DP cycle has even witness overlap")
            return RefutationResult(hc, attempts=attempts, via="parity_dp")
        last_stage = "S3"
        last_detail = ("no odd-overlap Hamilton cycle exists" if hamiltonian
                       else "no Hamilton cycle exists")
    return RefutationResult(None, failed_stage=last_stage, detail=last_detail,
                            attempts=attempts)
