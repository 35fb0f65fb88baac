"""Per-layer tracing from the benchmark's side, without touching the package.

A Tracer rebinds each function in LAYERS, at every module namespace of
the package that binds it, to a wrapper that records one span per call.
Spans nest on a stack, so each closing span knows its parent: the span's
time goes to its layer's busy time, the span minus its children to the
layer's self time, and the span's full length to the parent's children.
Spans are aggregated as they close rather than stored, which keeps memory
flat over the hundreds of thousands of cycle-level calls of the exact workload.

The generator `enumerate_hamilton_cycles` is timed per `next()`: one
span per produced cycle, so time spent by the consumer between cycles is
not charged to it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


def _present(result) -> bool:
    return result is not None


def _ok(result) -> bool:
    return result.ok


def _decided(verdict) -> bool:
    return verdict.kind.value != "Inconclusive"


def _switcher_built(result) -> bool:
    return result[0] is not None


def _extended(outcome) -> bool:
    return outcome.extended


# (module, function, extra metric): the extra metric is a (name, predicate)
# ratio over calls, "cycles" for the number a generator yields, or None.
LAYERS = (
    ("experiments", "sample_gnp", None),
    ("experiments", "synthetic_witness", None),
    ("experiments", "refutation_pipeline", ("ok_ratio", _ok)),
    ("experiments", "build_switcher", ("ok_ratio", _switcher_built)),
    ("graph", "from_edge_list", None),
    ("graph", "restrict", None),
    ("gf2", "Gf2Basis.insert", ("extend_ratio", _extended)),
    ("gf2", "cycle_space_basis", None),
    ("gf2", "orthocomplement_basis", None),
    ("spanning", "confirm_spanning_sampled", ("ok_ratio", _decided)),
    ("spanning", "decide_spanning_exact", ("ok_ratio", _decided)),
    ("spanning", "enumerate_hamilton_cycles", "cycles"),
    ("spanning", "HamiltonCycle.from_order", None),
    ("spanning", "extract_witness", None),
    ("spanning", "normalize_witness", None),
    ("spanning", "is_bipartition_form", None),
    ("hamfinder", "rotation_extension_path", ("ok_ratio", _present)),
    ("hamfinder", "lll_split", ("ok_ratio", _present)),
    ("hamfinder", "hamilton_path_protected", ("ok_ratio", _ok)),
    ("switcher", "find_switcher_cycle", ("ok_ratio", _present)),
    ("switcher", "disjoint_pair_paths", ("ok_ratio", _present)),
    ("switcher", "hamilton_paths_of_switcher", None),
)


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    hits: int = 0  # calls passing the ratio's predicate, or cycles yielded


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for module, func, extra in LAYERS:
        key = f"{module}.{func}"
        units.update({f"{key}.calls": "count", f"{key}.ms": "ms", f"{key}.self_ms": "ms"})
        if extra == "cycles":
            units[f"{key}.cycles"] = "count"
        elif extra is not None:
            units[f"{key}.{extra[0]}"] = "ratio"
    units["tracer.overhead"] = "ratio"
    return units


class Tracer:
    """Context manager that traces the LAYERS while it is active."""

    def __init__(self):
        self.stats = {f"{m}.{f}": LayerStats() for m, f, _ in LAYERS}
        self._open: list[list[float]] = []  # per open span: [start, children]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, func, extra in LAYERS:
            self._patch(module, func, extra)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for module, func, extra in LAYERS:
            key = f"{module}.{func}"
            st = self.stats[key]
            out[f"{key}.calls"] = st.calls
            out[f"{key}.ms"] = st.seconds * 1000
            out[f"{key}.self_ms"] = st.self_seconds * 1000
            if extra == "cycles":
                out[f"{key}.cycles"] = st.hits
            elif extra is not None:
                # A layer that was never called reports a ratio of 0.
                out[f"{key}.{extra[0]}"] = st.hits / st.calls if st.calls else 0.0
        return out

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch(self, module: str, func: str, extra) -> None:
        mod = importlib.import_module(f"cyclespan.{module}")
        stats = self.stats[f"{module}.{func}"]
        owner_name, _, attr = func.rpartition(".")
        if owner_name:
            # Methods live on their class, which every namespace shares.
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(raw.__func__, stats, extra)))
            else:
                self._set(owner, attr, self._wrap(raw, stats, extra))
            return
        original = getattr(mod, attr)
        if extra == "cycles":
            wrapper = self._wrap_generator(original, stats)
        else:
            wrapper = self._wrap(original, stats, extra)
        for name, m in list(sys.modules.items()):
            if name != "cyclespan" and not name.startswith("cyclespan."):
                continue
            for bound, value in list(vars(m).items()):
                if value is original:
                    self._set(m, bound, wrapper)

    def _close(self, stats: LayerStats, hit: bool, call: bool = True) -> None:
        start, children = self._open.pop()
        span = perf_counter() - start
        stats.calls += call
        stats.seconds += span
        stats.self_seconds += span - children
        stats.hits += hit
        if self._open:
            self._open[-1][1] += span

    def _wrap(self, fn, stats: LayerStats, extra):
        predicate = extra[1] if isinstance(extra, tuple) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append([perf_counter(), 0.0])
            hit = False
            try:
                result = fn(*args, **kwargs)
                hit = predicate is not None and predicate(result)
                return result
            finally:
                self._close(stats, hit)

        return traced

    def _wrap_generator(self, fn, stats: LayerStats):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                self._open.append([perf_counter(), 0.0])
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(stats, False, call=False)
                stats.hits += 1
                yield item

        return traced
