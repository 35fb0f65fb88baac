"""Names the benchmark reaches into the package by.

`perfbench/tracer.py` rebinds every function in its LAYERS table by
module and name, and `perfbench/workloads.py` passes
`enumeration_fallback` to `refutation_pipeline`.  A rename or move in
`src` breaks `perfbench/run.py --trace 1` without failing any package
test, so these tests resolve the same names.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from cyclespan import experiments

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses looks the module up by name
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_traced_layers_resolve():
    layers = _load_tracer().LAYERS
    assert layers
    for module, func, _extra in layers:
        obj = importlib.import_module(f"cyclespan.{module}")
        for part in func.split("."):
            assert hasattr(obj, part), f"cyclespan.{module}.{func}"
            obj = getattr(obj, part)
        assert callable(obj), f"cyclespan.{module}.{func}"


def test_refutation_pipeline_takes_enumeration_fallback():
    params = inspect.signature(experiments.refutation_pipeline).parameters
    assert "enumeration_fallback" in params
