"""The package's modules import only from strictly lower layers.

The layers, bottom up: seeds, graph, gf2, hamfinder (the paths layer),
spanning and switcher (side by side), refute, experiments, cli.  The
check reads every relative import with `ast`, so it also catches imports
inside functions.  `__init__` re-exports from every layer and is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cyclespan"
LAYER = {
    "seeds": 0,
    "graph": 1,
    "gf2": 2,
    "hamfinder": 3,
    "spanning": 4,
    "switcher": 4,
    "refute": 5,
    "experiments": 6,
    "cli": 7,
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.stem != "__init__"}


def _relative_imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYER)


def test_imports_point_strictly_down():
    upward = [f"{name} imports {target}"
              for name, tree in _modules().items()
              for target in _relative_imports(tree)
              if LAYER[target] >= LAYER[name]]
    assert upward == []


def test_refutation_code_lives_in_refute():
    moved = {"synthetic_witness", "RefutationResult", "build_switcher", "refutation_pipeline"}
    defined = {name: {node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
               for name, tree in _modules().items()}
    assert moved <= defined["refute"]
    assert not moved & defined["experiments"]
