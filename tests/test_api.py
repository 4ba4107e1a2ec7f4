import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import tileseg

MODULES = [tileseg] + [
    importlib.import_module(f"tileseg.{info.name}") for info in pkgutil.iter_modules(tileseg.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name deleted from a module but left in an export list fails here
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_the_runtime_imports_only_numpy_and_the_standard_library():
    # relative imports stay inside the package; every absolute one is checked
    found = set()
    for path in Path(tileseg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {name for _, name in found} >= {"numpy", "json"}  # the walk sees imports
    foreign = sorted(
        (file, name) for file, name in found
        if name != "numpy" and name not in sys.stdlib_module_names
    )
    assert foreign == []
