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


def _referenced_names(source):
    """The names a module reads: ``Name`` ids, ``Attribute`` attrs and ``from`` imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_export_has_a_caller_outside_the_tests():
    # an export only tests call belongs in tests/: the package ships what
    # the pipeline, the CLI, the benchmark and the README's examples reach
    root = Path(__file__).resolve().parents[1]
    package = Path(tileseg.__file__).parent
    sources = [path.read_text() for path in package.glob("*.py") if path.name != "__init__.py"]
    sources += [path.read_text() for path in (root / "bench").glob("*.py")]
    readme = (root / "README.md").read_text()
    sources += [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    used = {name for source in sources for name in _referenced_names(source)}
    assert sorted(set(tileseg.__all__) - used) == []
