import importlib
import pkgutil

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
