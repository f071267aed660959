import importlib
import pkgutil

import pytest

import carnotreach

MODULES = ["carnotreach"] + [
    f"carnotreach.{info.name}" for info in pkgutil.iter_modules(carnotreach.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
