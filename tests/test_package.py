import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# handlers that would turn a bug, or a solver error, into a verdict
BROAD_EXCEPTIONS = {"Exception", "BaseException", "LinAlgError"}


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None) for t in types}


@pytest.mark.parametrize("name", MODULES)
def test_no_handler_catches_broad_or_solver_errors(name):
    source = Path(importlib.import_module(name).__file__).read_text()
    bad = [
        handler.lineno
        for handler in ast.walk(ast.parse(source))
        if isinstance(handler, ast.ExceptHandler)
        and (handler.type is None or _caught_names(handler) & BROAD_EXCEPTIONS)
    ]
    assert bad == [], f"{name}: bare, broad or LinAlgError handler at lines {bad}"


def test_runtime_needs_no_scipy():
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    script = "\n".join([
        "import importlib, sys",
        "sys.modules['scipy'] = None",
        f"for name in {MODULES!r}:",
        "    importlib.import_module(name)",
        "from carnotreach.attainability import fit, max_min_coordinate",
        "from carnotreach.words import PqrPoint",
        "print(max_min_coordinate(8)[0])",
        # settled by the closed-form word, with no sweep
        "print(fit(PqrPoint(0.6, 0.5, 0.4)).starts_used)",
    ])
    src = str(Path(carnotreach.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0.6180339887498949\n0\n"
