import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carnotreach
from carnotreach.adjoint import AdjointCovector
from carnotreach.group import DilationWeights, GroupElement, flow_const, identity
from carnotreach.probability import DiscreteDistribution
from carnotreach.words import InvariantViolation, PqrPoint, Word

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


def _vector_pair_slot(k):
    def build(make, bad):
        entries = [1.0, 0.5, 0.25, 1.0, -1.0, 1.0]
        entries[k] = bad
        return make(tuple(entries[:3]), tuple(entries[3:]))

    return build


def _word_slot(k):
    def build(make, bad):
        arcs = [[1, 1.0], [2, 1.0], [3, 1.0]]
        arcs[1][k] = bad
        return make(tuple(map(tuple, arcs)))

    return build


def _atom_slot(k):
    def build(make, bad):
        atom = [0.5, 1.0]
        atom[k] = bad
        return make((tuple(atom),))

    return build


def _pqr_slot(k):
    def build(make, bad):
        coords = [0.5, 0.5, 0.5]
        coords[k] = bad
        return make(*coords)

    return build


def _dilation_slot(k):
    def build(make, bad):
        weights = [1.0, 2.0, 0.5]
        weights[k] = bad
        return make(tuple(weights))

    return build


def _flow_slot(k):
    # slots 0-2 are the control, slot 3 the duration
    def build(make, bad):
        entries = [1.0, 0.0, 0.0, 0.5]
        entries[k] = bad
        return make(identity(), tuple(entries[:3]), entries[3])

    return build


# (id, constructors, how to put a value in the slot, the names it may raise)
NUMERIC_SLOTS = [
    ("word-letter", (Word, Word.of), _word_slot(0), {"word-letter"}),
    ("word-duration", (Word, Word.of), _word_slot(1), {"word-duration"}),
    *((f"pqr-{k}", (PqrPoint,), _pqr_slot(k), {"pqr", "pqr-finite"}) for k in range(3)),
    *(
        (f"covector-{k}", (AdjointCovector, AdjointCovector.of), _vector_pair_slot(k), {"covector"})
        for k in range(6)
    ),
    *(
        (f"atom-{k}", (DiscreteDistribution, DiscreteDistribution.of), _atom_slot(k), {"dice-json", "dice-finite"})
        for k in range(2)
    ),
    *((f"group-element-{k}", (GroupElement.of,), _vector_pair_slot(k), {"group-element"}) for k in range(6)),
    *((f"dilation-{k}", (DilationWeights,), _dilation_slot(k), {"dilation-weights"}) for k in range(3)),
    *((f"flow-control-{k}", (flow_const,), _flow_slot(k), {"flow-control"}) for k in range(3)),
    ("flow-duration", (flow_const,), _flow_slot(3), {"flow-duration"}),
]
BAD_NUMBERS = [True, "1", None, float("nan"), float("inf"), 10**400]


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=["bool", "str", "None", "nan", "inf", "huge-int"])
@pytest.mark.parametrize("slot, makers, build, names", NUMERIC_SLOTS, ids=[row[0] for row in NUMERIC_SLOTS])
def test_every_public_constructor_names_a_bad_number(slot, makers, build, names, bad):
    for make in makers:
        with pytest.raises(InvariantViolation) as exc:
            build(make, bad)
        assert exc.value.name in names, (make, slot, bad)
    # numpy numbers, as the solver and the samplers produce them, pass in every slot
    good = np.int64(1) if slot == "word-letter" else np.float64(1.0)
    for make in makers:
        build(make, good)

