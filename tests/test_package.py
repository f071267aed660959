import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import carnotreach
from carnotreach.adjoint import AdjointCovector
from carnotreach.attainability import fit
from carnotreach.group import DilationWeights, GroupElement, dilate, flow_const, identity
from carnotreach.probability import DiscreteDistribution, dice_pqr
from carnotreach.words import InvariantViolation, PqrPoint, Word, endpoint, pqr, word_to_dict

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


def test_closed_form_answers_build_no_pattern_table():
    # a fresh process pays for a pattern table and for numpy.random (9 to
    # 14 ms) only when it sweeps; the import, a closed-form answer and a
    # screened one do neither
    script = "\n".join([
        "import contextlib, io, sys",
        "import carnotreach, carnotreach.cli",
        "from carnotreach import attainability",
        "def state():",
        "    return attainability._patterns_of_length.cache_info().currsize, 'numpy.random' in sys.modules",
        "print(state())",
        "for p, q, r in ((0.6, 0.5, 0.4), (0.9, 0.9, 0.9)):",
        "    with contextlib.redirect_stdout(io.StringIO()) as out:",
        "        assert carnotreach.cli.main(['member', '--p', str(p), '--q', str(q), '--r', str(r)]) == 0",
        "    print(state(), '\"starts_used\": 0' in out.getvalue())",
    ])
    src = str(Path(carnotreach.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "(0, False)\n(0, False) True\n(0, False) True\n"


def test_a_failing_hypothesis_property_does_not_stop_the_suite(tmp_path):
    # the suite's settings turn warnings into errors; Hypothesis's report
    # hook warns while it reports a failure, and as an error that aborted
    # the session with INTERNALERROR before the next test ran
    (tmp_path / "test_failing_property.py").write_text("\n".join([
        "from hypothesis import given, strategies as st",
        "@given(st.integers())",
        "def test_fails(n):",
        "    assert n < 0",
        "def test_passes():",
        "    pass",
    ]))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    command = [sys.executable, "-m", "pytest", "-q", "-c", str(config), "-p", "no:cacheprovider", "test_failing_property.py"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


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


class _Real(float):
    """A float subclass, as a raw constructor may be handed one."""


# (kind, letters, numbers): every number is held exactly by its kind, so the
# raw value built from the kind equals the one built from Python floats
RAW_KINDS = [
    ("float32", np.int64, np.float32),
    ("int64", np.int64, np.int64),
    ("Fraction", int, Fraction),
    ("float-subclass", int, _Real),
]


def _raw_values(letter, number, whole):
    """Raw Word, PqrPoint, dice and DilationWeights with `letter` letters and
    `number` numbers: a six-arc section word and its point, or, when `whole`,
    the vertex word and its vertex, whose numbers are all integers."""
    if whole:
        arcs, point = ((1, 1), (2, 1), (3, 1)), (1, 1, 0)
        dice, weights = [[(1, 1)], [(2, 1)], [(0, 1)]], (1, 2, 3)
    else:
        arcs, point = ((1, 0.5), (2, 0.75), (3, 0.25), (1, 0.5), (3, 0.75), (2, 0.25)), (0.625, 0.75, 0.125)
        dice, weights = [[(0.25, 0.5), (0.75, 0.5)], [(0.5, 1)], [(0.125, 0.25), (0.875, 0.75)]], (0.5, 2, 4)
    return (
        Word(tuple((letter(l), number(t)) for l, t in arcs)),
        PqrPoint(*map(number, point)),
        [DiscreteDistribution(tuple((number(v), number(m)) for v, m in atoms)) for atoms in dice],
        DilationWeights(tuple(map(number, weights))),
    )


@pytest.mark.parametrize("kind, letter, number", RAW_KINDS, ids=[row[0] for row in RAW_KINDS])
def test_raw_constructors_store_python_floats(kind, letter, number):
    # a raw constructor stores int letters and float numbers, so every result
    # is that of the float-built value, in float64 and JSON-ready
    whole = kind == "int64"
    raw_word, raw_point, raw_dice, raw_weights = _raw_values(letter, number, whole)
    word, point, dice, weights = _raw_values(int, float, whole)
    assert repr(raw_word) == repr(word) and repr(raw_point) == repr(point)
    assert repr(raw_dice) == repr(dice) and repr(raw_weights) == repr(weights)
    assert all(type(l) is int and type(t) is float for l, t in raw_word.arcs)
    assert repr(pqr(raw_word)) == repr(pqr(word)) == repr(point)
    assert repr(endpoint(raw_word)) == repr(endpoint(word))
    assert repr(dice_pqr(*raw_dice)) == repr(dice_pqr(*dice))
    assert repr(dilate(raw_weights, endpoint(word))) == repr(dilate(weights, endpoint(word)))
    assert json.dumps(fit(raw_point).to_dict()) == json.dumps(fit(point).to_dict())
    assert json.dumps(word_to_dict(raw_word)) == json.dumps(word_to_dict(word))


def test_checked_types_store_tuples_of_ints_and_floats():
    arcs, atoms, c = ((1, 0.5), (2, 1.0)), ((0.0, 0.5), (1.0, 0.5)), (1.0, 2.0, 0.5)
    assert Word(arcs).arcs == arcs
    assert DilationWeights(c).c == c
    assert AdjointCovector(c, c).h == c
    assert all(type(v) is float for v in DilationWeights(c).c + AdjointCovector(c, c).h)
    # lists, iterators and ints are stored as tuples of floats (the reprs
    # tell 1 from 1.0 and a list from a tuple), so equal words hash equal
    for given in ([[1, 0.5], [2, 1]], iter(arcs), [(1, 0.5), (2, 1.0)]):
        w = Word(given)
        assert repr(w.arcs) == repr(arcs) and hash(w) == hash(Word(arcs))
    assert repr(DiscreteDistribution([[0, 0.5], [1, 0.5]]).atoms) == repr(atoms)
    assert repr(DilationWeights([1, 2, 0.5]).c) == repr(c)
