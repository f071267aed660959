import numpy as np
import pytest

from carnotreach.adjoint import AdjointCovector, synthesize
from carnotreach.second_order import (
    AlgebraElement,
    ag_test,
    basis_field,
    bracket,
    conjugated_fields,
)
from carnotreach.words import InvariantViolation, Word

from test_adjoint import random_triangle_covector


def six_arc_extremal(rng):
    """Triangle covector together with its synthesized 6-arc (5-switch) word."""
    while True:
        a = random_triangle_covector(rng)
        long_word, _ = synthesize(a, 100.0)
        if len(long_word.arcs) >= 6:
            break
    durs = [t for _, t in long_word.arcs]
    horizon = sum(durs[:5]) + 0.5 * durs[5]
    word, report = synthesize(a, horizon)
    assert len(word.arcs) == 6
    assert report.kind == "bang-bang"
    return a, word


def test_bracket_table():
    x1, x2, x3 = (basis_field(l) for l in (1, 2, 3))
    assert bracket(x1, x2).b == (1.0, 0.0, 0.0)
    assert bracket(x1, x3).b == (0.0, 1.0, 0.0)
    assert bracket(x2, x3).b == (0.0, 0.0, 1.0)
    assert bracket(x2, x1).b == (-1.0, 0.0, 0.0)
    # brackets of second-layer elements vanish (step 2)
    y = AlgebraElement((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    assert bracket(y, x1).b == (0.0, 0.0, 0.0)


def test_conjugated_fields_small_word():
    # Z_0 = V_0 and Z_1 = V_1 (no interior arcs yet); Z_2 picks up tau_2 [V_1, V_2]
    w = Word.of([(1, 0.25), (2, 0.5), (3, 0.75)])
    z = conjugated_fields(w)
    assert z[0].as_array().tolist() == [1, 0, 0, 0, 0, 0]
    assert z[1].as_array().tolist() == [0, 1, 0, 0, 0, 0]
    assert z[2].as_array().tolist() == [0, 0, 1, 0, 0, 0.5]


def test_conjugated_fields_ignore_outer_durations():
    base = [(1, 0.3), (2, 0.4), (3, 0.2), (1, 0.5)]
    z1 = conjugated_fields(Word.of(base))
    rescaled = [(1, 9.0)] + base[1:3] + [(1, 7.0)]
    z2 = conjugated_fields(Word.of(rescaled))
    for u, v in zip(z1, z2):
        assert np.allclose(u.as_array(), v.as_array(), atol=1e-15)


def test_ag_test_requires_two_switchings():
    a = AdjointCovector.of((1, 0, 0), (1, 1, 1))
    with pytest.raises(InvariantViolation) as exc:
        ag_test(Word.of([(1, 1), (2, 1)]), a)
    assert exc.value.name == "switch-count"


def test_consistency_check_rejects_mismatched_word():
    rng = np.random.default_rng(0)
    a, word = six_arc_extremal(rng)
    wrong = Word.of([(l, t * 1.1) for l, t in word.arcs])
    with pytest.raises(InvariantViolation):
        ag_test(wrong, a)


def test_five_switch_words_not_optimal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, word = six_arc_extremal(rng)
        report = ag_test(word, a)
        assert report.verdict == "not-optimal"
        assert report.W_basis.shape == (6, 1)
        assert report.G_restricted.shape == (1, 1)
        assert report.G_restricted[0, 0] > 0


def test_variation_ratios_match_closed_form():
    # the 1-dimensional admissible variation of a 6-arc cycle has
    # alpha proportional to (-tau4/tau3, -tau2/tau3, -1, tau4/tau3, tau2/tau3, 1)
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, word = six_arc_extremal(rng)
        report = ag_test(word, a)
        alpha = report.W_basis[:, 0]
        durs = [t for _, t in word.arcs]
        tau2, tau3, tau4 = durs[1], durs[2], durs[3]
        expected = np.array(
            [-tau4 / tau3, -tau2 / tau3, -1.0, tau4 / tau3, tau2 / tau3, 1.0]
        )
        expected = expected * (alpha[5] / expected[5])
        assert np.abs(alpha - expected).max() <= 1e-8


def test_three_arc_word_inconclusive():
    # 2-switch extremal: W is trivial, no positive direction exists
    a = AdjointCovector.of((1.0, 0.5, 0.25), (-0.5, -0.25, -0.5))
    word, _ = synthesize(a, 3.0)
    assert word.arcs == ((1, 1.0), (2, 1.0), (3, 1.0))
    report = ag_test(word, a)
    assert report.verdict == "inconclusive"
    assert report.W_basis.shape[1] == 0
