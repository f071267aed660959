import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from carnotreach import second_order
from carnotreach.adjoint import AdjointCovector, normalize, switching_times, synthesize
from carnotreach.second_order import (
    MAX_AG_ARCS,
    NULLSPACE_CUTOFF,
    POSITIVE_EIG_TOL,
    AlgebraElement,
    SecondOrderReport,
    _check_consistency,
    _letter_table,
    ag_test,
    basis_field,
    bracket,
    conjugated_fields,
)
from carnotreach.words import InvariantViolation, Word, canonicalize, random_word

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


def test_brackets_of_conjugated_fields_are_brackets_of_their_letters():
    # conjugation adds only second-layer terms, and a bracket reads only
    # first layers, so [Z_i, Z_j] = [X_{l_i}, X_{l_j}] bit for bit
    for n_arcs in range(3, 31):
        for seed in range(4):
            w = random_word(n_arcs, 100 * n_arcs + seed)
            z = conjugated_fields(w)
            x = [basis_field(l) for l, _ in w.arcs]
            for i, j in itertools.product(range(len(z)), repeat=2):
                assert repr(bracket(z[i], z[j])) == repr(bracket(x[i], x[j]))


def test_ag_test_requires_two_switchings():
    a = AdjointCovector.of((1, 0, 0), (1, 1, 1))
    with pytest.raises(InvariantViolation) as exc:
        ag_test(Word.of([(1, 1), (2, 1)]), a)
    assert exc.value.name == "switch-count"


# the count is that of the canonical word: a zero arc goes, and its neighbours merge
@pytest.mark.parametrize(
    "arcs, n",
    [((), 0), (((2, 1.0),), 1), (((1, 1.0), (2, 0.0), (1, 1.0)), 1), (((1, 1.0), (2, 1.0)), 2)],
)
def test_ag_test_switch_count_message_counts_the_arcs(arcs, n):
    with pytest.raises(InvariantViolation, match=rf"need at least 3 arcs \(2 switchings\), got {n} arcs$") as exc:
        ag_test(Word(arcs), AdjointCovector.of((1, 0, 0), (1, 1, 1)))
    assert exc.value.name == "switch-count"


def test_ag_test_rejects_a_word_over_the_cap_before_any_work(monkeypatch):
    # the covector check synthesizes the word and the fields are quadratic
    # work; a word of MAX_AG_ARCS arcs reaches them, one more arc does not
    class Reached(Exception):
        pass

    def refuse(*args):
        raise Reached

    monkeypatch.setattr(second_order, "synthesize", refuse)
    monkeypatch.setattr(second_order, "conjugated_fields", refuse)
    a = AdjointCovector.of((1, 0, 0), (1, 1, 1))
    cycle = [(1, 0.5), (2, 0.25), (3, 0.125)]
    long_word = Word((cycle * (MAX_AG_ARCS // 3 + 1))[:MAX_AG_ARCS + 1])
    with pytest.raises(InvariantViolation, match=rf"^word has {MAX_AG_ARCS + 1} arcs, over {MAX_AG_ARCS}$") as exc:
        ag_test(long_word, a)
    assert exc.value.name == "switch-count"
    with pytest.raises(Reached):
        ag_test(Word(long_word.arcs[:MAX_AG_ARCS]), a)


def test_conjugated_fields_rejects_a_word_over_the_cap_before_any_field(monkeypatch):
    class Reached(Exception):
        pass

    def refuse(*args):
        raise Reached

    monkeypatch.setattr(second_order, "basis_field", refuse)
    cycle = [(1, 0.5), (2, 0.25), (3, 0.125)]
    long_word = Word((cycle * (MAX_AG_ARCS // 3 + 1))[:MAX_AG_ARCS + 1])
    with pytest.raises(InvariantViolation, match=rf"^word has {MAX_AG_ARCS + 1} arcs, over {MAX_AG_ARCS}$") as exc:
        conjugated_fields(long_word)
    assert exc.value.name == "switch-count"
    with pytest.raises(Reached):
        conjugated_fields(Word(long_word.arcs[:MAX_AG_ARCS]))


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


def _exact_rank(rows) -> int:
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_six_arc_cycles_have_an_exact_positive_variation():
    """For a rational covector of a cyclic regime (h12, h23, h31 > 0 with
    K > 0, or h12, h23, h31 < 0 with K < 0) and its 6-arc cyclic word
    starting i j k (a rotation of 1 3 2 1 3 2 or 1 2 3 1 2 3 respectively),
    whose interior arcs last |K / (h31 h12)|, |K / (h12 h23)| and
    |K / (h23 h31)| for letters 1, 2 and 3 and whose outer arcs last any
    positive rational, exactly:

    - the 7 x 6 constraint rows (all ones, then Z_0 .. Z_5 as
      `conjugated_fields` builds them) have rank 5;
    - criterion 07's alpha = (-t4/t3, -t2/t3, -1, t4/t3, t2/t3, 1) spans
      their kernel;
    - alpha^T g alpha = 2 |h_jk h_ki / h_ij|, with g read from the letter
      table as `ag_test` reads it, so alpha certifies non-optimality.

    Fractions make every step exact; this is the algebraic half of the
    switching bound behind criterion 07."""
    rng = random.Random(5)

    def rational(lo, hi):
        return Fraction(rng.randint(lo * 24, hi * 24), 24)

    cases = 0
    while cases < 300:
        sign = 1 if cases % 2 == 0 else -1
        h = [rational(-2, 2) for _ in range(3)]
        h12, h23, h31 = (sign * Fraction(rng.randint(1, 48), 24) for _ in range(3))
        K = h12 + h23 + h31 - (h[0] * h23 + h[1] * h31 + h[2] * h12)
        if sign * K <= 0:
            continue
        cases += 1
        # columns[j - 1][i - 1] is h_ij, as in `adjoint._columns`
        columns = ((0, -h12, h31), (h12, 0, -h23), (-h31, h23, 0))
        table = [[Fraction(v) / 2 for v in column] for column in columns]
        skew = (h12, -h31, h23)
        a = AdjointCovector(tuple(map(float, h)), tuple(map(float, skew)))
        assert _letter_table(a).tolist() == [[float(v) for v in row] for row in table]
        interior = {1: abs(K / (h31 * h12)), 2: abs(K / (h12 * h23)), 3: abs(K / (h23 * h31))}
        cycle = (1, 3, 2) if sign > 0 else (1, 2, 3)
        for shift in range(3):
            i, j, k = cycle[shift:] + cycle[:shift]
            letters = (i, j, k, i, j, k)
            outer = [rational(0, 3) + Fraction(1, 24) for _ in range(2)]
            taus = [outer[0], *(interior[l] for l in letters[1:5]), outer[1]]
            # Z_n = X_{l_n} + sum over interior arcs 1 <= m < n of tau_m [X_{l_m}, X_{l_n}]
            rows = [[Fraction(1)] * 6] + [[Fraction(0)] * 6 for _ in range(6)]
            for n, ln in enumerate(letters):
                rows[ln][n] += 1
                for m in range(1, n):
                    lm = letters[m]
                    if lm != ln:
                        # the (y12, y13, y23) slot of {lm, ln}, +1 when lm < ln
                        slot = {(1, 2): 4, (1, 3): 5, (2, 3): 6}[tuple(sorted((lm, ln)))]
                        rows[slot][n] += taus[m] if lm < ln else -taus[m]
            z = conjugated_fields(Word(tuple((l, float(t)) for l, t in zip(letters, taus))))
            assert np.allclose(np.array(rows[1:], dtype=float).T, [zi.as_array() for zi in z], rtol=1e-12, atol=1e-12)

            t2, t3, t4 = taus[1], taus[2], taus[3]
            alpha = (-t4 / t3, -t2 / t3, Fraction(-1), t4 / t3, t2 / t3, Fraction(1))
            assert all(sum(r * x for r, x in zip(row, alpha)) == 0 for row in rows)
            assert _exact_rank(rows) == 5
            # g has zero diagonal and both triangles equal to the table entry of the upper one
            quad = sum(
                2 * alpha[p] * alpha[q] * table[letters[p] - 1][letters[q] - 1]
                for p in range(6)
                for q in range(p + 1, 6)
            )
            h_jk, h_ki, h_ij = columns[k - 1][j - 1], columns[i - 1][k - 1], columns[j - 1][i - 1]
            assert quad == 2 * abs(h_jk * h_ki / h_ij)
            assert quad > 0


def test_three_arc_word_inconclusive():
    # 2-switch extremal: W is trivial, no positive direction exists
    a = AdjointCovector.of((1.0, 0.5, 0.25), (-0.5, -0.25, -0.5))
    word, _ = synthesize(a, 3.0)
    assert word.arcs == ((1, 1.0), (2, 1.0), (3, 1.0))
    report = ag_test(word, a)
    assert report.verdict == "inconclusive"
    assert report.W_basis.shape[1] == 0


def pairwise_ag_test(w: Word, a: AdjointCovector) -> SecondOrderReport:
    """Reference second-order test: the Gram matrix from the bracket of
    every pair of conjugated fields, one pair at a time."""
    w = canonicalize(w)
    k = len(w.arcs) - 1
    if k < 2:
        raise InvariantViolation("switch-count", f"need at least 2 switchings, got {k}")
    _check_consistency(w, a)
    z = conjugated_fields(w)
    n = k + 1
    hvec = -np.array(a.skew)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            gij = float(np.dot(hvec, bracket(z[i], z[j]).b))
            g[i, j] = g[j, i] = gij / 2.0
    rows = np.zeros((7, n))
    rows[0, :] = 1.0
    for i in range(n):
        rows[1:, i] = z[i].as_array()
    _, s, vt = np.linalg.svd(rows)
    cutoff = NULLSPACE_CUTOFF * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    basis = vt[rank:].T
    if basis.shape[1] == 0:
        return SecondOrderReport(basis, np.zeros((0, 0)), "inconclusive")
    restricted = basis.T @ g @ basis
    restricted = (restricted + restricted.T) / 2.0
    eigs = np.linalg.eigvalsh(restricted)
    verdict = "not-optimal" if eigs.max() > POSITIVE_EIG_TOL else "inconclusive"
    return SecondOrderReport(basis, restricted, verdict)


def assert_same_report(report, reference):
    assert report.verdict == reference.verdict
    for got, want in ((report.W_basis, reference.W_basis), (report.G_restricted, reference.G_restricted)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_ag_test_matches_the_pairwise_reference_on_triangle_words():
    # triangle-regime words of 8-40 arcs, normalized and synthesized as the
    # extremals benchmark workload builds them
    rng = np.random.default_rng(3)
    arc_counts = set()
    while len(arc_counts) < 33:
        a = normalize(random_triangle_covector(rng))
        target = int(rng.integers(8, 41))
        word, report = synthesize(a, (target - 0.5) * sum(switching_times(a)) / 3.0)
        if not 8 <= len(word.arcs) <= 40:
            continue
        assert report.kind == "bang-bang"
        arc_counts.add(len(word.arcs))
        assert_same_report(ag_test(word, a), pairwise_ag_test(word, a))


def test_ag_test_matches_the_pairwise_reference_on_every_skew_sign():
    # each skew entry negative, zero or positive: a zero entry, and every
    # same-letter pair, gives a signed-zero Gram entry
    rng = np.random.default_rng(4)
    seen = set()
    for signs in itertools.product((-1, 0, 1), repeat=3):
        for _ in range(48):
            skew = tuple(float(s * rng.uniform(0.3, 2.0)) for s in signs)
            a = normalize(AdjointCovector.of(rng.uniform(0.5, 1.0, 3), skew))
            word, _ = synthesize(a, float(rng.uniform(2.0, 10.0)))
            if len(word.arcs) < 3:
                continue
            assert_same_report(ag_test(word, a), pairwise_ag_test(word, a))
            seen.update(enumerate(signs))
    assert seen == set(itertools.product(range(3), (-1, 0, 1)))


def test_letter_table_matches_the_dot_products_with_basis_brackets():
    # the table is read from the skew entries; the dot products of the
    # covector with the brackets of basis fields are the reference, bit for
    # bit: zeros of both signs, subnormals, ints and numpy scalars
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.5, -3.75, 0, 2, -1, np.float64(-0.0), np.float64(0.3)]
    fields = [basis_field(l) for l in (1, 2, 3)]
    for skew in itertools.product(values, repeat=3):
        a = AdjointCovector((1.0, 0.5, 0.25), skew)
        hvec = -np.array(a.skew)
        want = np.array([[float(np.dot(hvec, bracket(u, v).b)) / 2.0 for v in fields] for u in fields])
        assert _letter_table(a).tobytes() == want.tobytes()
