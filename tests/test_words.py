import math
from fractions import Fraction

import numpy as np
import pytest

from carnotreach import group
from carnotreach.adjoint import synthesize
from carnotreach.words import (
    QUADRIC_PATTERNS,
    InvariantViolation,
    PqrPoint,
    Word,
    canonicalize,
    concat,
    endpoint,
    pqr,
    pqr_from_endpoint,
    q_margin,
    quadric,
    random_word,
    require_real,
    reverse,
    section_weights,
    to_section,
    word_from_dict,
    word_to_dict,
)

from test_adjoint import all_reference_cases, reference_words


def test_canonicalize_merges_and_drops():
    assert canonicalize(Word.of([(1, 0.5), (1, 0.5)])) == Word.of([(1, 1.0)])
    assert canonicalize(Word.of([(1, 1), (2, 0), (3, 1)])) == Word.of([(1, 1.0), (3, 1.0)])
    w = Word.of([(1, 1), (2, 1), (3, 1)])
    assert canonicalize(w) == w


def test_endpoint_examples():
    assert endpoint(Word.of([(1, 1)])) == group.GroupElement.of((1, 0, 0), (0, 0, 0))
    g = endpoint(Word.of([(1, 1), (2, 1)]))
    assert g.x == (1, 1, 0)
    assert g.y == (1, 0, 0)
    g = endpoint(Word.of([(1, 1), (2, 1), (3, 1)]))
    assert g.y == (1, 1, 1)


def test_pqr_vertices():
    assert pqr(Word.of([(1, 1), (2, 1), (3, 1)])) == PqrPoint(1, 1, 0)  # D1
    assert pqr(Word.of([(3, 1), (2, 1), (1, 1)])) == PqrPoint(0, 0, 1)  # C1


def test_pqr_quadric_word():
    a = b = 0.5
    w = Word.of([(1, a), (2, b), (3, 1), (1, 1 - a), (2, 1 - b)])
    pt = pqr(w)
    assert (pt.p, pt.q, pt.r) == (0.75, 0.5, 0.5)
    assert abs(pt.p + pt.q * pt.r - 1.0) == 0.0


def test_pqr_requires_section_word():
    with pytest.raises(InvariantViolation) as exc:
        pqr(Word.of([(1, 1), (2, 2), (3, 1)]))
    assert "2" in str(exc.value)


def test_pqr_agrees_with_endpoint_conversion():
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        direct = pqr(w).as_array()
        via_endpoint = pqr_from_endpoint(endpoint(w)).as_array()
        assert np.abs(direct - via_endpoint).max() <= 1e-12


def test_reverse_examples():
    w = Word.of([(1, 1), (2, 1), (3, 1)])
    assert reverse(w) == Word.of([(3, 1), (2, 1), (1, 1)])
    assert pqr(reverse(w)) == PqrPoint(0, 0, 1)

    palindrome = Word.of([(1, 0.5), (2, 0.5), (3, 1), (2, 0.5), (1, 0.5)])
    pt = pqr(palindrome)
    assert (pt.p, pt.q, pt.r) == (0.5, 0.5, 0.5)


def test_reverse_complement_law():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        total = pqr(w).as_array() + pqr(reverse(w)).as_array()
        assert np.abs(total - 1.0).max() <= 1e-12


def _relabel(w: Word, perm: dict[int, int]) -> Word:
    return Word.of((perm[l], t) for l, t in w.arcs)


def test_letter_permutations_act_on_pqr():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        p, q, r = pqr(w).as_array()
        # the 3-cycle 1 -> 2 -> 3 -> 1 rotates the coordinates
        cycled = pqr(_relabel(w, {1: 2, 2: 3, 3: 1})).as_array()
        assert np.abs(cycled - [r, p, q]).max() <= 1e-12
        # the transposition (1 2) flips every pair and swaps q with r
        swapped = pqr(_relabel(w, {1: 2, 2: 1, 3: 3})).as_array()
        assert np.abs(swapped - [1.0 - p, 1.0 - r, 1.0 - q]).max() <= 1e-12


def test_concat_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w1 = random_word(int(rng.integers(3, 7)), int(rng.integers(2**31)))
        w2 = random_word(int(rng.integers(3, 7)), int(rng.integers(2**31)))
        lhs = endpoint(concat(w1, w2))
        rhs = group.multiply(endpoint(w1), endpoint(w2))
        assert np.abs(np.array(lhs.x + lhs.y) - np.array(rhs.x + rhs.y)).max() <= 1e-12


def test_to_section_examples():
    w = Word.of([(1, 1), (2, 1), (3, 1)])
    assert to_section(w) == w
    assert to_section(Word.of([(1, 2), (2, 1), (3, 1)])) == Word.of([(1, 1), (2, 1), (3, 1)])


def test_to_section_rejects_missing_letter():
    with pytest.raises(InvariantViolation):
        to_section(Word.of([(1, 1), (2, 1)]))


def test_to_section_endpoint_equivariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        w = random_word(int(rng.integers(3, 8)), int(rng.integers(2**31)))
        scaled = Word.of((l, t * [0, 2.0, 0.5, 3.0][l]) for l, t in w.arcs)
        section = to_section(scaled)
        lhs = endpoint(section)
        rhs = group.dilate(section_weights(scaled), endpoint(scaled))
        assert np.abs(np.array(lhs.x + lhs.y) - np.array(rhs.x + rhs.y)).max() <= 1e-12


def test_random_word_determinism_and_section():
    assert random_word(6, 123) == random_word(6, 123)
    for seed in range(20):
        w = random_word(5, seed)
        totals = w.letter_totals()
        assert all(abs(T - 1.0) <= 1e-12 for T in totals.values())
        assert canonicalize(w) == w
    with pytest.raises(InvariantViolation):
        random_word(2, 0)
    with pytest.raises(InvariantViolation) as exc:
        random_word(3.5, 0)
    assert exc.value.name == "n-arcs"


def test_three_arc_words_hit_vertices():
    verts = {(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1)}
    seen = set()
    for seed in range(50):
        pt = pqr(random_word(3, seed))
        seen.add((round(pt.p), round(pt.q), round(pt.r)))
    assert seen <= verts


def test_facet_slice_laws():
    # r = 1 (every 3-arc precedes every 1-arc) forces p + q <= 1; r = 0 the reverse
    rng = np.random.default_rng(7)
    for _ in range(500):
        first = [(3, rng.uniform(0.1, 1)), (2, rng.uniform(0, 1)), (3, rng.uniform(0, 1))]
        second = [(2, rng.uniform(0, 1)), (1, 1.0), (2, rng.uniform(0, 1))]
        w = to_section(canonicalize(Word.of(first + second)))
        pt = pqr(w)
        assert abs(pt.r - 1.0) <= 1e-12
        assert pt.p + pt.q <= 1.0 + 1e-12
        rev = pqr(reverse(w))
        assert abs(rev.r) <= 1e-12
        assert rev.p + rev.q >= 1.0 - 1e-12


def test_quadric_identities_exact():
    for a in np.linspace(0, 1, 11):
        for b in np.linspace(0, 1, 11):
            even = Word.of([(1, a), (2, b), (3, 1), (1, 1 - a), (2, 1 - b)])
            pt = pqr(canonicalize(even))
            assert abs(pt.p + pt.q * pt.r - 1.0) <= 1e-12
            odd = Word.of([(2, a), (1, b), (3, 1), (2, 1 - a), (1, 1 - b)])
            pt = pqr(canonicalize(odd))
            assert abs((1 - pt.p) + (1 - pt.q) * (1 - pt.r) - 1.0) <= 1e-12


def test_quadric_returns_python_floats():
    for pattern in QUADRIC_PATTERNS:
        value, gradient = quadric(pattern, np.array([0.3, 0.6, 0.9]))
        assert type(value) is float and type(gradient) is tuple
        assert [type(v) for v in gradient] == [float] * 3


def _inline_q_margin(x: PqrPoint) -> float:
    """The Conjecture-Q margin as it was written before `quadric` existed,
    kept as the bit-for-bit reference of `q_margin`."""
    p, q, r = x.p, x.q, x.r
    a, b, c = 1.0 - p, 1.0 - q, 1.0 - r
    even = min(p + q * r - 1.0, q + r * p - 1.0, r + p * q - 1.0)
    odd = min(a + b * c - 1.0, b + c * a - 1.0, c + a * b - 1.0)
    return max(even, odd)


def test_q_margin_is_the_inline_formula_bit_for_bit():
    grid = np.arange(17) / 16.0  # dyadic, so many quadrics tie at exactly 0.0
    points = [PqrPoint(p, q, r) for p in grid.tolist() for q in grid.tolist() for r in grid.tolist()]
    points += [PqrPoint(*x) for x in np.random.default_rng(21).uniform(0.0, 1.0, size=(2000, 3)).tolist()]
    for x in points:
        assert repr(q_margin(x)) == repr(_inline_q_margin(x))


def test_golden_point_witness():
    a = (3 - math.sqrt(5)) / 2
    b = 1 - a
    w = Word.of([(1, a), (2, b), (3, 1), (1, 1 - a), (2, 1 - b)])
    phi = (math.sqrt(5) - 1) / 2
    pt = pqr(w)
    assert max(abs(pt.p - phi), abs(pt.q - phi), abs(pt.r - phi)) <= 1e-12


def test_json_round_trip():
    d = {"letters": [1, 2, 3, 1, 2], "durations": [0.5, 0.5, 1.0, 0.5, 0.5]}
    w = word_from_dict(d)
    assert word_to_dict(w) == d
    # non-canonical input is canonicalized on read
    messy = {"letters": [1, 1, 2], "durations": [0.5, 0.5, 1.0]}
    assert word_from_dict(messy) == Word.of([(1, 1.0), (2, 1.0)])
    with pytest.raises(InvariantViolation):
        word_from_dict({"letters": [1, 2]})


def test_word_rejects_non_finite_durations():
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(InvariantViolation) as exc:
            Word.of([(1, bad), (2, 1.0), (3, 1.0)])
        assert exc.value.name == "word-duration"


def test_word_rejects_non_real_durations():
    for bad in (True, False, np.True_, "1", "0.5", None, np.array([1.0]), 10**400):
        with pytest.raises(InvariantViolation) as exc:
            Word.of([(1, bad), (2, 1.0), (3, 1.0)])
        assert exc.value.name == "word-duration"
    # numpy numbers, as the solver and the samplers produce them, still pass
    w = Word.of(zip([1, 2, 3], [np.float64(0.5), np.float32(1.0), np.int64(1)]))
    assert w.arcs == ((1, 0.5), (2, 1.0), (3, 1.0))
    assert all(type(t) is float for _, t in w.arcs)


class _Float(float):
    pass


@pytest.mark.parametrize(
    "value",
    [0.25, np.float64(0.25), np.float32(0.25), _Float(0.25), 3, np.int64(3), Fraction(1, 3)],
    ids=["float", "float64", "float32", "float-subclass", "int", "int64", "Fraction"],
)
def test_require_real_returns_an_exact_float(value):
    # floats take the isinstance(value, float) check, the rest the numbers.Real one; both give float(value)
    got = require_real("x", value)
    assert type(got) is float
    assert got == float(value)


@pytest.mark.parametrize(
    "value", [True, np.bool_(True), "1", None, 10**400], ids=["bool", "bool_", "str", "None", "huge-int"]
)
def test_require_real_still_rejects_what_is_not_a_real_float(value):
    with pytest.raises(InvariantViolation) as exc:
        require_real("x", value)
    assert exc.value.name == "x"


def test_word_rejects_non_integer_letters():
    for bad in (1.5, 1.0, True, np.True_, "1", None):
        with pytest.raises(InvariantViolation) as exc:
            Word.of([(bad, 1.0), (2, 1.0), (3, 1.0)])
        assert exc.value.name == "word-letter"
    # numpy integer letters, as the solver builds them, still pass
    w = Word.of(zip(np.array([1, 2, 3]), [1.0, 1.0, 1.0]))
    assert w.arcs == ((1, 1.0), (2, 1.0), (3, 1.0))
    assert all(type(letter) is int for letter, _ in w.arcs)


def test_word_names_a_malformed_arc():
    for build in (
        lambda: Word(((1, 1.0, 5),)),
        lambda: Word((5,)),
        lambda: Word(None),
        lambda: Word.of([(1,)]),
    ):
        with pytest.raises(InvariantViolation) as exc:
            build()
        assert exc.value.name == "word-arc"


def test_pqr_point_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvariantViolation) as exc:
            PqrPoint(0.5, bad, 0.5)
        assert exc.value.name == "pqr-finite"


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, 10**400])
def test_pqr_point_rejects_mistyped_coordinates(bad):
    for coords in ((bad, 0.5, 0.5), (0.5, 0.5, bad)):
        with pytest.raises(InvariantViolation) as exc:
            PqrPoint(*coords)
        assert exc.value.name == "pqr"


def test_pqr_point_stores_coordinates_as_floats():
    point = PqrPoint(np.float64(0.5), 1, 0.25)
    assert type(point.p) is float and type(point.q) is float
    assert point == PqrPoint(0.5, 1.0, 0.25)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_random_word_rejects_bad_seeds(seed):
    with pytest.raises(InvariantViolation) as exc:
        random_word(4, seed)
    assert exc.value.name == "seed"


def reference_endpoint(w: Word) -> group.GroupElement:
    """The fold of `group.flow_const` from the identity, kept as a reference
    for `endpoint`, which folds the same group law on local floats."""
    g = group.identity()
    for letter, t in w.arcs:
        u = [0.0, 0.0, 0.0]
        u[letter - 1] = 1.0
        g = group.flow_const(g, u, t)
    return g


def test_endpoint_matches_the_flow_const_fold():
    rng = np.random.default_rng(14)
    ws = reference_words(rng) + [synthesize(a, horizon)[0] for a, horizon in all_reference_cases()]
    ws += [random_word(n, n) for n in range(3, 41)]
    ws += [to_section(w) for w in ws if all(T > 0.0 for T in w.letter_totals().values())][:60]
    # split words as the extremals workload splits them, signed zeros and all
    ws += [Word(w.arcs[k:]) for w in ws[:40] for k in range(len(w.arcs))]
    for w in ws:
        got = endpoint(w)
        assert repr(got) == repr(reference_endpoint(w))  # bit for bit, signed zeros included
        assert all(type(v) is float for v in got.x + got.y)
