import numpy as np
import pytest

from carnotreach import probability
from carnotreach.probability import (
    MAX_DICE_ATOMS,
    MAX_TRIALS,
    DiscreteDistribution,
    checks_csv,
    dice_from_json,
    dice_pqr,
    dice_word,
    random_dice_check,
    random_dice_triple,
    random_word_check,
)
from carnotreach.words import PQR_PAIRS, InvariantViolation, PqrPoint, Word, pqr, q_margin, random_word


def reference_dice_pqr(d1, d2, d3) -> PqrPoint:
    """The pairwise double sum that `dice_pqr` replaced: for each cyclic pair
    (i, j), die i's atoms outside and die j's larger atoms inside."""
    dice = (d1, d2, d3)
    return PqrPoint(
        *(
            sum(m1 * m2 for v1, m1 in dice[i - 1].atoms for v2, m2 in dice[j - 1].atoms if v1 < v2)
            for i, j in PQR_PAIRS
        )
    )


def word_dice(w: Word) -> tuple[DiscreteDistribution, DiscreteDistribution, DiscreteDistribution]:
    """The dice of a section word: die l has an atom at the index of each
    arc of letter l, with the arc's duration as its mass."""
    return tuple(
        DiscreteDistribution.of([(float(k), t) for k, (l, t) in enumerate(w.arcs) if l == letter])
        for letter in (1, 2, 3)
    )


def test_distribution_validation():
    with pytest.raises(InvariantViolation):
        DiscreteDistribution.of([])
    with pytest.raises(InvariantViolation):
        DiscreteDistribution.of([(0.0, 0.5), (1.0, 0.6)])
    with pytest.raises(InvariantViolation):
        DiscreteDistribution.of([(0.0, 0.5), (1.0, -0.5), (2.0, 1.0)])
    with pytest.raises(InvariantViolation):
        DiscreteDistribution.of([(1.0, 0.5), (0.0, 0.5)])
    assert DiscreteDistribution.constant(3.0).atoms == ((3.0, 1.0),)
    for atoms in ([(np.nan, 1.0)], [(np.inf, 1.0)], [(0.0, np.nan)], [(0.0, 0.5), (1.0, np.inf)]):
        with pytest.raises(InvariantViolation) as exc:
            DiscreteDistribution.of(atoms)
        assert exc.value.name == "dice-finite"


@pytest.mark.parametrize(
    "atoms",
    [[("1", 1.0)], [(1.0, True)], [(False, 1.0)], [(1.0, 1.0, 1.0)], [(1.0,)], [1.0], 5, [(10**400, 1.0)]],
)
def test_distribution_names_malformed_atoms(atoms):
    for make in (DiscreteDistribution, DiscreteDistribution.of):
        with pytest.raises(InvariantViolation) as exc:
            make(atoms)
        assert exc.value.name == "dice-json"


def test_distribution_accepts_integer_and_numpy_atoms():
    d = DiscreteDistribution.of([(np.int64(1), np.float32(0.5)), (2, 0.5)])
    assert d.atoms == ((1.0, 0.5), (2.0, 0.5))


def test_dice_from_json():
    dice = dice_from_json([[[1, 1]], [[2, 0.5], [4, 0.5]], [[3, 1]]])
    assert [d.atoms for d in dice] == [((1.0, 1.0),), ((2.0, 0.5), (4.0, 0.5)), ((3.0, 1.0),)]
    for payload in ([[[1, 1]], [[2, 1]]], [[[1, 1]]] * 4, {"a": 1}, "abc", None):
        with pytest.raises(InvariantViolation) as exc:
            dice_from_json(payload)
        assert exc.value.name == "dice-json"


def test_dice_from_json_bounds_the_atoms_before_building_a_die(monkeypatch):
    die = [[float(k), 1.0 / (MAX_DICE_ATOMS + 1)] for k in range(MAX_DICE_ATOMS + 1)]

    def refuse(self):
        raise AssertionError("a distribution was built before the atom count was checked")

    monkeypatch.setattr(DiscreteDistribution, "__post_init__", refuse)
    for payload in ([[[0.5, 1.0]], [[0.25, 1.0]], die], [die, 5, "x"]):
        with pytest.raises(InvariantViolation) as exc:
            dice_from_json(payload)
        assert exc.value.name == "atoms-max"
    monkeypatch.undo()
    at_cap = [[float(k), 1.0 / MAX_DICE_ATOMS] for k in range(MAX_DICE_ATOMS)]
    assert len(dice_from_json([at_cap, [[0.5, 1.0]], [[1.5, 1.0]]])[0].atoms) == MAX_DICE_ATOMS


def test_dice_pqr_constants():
    d1 = DiscreteDistribution.constant(1.0)
    d2 = DiscreteDistribution.constant(2.0)
    d3 = DiscreteDistribution.constant(3.0)
    pt = dice_pqr(d1, d2, d3)
    assert (pt.p, pt.q, pt.r) == (1.0, 1.0, 0.0)


def test_dice_pqr_intransitive_triple():
    # classic intransitive dice: each beats the next with probability 5/9
    a = DiscreteDistribution.of([(2, 1 / 3), (4, 1 / 3), (9, 1 / 3)])
    b = DiscreteDistribution.of([(1, 1 / 3), (6, 1 / 3), (8, 1 / 3)])
    c = DiscreteDistribution.of([(3, 1 / 3), (5, 1 / 3), (7, 1 / 3)])
    pt = dice_pqr(b, a, c)
    assert abs(pt.p - 5 / 9) <= 1e-15
    assert abs(pt.q - 5 / 9) <= 1e-15
    assert abs(pt.r - 5 / 9) <= 1e-15


def test_dice_pqr_rejects_ties():
    d1 = DiscreteDistribution.of([(0.0, 0.5), (1.0, 0.5)])
    d2 = DiscreteDistribution.of([(1.0, 0.5), (2.0, 0.5)])
    d3 = DiscreteDistribution.constant(5.0)
    with pytest.raises(InvariantViolation) as exc:
        dice_pqr(d1, d2, d3)
    assert exc.value.name == "tie-mass"
    assert "(1, 2)" in str(exc.value)


def test_dice_pqr_rejects_any_shared_value():
    # a tie mass of 1e-14 has no order either; it names its cyclic pair
    small = 1e-7
    d1 = DiscreteDistribution.of([(0.0, small), (1.0, 1.0 - small)])
    d3 = DiscreteDistribution.of([(0.0, small), (2.0, 1.0 - small)])
    for dice, pair in (((d1, DiscreteDistribution.constant(5.0), d3), "(3, 1)"), ((d1, d3, d1), "(1, 2)")):
        with pytest.raises(InvariantViolation) as exc:
            dice_pqr(*dice)
        assert exc.value.name == "tie-mass"
        assert pair in str(exc.value)


@pytest.mark.parametrize("atoms_max, n", [(1, 3000), (4, 3000), (16, 3000), (64, 300)])
def test_dice_pqr_is_the_pairwise_double_sum(atoms_max, n):
    rng = np.random.default_rng(atoms_max)
    for _ in range(n):
        dice = random_dice_triple(atoms_max, rng)
        assert repr(dice_pqr(*dice)) == repr(reference_dice_pqr(*dice))


def test_section_words_are_dice():
    rng = np.random.default_rng(31)
    for _ in range(3000):
        w = random_word(int(rng.integers(3, 13)), int(rng.integers(2**31)))
        dice = word_dice(w)
        assert dice_word(*dice) == w
        assert repr(dice_pqr(*dice)) == repr(pqr(w))


def test_pair_complement_law():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d1, d2, d3 = random_dice_triple(4, rng)
        pt = dice_pqr(d1, d2, d3)
        rev = dice_pqr(d3, d2, d1)
        # reversing the triple order complements each pair probability
        assert abs(pt.p + rev.q - 1.0) <= 1e-12
        assert abs(pt.q + rev.p - 1.0) <= 1e-12
        assert abs(pt.r + rev.r - 1.0) <= 1e-12


def test_random_dice_triple_disjoint_supports():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dice = random_dice_triple(5, rng)
        values = [v for d in dice for v, _ in d.atoms]
        assert len(values) == len(set(values))


def test_random_dice_check_all_attained():
    # each dice point is attained by its dice word, and Q admits it
    report = random_dice_check(20, seed=0)
    rng = np.random.default_rng(0)
    words = [dice_word(*random_dice_triple(4, rng)) for _ in range(20)]
    assert [row[:3] for row in report.rows] == [(x.p, x.q, x.r) for x in map(pqr, words)]
    assert [row[3] for row in report.rows] == [q_margin(pqr(w)) for w in words]
    assert report.kind == "dice"
    assert report.max_q_margin == max(row[3] for row in report.rows) <= 1e-12
    lines = checks_csv(report).strip().splitlines()
    assert lines[0] == "kind,p,q,r,q_margin"
    assert len(lines) == 21
    assert all(line.split(",")[0] == "dice" for line in lines[1:])


def test_random_dice_check_validates_n():
    with pytest.raises(InvariantViolation):
        random_dice_check(0)
    with pytest.raises(InvariantViolation) as exc:
        random_dice_check(2.5)
    assert exc.value.name == "n-trials"


def test_random_dice_check_validates_atoms_max():
    for atoms_max in (0, True):
        with pytest.raises(InvariantViolation) as exc:
            random_dice_check(2, atoms_max=atoms_max)
        assert exc.value.name == "atoms-max"


def test_random_dice_check_bounds_atoms_max_before_any_draw(monkeypatch):
    class Drawn(Exception):
        pass

    def refuse(atoms_max, rng):
        raise Drawn(atoms_max)

    monkeypatch.setattr(probability, "random_dice_triple", refuse)
    with pytest.raises(InvariantViolation) as exc:
        random_dice_check(2, atoms_max=MAX_DICE_ATOMS + 1)
    assert exc.value.name == "atoms-max"
    with pytest.raises(Drawn):
        random_dice_check(2, atoms_max=MAX_DICE_ATOMS)


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} called before atoms_max was checked")


def test_both_dice_samplers_check_atoms_max_before_any_draw(monkeypatch):
    bad = (0, -1, True, 2.5, "3", None, MAX_DICE_ATOMS + 1, MAX_DICE_ATOMS + 1000)
    for atoms_max in bad:
        with pytest.raises(InvariantViolation) as exc:
            random_dice_triple(atoms_max, _NoDraws())
        assert exc.value.name == "atoms-max"
    # the cap itself and a numpy integer pass
    assert len(random_dice_triple(np.int64(MAX_DICE_ATOMS), np.random.default_rng(0))) == 3

    def refuse(atoms_max, rng):
        raise AssertionError("dice drawn before atoms_max was checked")

    monkeypatch.setattr(probability, "random_dice_triple", refuse)
    for atoms_max in bad:
        with pytest.raises(InvariantViolation) as exc:
            random_dice_check(2, atoms_max=atoms_max)
        assert exc.value.name == "atoms-max"


def test_random_word_check_admits_every_word():
    report = random_word_check(50, seed=2)
    assert report.kind == "word" and len(report.rows) == 50
    assert report.max_q_margin <= 1e-12
    rng = np.random.default_rng(2)
    for p, q, r, margin in report.rows:
        w = random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        assert 3 <= len(w.arcs) <= 8
        assert (p, q, r, margin) == (pqr(w).p, pqr(w).q, pqr(w).r, q_margin(pqr(w)))


def test_random_word_check_validates_its_sizes():
    for n_trials in (0, -1, 2.5, True):
        with pytest.raises(InvariantViolation) as exc:
            random_word_check(n_trials)
        assert exc.value.name == "n-trials"


def test_random_checks_bound_n_trials_before_any_draw(monkeypatch):
    class Drawn(Exception):
        pass

    def refuse(*args):
        raise Drawn

    monkeypatch.setattr(probability, "random_dice_triple", refuse)
    monkeypatch.setattr(probability, "random_word", refuse)
    for check in (random_dice_check, random_word_check):
        with pytest.raises(InvariantViolation, match=rf"^n_trials {MAX_TRIALS + 1} is over {MAX_TRIALS}$") as exc:
            check(MAX_TRIALS + 1)
        assert exc.value.name == "n-trials"
        with pytest.raises(Drawn):
            check(MAX_TRIALS)


def test_random_checks_validate_the_seed():
    for check in (random_dice_check, random_word_check):
        for seed in (-1, True, 1.5):
            with pytest.raises(InvariantViolation) as exc:
                check(2, seed=seed)
            assert exc.value.name == "seed"
