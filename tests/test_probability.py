import numpy as np
import pytest

from carnotreach import attainability, probability
from carnotreach.probability import (
    MAX_DICE_ATOMS,
    DiscreteDistribution,
    dice_from_json,
    dice_pqr,
    random_dice_check,
    random_dice_triple,
    random_word_check,
)
from carnotreach.words import InvariantViolation


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
    report = random_dice_check(20, seed=0, n_starts=8, tol=1e-7)
    assert report.n_trials == 20
    assert report.n_attained == 20
    assert report.worst_residual <= 1e-7
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "p,q,r,status,residual"
    assert len(lines) == 21
    assert all(line.split(",")[3] == "attained" for line in lines[1:])


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


def test_random_word_check_recovers_every_word():
    report = random_word_check(6, max_arcs=6, seed=2, n_starts=8)
    assert (report.n_trials, report.n_attained) == (6, 6)
    assert report.worst_residual <= 1e-7
    assert len(report.rows) == 6


def test_random_word_check_validates_its_sizes():
    for kwargs, name in (({"n_trials": 0}, "n-trials"), ({"n_trials": 2, "max_arcs": 2}, "max-arcs")):
        with pytest.raises(InvariantViolation) as exc:
            random_word_check(**kwargs)
        assert exc.value.name == name


def test_random_checks_validate_the_seed():
    for check in (random_dice_check, random_word_check):
        for seed in (-1, True, 1.5):
            with pytest.raises(InvariantViolation) as exc:
                check(2, seed=seed)
            assert exc.value.name == "seed"


def test_random_checks_propagate_solver_errors(monkeypatch):
    # a trial is attained or not-found: no error of `fit` becomes an error row
    for error in (np.linalg.LinAlgError, TypeError):

        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(attainability, "fit", broken)
        for check in (random_dice_check, random_word_check):
            with pytest.raises(error):
                check(3, seed=0)
