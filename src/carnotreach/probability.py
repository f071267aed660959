"""Precedence probabilities of independent discrete random variables.

Three dice with no shared value are a section word: sorted by value, their
atoms are the arcs (die index, mass) of `dice_word`, and the point
(P(x1 < x2), P(x2 < x3), P(x3 < x1)) is `pqr` of that word.  The Monte
Carlo checks report the Conjecture-Q margin (`words.q_margin`) of random
dice points and of the points of random section words; every such point
is attained by its own word, so no margin should be positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import PQR_PAIRS, InvariantViolation, PqrPoint, Word, pqr, q_margin, random_word, require_int, require_real

__all__ = [
    "DiscreteDistribution",
    "CheckReport",
    "checks_csv",
    "dice_from_json",
    "dice_pqr",
    "dice_word",
    "random_dice_triple",
    "random_dice_check",
    "random_word_check",
]

MASS_TOL = 1e-12
# cap on atoms_max and on the atoms of a die read from JSON: random_dice_triple
# draws up to 3 * atoms_max values, and dice_pqr is `pqr` of the merged word,
# a double sum over all the atoms, O(atoms^2).  Three dice of 1024 atoms take
# dice_pqr 0.18-0.24 s (4096 atoms: 3.6-4.1 s), about twice the pairwise sums
# it replaced, on one CPU of a 2-vCPU x86_64 host, so a larger atoms_max or
# die is rejected before anything is drawn or built
MAX_DICE_ATOMS = 1024
# cap on the trials of each Monte Carlo check, which keeps one row per trial,
# and `checks_csv` one line: `mc-verify --n 262144 --out-csv` took 67 s and
# raised peak RSS from 36 to 239 MB on one CPU of a 2-vCPU x86_64 host, so a
# larger n is rejected before anything is drawn
MAX_TRIALS = 2**18


def _pairs(atoms) -> list[tuple]:
    """The (value, mass) pairs of `atoms`, or `dice-json` if they are not pairs."""
    try:
        return [(v, m) for v, m in atoms]
    except (TypeError, ValueError) as exc:
        raise InvariantViolation("dice-json", f"expected [value, mass] pairs: {exc}") from None


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution: atoms (value, mass) of floats, values increasing."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = _pairs(self.atoms)
        if not atoms:
            raise InvariantViolation("atoms", "distribution needs at least one atom")
        # a float skips require_real, which names every other mistyped entry
        values = [v if type(v) is float else require_real("dice-json", v) for v, _ in atoms]
        masses = [m if type(m) is float else require_real("dice-json", m) for _, m in atoms]
        if not all(math.isfinite(x) for x in values + masses):
            raise InvariantViolation("dice-finite", f"values and masses must be finite, got {self.atoms}")
        if any(m <= 0 for m in masses):
            raise InvariantViolation("mass-positive", f"masses must be positive, got {masses}")
        if abs(sum(masses) - 1.0) > MASS_TOL:
            raise InvariantViolation("mass-sum", f"masses must sum to 1, got {sum(masses)}")
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise InvariantViolation("values-increasing", f"values must be strictly increasing, got {values}")
        object.__setattr__(self, "atoms", tuple(zip(values, masses)))

    @staticmethod
    def of(pairs) -> "DiscreteDistribution":
        """Atoms from (value, mass) pairs of reals; anything else is `dice-json`."""
        return DiscreteDistribution(pairs)


def dice_from_json(payload) -> tuple[DiscreteDistribution, DiscreteDistribution, DiscreteDistribution]:
    """The three distributions of the JSON form [[[value, mass], ...] x 3];
    a die of more than MAX_DICE_ATOMS atoms raises "atoms-max" before any is built."""
    if not (isinstance(payload, list) and len(payload) == 3):
        raise InvariantViolation("dice-json", "expected a list of three lists of [value, mass] pairs")
    for die in payload:
        if isinstance(die, list) and len(die) > MAX_DICE_ATOMS:
            raise InvariantViolation("atoms-max", f"a die of {len(die)} atoms is over {MAX_DICE_ATOMS}")
    return tuple(DiscreteDistribution.of(d) for d in payload)


def dice_word(d1: DiscreteDistribution, d2: DiscreteDistribution, d3: DiscreteDistribution) -> Word:
    """The section word of three dice: their atoms sorted by value, each read
    as an arc (die index, mass).

    An atom of die i below an atom of die j is an arc of letter i before an
    arc of letter j, so `pqr` of the word is the dice's precedence triple.
    A value shared by two dice has no order and raises "tie-mass".
    """
    atoms = sorted((v, i, m) for i, d in enumerate((d1, d2, d3), 1) for v, m in d.atoms)
    for (v, i, m), (u, j, n) in zip(atoms, atoms[1:]):
        if v == u:
            pair = (i, j) if (i, j) in PQR_PAIRS else (j, i)
            raise InvariantViolation("tie-mass", f"dice pair {pair} has tie mass {m * n} at shared value {v}")
    return Word(tuple((i, m) for _, i, m in atoms))


def dice_pqr(d1: DiscreteDistribution, d2: DiscreteDistribution, d3: DiscreteDistribution) -> PqrPoint:
    """Exact (P(x1 < x2), P(x2 < x3), P(x3 < x1)), the `pqr` of `dice_word`.

    No two dice may share a value, so that the two orderings of a pair have
    complementary probabilities.
    """
    return pqr(dice_word(d1, d2, d3))


def _require_trials(n_trials) -> None:
    if require_int("n-trials", n_trials, 1) > MAX_TRIALS:
        raise InvariantViolation("n-trials", f"n_trials {n_trials} is over {MAX_TRIALS}")


def _require_atoms_max(atoms_max) -> None:
    if require_int("atoms-max", atoms_max, 1) > MAX_DICE_ATOMS:
        raise InvariantViolation("atoms-max", f"atoms_max {atoms_max} is over {MAX_DICE_ATOMS}")


def random_dice_triple(
    atoms_max: int,
    rng: np.random.Generator,
) -> tuple[DiscreteDistribution, DiscreteDistribution, DiscreteDistribution]:
    """Independent triple with disjoint supports (no ties by construction);
    an atoms_max not in 1..MAX_DICE_ATOMS raises "atoms-max" before any draw."""
    _require_atoms_max(atoms_max)
    counts = rng.integers(1, atoms_max + 1, size=3)
    values = np.sort(rng.uniform(0.0, 1.0, size=int(counts.sum())))
    owner = rng.permutation(np.repeat([0, 1, 2], counts))
    out = []
    for i in range(3):
        vals = values[owner == i]
        masses = rng.dirichlet(np.ones(len(vals)))
        out.append(DiscreteDistribution.of(zip(vals, masses)))
    return tuple(out)


@dataclass
class CheckReport:
    """The Conjecture-Q margin of sampled points of one kind.

    Each point is attained by its own section word (the dice's `dice_word`,
    or the hidden word), so a positive margin would refute the half of
    Conjecture Q that says every attainable point is admitted.
    """

    kind: str
    rows: list[tuple[float, float, float, float]]  # p, q, r, q_margin

    @property
    def max_q_margin(self) -> float:
        return max(margin for *_, margin in self.rows)


def _check(kind: str, points) -> CheckReport:
    return CheckReport(kind, [(x.p, x.q, x.r, q_margin(x)) for x in points])


def checks_csv(*reports: CheckReport) -> str:
    """One CSV row per trial of `reports`, in order: kind,p,q,r,q_margin."""
    rows = (f"{report.kind},{p!r},{q!r},{r!r},{margin!r}\n" for report in reports for p, q, r, margin in report.rows)
    return "kind,p,q,r,q_margin\n" + "".join(rows)


def random_dice_check(n_trials: int, atoms_max: int = 4, seed: int = 0) -> CheckReport:
    """The Q margins of the (p, q, r) of sampled dice triples.

    An n_trials not in 1..MAX_TRIALS raises "n-trials" and a bad atoms_max
    "atoms-max", as in `random_dice_triple`, before any draw."""
    _require_trials(n_trials)
    _require_atoms_max(atoms_max)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return _check("dice", (dice_pqr(*random_dice_triple(atoms_max, rng)) for _ in range(n_trials)))


def random_word_check(n_trials: int, seed: int = 0) -> CheckReport:
    """The Q margins of the (p, q, r) of random section words of 3 to 8 arcs;
    an n_trials not in 1..MAX_TRIALS raises "n-trials" before any draw."""
    _require_trials(n_trials)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return _check(
        "word", (pqr(random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))) for _ in range(n_trials))
    )
