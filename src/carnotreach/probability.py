"""Precedence probabilities of independent discrete random variables.

For independent dice with pairwise tie-free supports, the point
(P(x1 < x2), P(x2 < x3), P(x3 < x1)) is computed by exact double sums,
and the Monte Carlo checks confront such points, and the points of random
section words, with the witness-word solver: every one should be reported
attained.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import attainability
from .words import InvariantViolation, PqrPoint, pqr, random_word, require_int, require_real

__all__ = [
    "DiscreteDistribution",
    "CheckReport",
    "dice_from_json",
    "dice_pqr",
    "random_dice_triple",
    "random_dice_check",
    "random_word_check",
]

TIE_TOL = 1e-12
# cap on atoms_max: random_dice_triple draws up to 3 * atoms_max values, and
# dice_pqr is a double sum, O(atoms^2) per pair.  Three dice of 1024 atoms
# take dice_pqr about 0.09 s (4096 atoms: 1.4 s) on a 2-vCPU x86_64 host, so
# a larger --atoms-max is rejected before it draws without limit
MAX_DICE_ATOMS = 1024


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
        if abs(sum(masses) - 1.0) > TIE_TOL:
            raise InvariantViolation("mass-sum", f"masses must sum to 1, got {sum(masses)}")
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise InvariantViolation("values-increasing", f"values must be strictly increasing, got {values}")
        object.__setattr__(self, "atoms", tuple(zip(values, masses)))

    @staticmethod
    def of(pairs) -> "DiscreteDistribution":
        """Atoms from (value, mass) pairs of reals; anything else is `dice-json`."""
        return DiscreteDistribution(pairs)

    @staticmethod
    def constant(value: float) -> "DiscreteDistribution":
        return DiscreteDistribution(((value, 1.0),))


def dice_from_json(payload) -> tuple[DiscreteDistribution, DiscreteDistribution, DiscreteDistribution]:
    """The three distributions of the JSON form [[[value, mass], ...] x 3]."""
    if not (isinstance(payload, list) and len(payload) == 3):
        raise InvariantViolation("dice-json", "expected a list of three lists of [value, mass] pairs")
    return tuple(DiscreteDistribution.of(d) for d in payload)


def _precedence(d1: DiscreteDistribution, d2: DiscreteDistribution) -> float:
    return sum(m1 * m2 for v1, m1 in d1.atoms for v2, m2 in d2.atoms if v1 < v2)


def _tie_mass(d1: DiscreteDistribution, d2: DiscreteDistribution) -> tuple[float, list[float]]:
    m2 = dict(d2.atoms)
    shared = [(v, m * m2[v]) for v, m in d1.atoms if v in m2]
    return sum(m for _, m in shared), [v for v, _ in shared]


def dice_pqr(
    d1: DiscreteDistribution,
    d2: DiscreteDistribution,
    d3: DiscreteDistribution,
) -> PqrPoint:
    """Exact (P(x1 < x2), P(x2 < x3), P(x3 < x1)).

    Each cyclic pair must be tie-free, so that the two orderings of a pair
    have complementary probabilities.
    """
    dice = (d1, d2, d3)
    for i, j in ((1, 2), (2, 3), (3, 1)):
        mass, values = _tie_mass(dice[i - 1], dice[j - 1])
        if mass > TIE_TOL:
            raise InvariantViolation(
                "tie-mass",
                f"dice pair ({i}, {j}) has tie mass {mass} at shared values {values}",
            )
    return PqrPoint(_precedence(d1, d2), _precedence(d2, d3), _precedence(d3, d1))


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
    """Solver verdicts on sampled points, each of which should be attained."""

    n_trials: int
    n_attained: int
    worst_residual: float
    rows: list[tuple[float, float, float, str, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("p,q,r,status,residual\n")
        for p, q, r, status, res in self.rows:
            buf.write(f"{p!r},{q!r},{r!r},{status},{res!r}\n")
        return buf.getvalue()


def _check(n_trials: int, trials, fit_kwargs: dict) -> CheckReport:
    """Run the solver on each (point, fit seed) of `trials` and tally it."""
    report = CheckReport(n_trials, 0, 0.0)
    for point, seed in trials:
        result = attainability.fit(point, seed=seed, **fit_kwargs)
        if result.status == "attained":
            report.n_attained += 1
            report.worst_residual = max(report.worst_residual, result.residual)
        report.rows.append((point.p, point.q, point.r, result.status, result.residual))
    return report


def random_dice_check(
    n_trials: int,
    atoms_max: int = 4,
    seed: int = 0,
    **fit_kwargs,
) -> CheckReport:
    """Sample dice triples, compute their (p, q, r), and run the solver on
    each with its default seed.

    A bad atoms_max raises "atoms-max", as in `random_dice_triple`, before any draw."""
    require_int("n-trials", n_trials, 1)
    _require_atoms_max(atoms_max)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    trials = ((dice_pqr(*random_dice_triple(atoms_max, rng)), 0) for _ in range(n_trials))
    return _check(n_trials, trials, fit_kwargs)


def random_word_check(
    n_trials: int,
    max_arcs: int = attainability.DEFAULT_MAX_ARCS,
    seed: int = 0,
    **fit_kwargs,
) -> CheckReport:
    """Hide random section words of 3 to max_arcs arcs and run the solver,
    with a drawn seed, on the (p, q, r) of each."""
    require_int("n-trials", n_trials, 1)
    require_int("max-arcs", max_arcs, 3)
    require_int("seed", seed, 0)
    rng = np.random.default_rng(seed)

    def trials():
        for _ in range(n_trials):
            w = random_word(int(rng.integers(3, max_arcs + 1)), int(rng.integers(2**31)))
            yield pqr(w), int(rng.integers(2**31))

    return _check(n_trials, trials(), dict(fit_kwargs, max_arcs=max_arcs))
