"""Bang-bang control words and the (p, q, r) section coordinates.

A word is an ordered list of arcs (letter, duration) with letters in
{1, 2, 3}; it encodes a piecewise-constant control taking vertex values
e_1, e_2, e_3.  A *section word* has total duration 1 for each letter;
its endpoint lies in the section x = (1, 1, 1) and is described by the
pairwise precedence coordinates

    p = p12,  q = p23,  r = p31,

where p_ij is the sum of t_l * t_m over arc pairs l < m with letters
(i, j).  The endpoint and the precedence sums are related by
y12 = 2p - 1, y23 = 2q - 1, y13 = 1 - 2r; this module owns that
conversion (the cyclic index r = p31 is the only sign flip).

`endpoint` folds the arcs on Python floats through the group law of
`group`, with the operations of the `group.flow_const` fold, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .group import GroupElement, InvariantViolation, _product, require_int, require_real

__all__ = [
    "Word",
    "PqrPoint",
    "InvariantViolation",
    "canonicalize",
    "concat",
    "endpoint",
    "pqr",
    "pqr_from_endpoint",
    "QUADRIC_PATTERNS",
    "quadric",
    "q_margin",
    "reverse",
    "to_section",
    "random_word",
    "word_to_dict",
    "word_from_dict",
]

SECTION_TOL = 1e-9
# cap on the arcs of a word that `pqr` accepts: its double sum runs in
# Python and is O(n^2).  A section word of 4096 arcs took 0.36-0.51 s
# (3072: 0.19-0.28 s, 6144: 0.88-1.1 s, 12288: 4.5 s) on one CPU of a
# 2-vCPU x86_64 host, so a longer word is rejected before any sum.  The cap
# admits every dice word: 3 * probability.MAX_DICE_ATOMS = 3072 arcs at most
MAX_PQR_ARCS = 4096

LETTERS = (1, 2, 3)

# cyclic pair order matching (p, q, r) = (p12, p23, p31)
PQR_PAIRS = ((1, 2), (2, 3), (3, 1))


def pair_axis(i: int, j: int) -> tuple[int, float]:
    """The axis of {i, j} in (p, q, r), and +1.0 when P(i before j) is that
    coordinate ((i, j) in PQR_PAIRS) or -1.0 when it is its complement."""
    if (i, j) in PQR_PAIRS:
        return PQR_PAIRS.index((i, j)), 1.0
    return PQR_PAIRS.index((j, i)), -1.0


def precedence(x, i: int, j: int):
    """P(i before j) at the section point x = (p, q, r)."""
    axis, sign = pair_axis(i, j)
    return x[axis] if sign > 0 else 1.0 - x[axis]


@dataclass(frozen=True)
class Word:
    """Ordered arcs (letter, duration) of a bang-bang control, as (int, float) tuples."""

    arcs: tuple[tuple[int, float], ...]

    def __post_init__(self):
        # an int letter and a float duration skip the require_* calls, which
        # would cost the extremals and atlas benchmark workloads 2-4%
        try:
            arcs = tuple(self.arcs)
        except TypeError:
            raise InvariantViolation("word-arc", f"arcs must be (letter, duration) pairs, got {self.arcs!r}") from None
        checked = []
        for arc in arcs:
            try:
                letter, dur = arc
            except (TypeError, ValueError):
                raise InvariantViolation("word-arc", f"an arc must be a (letter, duration) pair, got {arc!r}") from None
            if type(letter) is not int:
                letter = require_int("word-letter", letter, 1)
            if not 1 <= letter <= 3:
                raise InvariantViolation("word-letter", f"letter must be 1, 2 or 3, got {letter}")
            if type(dur) is not float:
                dur = require_real("word-duration", dur)
            if not 0.0 <= dur < math.inf:
                raise InvariantViolation("word-duration", f"durations must be finite and nonnegative, got {dur}")
            checked.append((letter, dur))
        object.__setattr__(self, "arcs", tuple(checked))

    @staticmethod
    def of(arcs) -> "Word":
        return Word(arcs)

    @property
    def total_duration(self) -> float:
        return sum(t for _, t in self.arcs)

    def letter_totals(self) -> dict[int, float]:
        totals = {1: 0.0, 2: 0.0, 3: 0.0}
        for letter, t in self.arcs:
            totals[letter] += t
        return totals


@dataclass(frozen=True)
class PqrPoint:
    """A point (p, q, r) = (p12, p23, p31) of the unit cube, in Python floats."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        tol = 1e-9
        for name, v in (("p", self.p), ("q", self.q), ("r", self.r)):
            if type(v) is not float:
                v = require_real("pqr", v)
                object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise InvariantViolation("pqr-finite", f"{name} = {v} is not finite")
            if v < -tol or v > 1.0 + tol:
                raise InvariantViolation("pqr-range", f"{name} = {v} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.q, self.r])


def canonicalize(w: Word) -> Word:
    """Drop zero-duration arcs and merge adjacent arcs with equal letters."""
    arcs: list[tuple[int, float]] = []
    for letter, t in w.arcs:
        if t == 0.0:
            continue
        if arcs and arcs[-1][0] == letter:
            arcs[-1] = (letter, arcs[-1][1] + t)
        else:
            arcs.append((letter, t))
    return Word(tuple(arcs))


def concat(w1: Word, w2: Word) -> Word:
    return Word(w1.arcs + w2.arcs)


def endpoint(w: Word) -> GroupElement:
    """Left-to-right fold of the constant-control flow from the identity.

    Arc (l, t) right-translates by (t e_l, 0), as `group.flow_const` does,
    through the same tuple-level group law and on Python floats: the other
    entries of t e_l are t * 0.0 and the second layer is 0.0, so even the
    signed zeros are those of the flow_const fold.
    """
    x = y = zero = (0.0, 0.0, 0.0)
    for letter, t in w.arcs:
        z = t * 0.0
        step = (t, z, z) if letter == 1 else (z, t, z) if letter == 2 else (z, z, t)
        x, y = _product(x, y, step, zero)
    return GroupElement(x, y)


def _require_section(w: Word) -> None:
    totals = w.letter_totals()
    bad = {i: T for i, T in totals.items() if abs(T - 1.0) > SECTION_TOL}
    if bad:
        raise InvariantViolation(
            "section-word",
            f"letter totals must all be 1, offending totals: {bad}",
        )


def pqr(w: Word) -> PqrPoint:
    """Pairwise precedence coordinates of a section word, by the double sum.

    Computed directly from the arc list, independently of `endpoint`; the
    two routes are cross-checked in tests.  A word of more than
    MAX_PQR_ARCS arcs raises "pqr-arcs" before its letter totals are read.
    """
    if len(w.arcs) > MAX_PQR_ARCS:
        raise InvariantViolation("pqr-arcs", f"word has {len(w.arcs)} arcs, over {MAX_PQR_ARCS}")
    _require_section(w)
    # letter i starts exactly one pair of PQR_PAIRS, (i, i % 3 + 1), on axis i - 1
    sums = [0.0, 0.0, 0.0]
    arcs = w.arcs
    for l, (li, ti) in enumerate(arcs):
        successor = li % 3 + 1
        for mj, tm in arcs[l + 1:]:
            if mj == successor:
                sums[li - 1] += ti * tm
    return PqrPoint(*sums)


def pqr_from_endpoint(g: GroupElement) -> PqrPoint:
    """Convert a section endpoint (x = (1,1,1)) to (p, q, r)."""
    if any(abs(xi - 1.0) > SECTION_TOL for xi in g.x):
        raise InvariantViolation("section-endpoint", f"endpoint x must be (1,1,1), got {g.x}")
    y12, y13, y23 = g.y
    return PqrPoint((1.0 + y12) / 2.0, (1.0 + y23) / 2.0, (1.0 - y13) / 2.0)


# the patterns i j k i j of the six quadric patches: the cyclic patterns of
# PQR_PAIRS, whose quadrics E are p + qr - 1 and its cyclic images, then their
# reversals, whose quadrics O are E at 1 - x
_CYCLIC_QUADRICS = tuple((i, j, 6 - i - j, i, j) for i, j in PQR_PAIRS)
QUADRIC_PATTERNS = _CYCLIC_QUADRICS + tuple(p[::-1] for p in _CYCLIC_QUADRICS)


def quadric(pattern, x) -> tuple[float, tuple[float, float, float]]:
    """Value and gradient at x = (p, q, r) of the quadric of the pattern
    (i, j, k, i, j): P(i before j) + P(j before k) P(k before i) - 1, in
    Python floats."""
    i, j, k = pattern[:3]
    (a_ij, s_ij), (a_jk, s_jk), (a_ki, s_ki) = pair_axis(i, j), pair_axis(j, k), pair_axis(k, i)
    equation = precedence(x, i, j) + precedence(x, j, k) * precedence(x, k, i) - 1.0
    g = [0.0, 0.0, 0.0]
    g[a_ij] = s_ij
    g[a_jk] = s_jk * precedence(x, k, i)
    g[a_ki] = s_ki * precedence(x, j, k)
    return float(equation), tuple(map(float, g))


def q_margin(x: PqrPoint) -> float:
    """Conjecture Q's margin max(min E, min O) at x.

    E and O are the `quadric`s of the first three and the last three
    QUADRIC_PATTERNS, the equations of the even and odd atlas patches.  Q
    says that x is attainable iff the margin is <= 0; a positive margin at
    an attained point refutes it.
    """
    point = (x.p, x.q, x.r)
    values = [quadric(pattern, point)[0] for pattern in QUADRIC_PATTERNS]
    return max(min(values[:3]), min(values[3:]))


def reverse(w: Word) -> Word:
    """Arcs in reverse order; every ordered pair flips, so pqr complements."""
    return Word(tuple(reversed(w.arcs)))


def to_section(w: Word) -> Word:
    """Rescale each letter's durations so all letter totals equal 1.

    The endpoint transforms by the dilation with weights (1/T_1, 1/T_2, 1/T_3).
    """
    totals = w.letter_totals()
    absent = [i for i, T in totals.items() if T <= 0.0]
    if absent:
        raise InvariantViolation(
            "letter-absent",
            f"letters {absent} have zero total duration; the word cannot be normalized "
            "to the section (its endpoint lies on a two-letter Heisenberg stratum)",
        )
    return Word(tuple((l, t / totals[l]) for l, t in w.arcs))


def random_pattern(n_arcs: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform random no-adjacent-repeat letter sequence containing all letters."""
    while True:
        pattern = [int(rng.integers(1, 4))]
        for _ in range(n_arcs - 1):
            choices = [l for l in LETTERS if l != pattern[-1]]
            pattern.append(choices[int(rng.integers(0, 2))])
        if set(pattern) == set(LETTERS):
            return tuple(pattern)


def random_word(n_arcs: int, seed: int) -> Word:
    """Random canonical section word with the given number of arcs.

    Per-letter durations are drawn from a flat Dirichlet over that letter's
    arcs, so each letter total is exactly 1.  Deterministic in the seed.
    """
    require_int("n-arcs", n_arcs, 3)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    pattern = random_pattern(n_arcs, rng)
    durations = np.empty(n_arcs)
    for letter in LETTERS:
        idx = [k for k, l in enumerate(pattern) if l == letter]
        durations[idx] = rng.dirichlet(np.ones(len(idx)))
    return Word.of(zip(pattern, durations))


def word_to_dict(w: Word) -> dict:
    return {
        "letters": [l for l, _ in w.arcs],
        "durations": [t for _, t in w.arcs],
    }


def word_from_dict(d: dict) -> Word:
    """Read the word JSON form; non-canonical input is canonicalized."""
    try:
        letters = d["letters"]
        durations = d["durations"]
    except (KeyError, TypeError) as exc:
        raise InvariantViolation("word-json", f"word JSON needs 'letters' and 'durations': {exc}")
    if not (isinstance(letters, list) and isinstance(durations, list)):
        raise InvariantViolation("word-json", "'letters' and 'durations' must be lists")
    if len(letters) != len(durations):
        raise InvariantViolation(
            "word-json",
            f"letters ({len(letters)}) and durations ({len(durations)}) differ in length",
        )
    return canonicalize(Word.of(zip(letters, durations)))
