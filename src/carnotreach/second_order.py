"""Second-order non-optimality test for bang-bang words.

In a step-2 nilpotent algebra the conjugation operators e^{t ad X} act on
first-layer fields as Z -> Z + t [X, Z] exactly (the series truncates),
so the conjugated fields along a word, the quadratic form built from
their brackets, and its restriction to the admissible-variation subspace
are all available in closed form.  A positive eigenvalue of the
restriction certifies that the word is not optimal; otherwise the test
is inconclusive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import AdjointCovector, _columns, synthesize
from .words import InvariantViolation, Word, canonicalize

__all__ = [
    "AlgebraElement",
    "SecondOrderReport",
    "basis_field",
    "bracket",
    "conjugated_fields",
    "ag_test",
]

NULLSPACE_CUTOFF = 1e-10
POSITIVE_EIG_TOL = 1e-10
# largest gap between a word's durations and those its covector synthesizes
CONSISTENCY_TOL = 1e-8
# cap on the arcs of a word that `ag_test` and `conjugated_fields` accept:
# the fields take n^2 / 2 bracket steps and `ag_test` adds several n x n
# float64 arrays, so time and memory grow as n^2 and worse.  A synthesized
# word of 2049 arcs took 9.4 s in `ag_test` at a peak RSS of 184 MB (1003
# arcs: 2.3 s, 71 MB), and `conjugated_fields` alone took 6.9-10.2 s at 2049
# arcs (1025: 2.8 s) on one CPU of a 2-vCPU x86_64 host, so a longer word,
# which `synthesize` allows up to adjoint.MAX_SYNTH_ARCS, is rejected before
# any of that work
MAX_AG_ARCS = 2048


@dataclass(frozen=True)
class AlgebraElement:
    """Lie algebra element: a on the first layer (X_i), b on the second (Y_12, Y_13, Y_23)."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]

    def as_array(self) -> np.ndarray:
        return np.array(self.a + self.b)


def basis_field(letter: int) -> AlgebraElement:
    a = [0.0, 0.0, 0.0]
    a[letter - 1] = 1.0
    return AlgebraElement(tuple(a), (0.0, 0.0, 0.0))


def bracket(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Lie bracket; depends only on the first-layer parts (step 2)."""
    a, c = u.a, v.a
    return AlgebraElement(
        (0.0, 0.0, 0.0),
        (
            a[0] * c[1] - a[1] * c[0],
            a[0] * c[2] - a[2] * c[0],
            a[1] * c[2] - a[2] * c[1],
        ),
    )


def _add_scaled(u: AlgebraElement, t: float, v: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(
        tuple(ui + t * vi for ui, vi in zip(u.a, v.a)),
        tuple(ui + t * vi for ui, vi in zip(u.b, v.b)),
    )


def _require_at_most_max_arcs(n: int) -> None:
    if n > MAX_AG_ARCS:
        raise InvariantViolation("switch-count", f"word has {n} arcs, over {MAX_AG_ARCS}")


def conjugated_fields(w: Word) -> list[AlgebraElement]:
    """Fields Z_i = P_i V_i along a canonical word with arcs V_0 .. V_k.

    P_i conjugates by the flows of the interior arcs 1 .. i-1, and in a
    step-2 algebra each conjugation contributes the single bracket term
    tau_m [V_{m-1}, V_i]; the first and last arc durations never enter.
    A canonical word of more than MAX_AG_ARCS arcs raises "switch-count"
    before any field is built.
    """
    w = canonicalize(w)
    if not w.arcs:
        raise InvariantViolation("empty-word", "cannot conjugate along an empty word")
    _require_at_most_max_arcs(len(w.arcs))
    fields = [basis_field(l) for l, _ in w.arcs]
    durations = [t for _, t in w.arcs]
    out = []
    for i, vi in enumerate(fields):
        z = vi
        for m in range(1, i):  # interior arcs 1 .. i-1 (durations tau_2 .. tau_i)
            z = _add_scaled(z, durations[m], bracket(fields[m], vi))
        out.append(z)
    return out


@dataclass(frozen=True)
class SecondOrderReport:
    """Outcome of the second-order test."""

    W_basis: np.ndarray  # (arcs, dim W), orthonormal columns
    G_restricted: np.ndarray  # (dim W, dim W) symmetric
    verdict: str  # "not-optimal" | "inconclusive"


def _check_consistency(w: Word, a: AdjointCovector) -> None:
    synthesized, _ = synthesize(a, w.total_duration)
    if len(synthesized.arcs) != len(w.arcs):
        raise InvariantViolation(
            "word-covector",
            f"word has {len(w.arcs)} arcs but the covector synthesizes {len(synthesized.arcs)}",
        )
    for (l1, t1), (l2, t2) in zip(w.arcs, synthesized.arcs):
        if l1 != l2 or abs(t1 - t2) > CONSISTENCY_TOL:
            raise InvariantViolation(
                "word-covector",
                f"word arc ({l1}, {t1}) does not match synthesized arc ({l2}, {t2})",
            )


def _letter_table(a: AdjointCovector) -> np.ndarray:
    """Half the pairing <lambda, [X_i, X_j]> of the covector with the
    bracket of letters i and j, as a 3x3 table.

    The flow convention h' = R u fixes R_ij = <lambda, [X_j, X_i]>, so the
    pairing with [X_i, X_j] is R_ji, entry (i, j) of R transposed: row i of
    the table is column i of R.  Adding 0.0 turns a zero pairing into +0.0,
    the zero of a dot product with the bracket's second layer.
    """
    return (np.array(_columns(a)) + 0.0) / 2.0


def ag_test(w: Word, a: AdjointCovector) -> SecondOrderReport:
    """Second-order test of the word against the covector that synthesizes
    it ("word-covector" otherwise: a verdict on another word means nothing).
    A word of fewer than 3 or more than MAX_AG_ARCS arcs raises
    "switch-count" before that check.

    Builds G(alpha) = sum_{i<j} alpha_i alpha_j <R, [Z_i, Z_j]>, restricts
    it to the subspace W cut out by sum alpha_i = 0 and
    sum alpha_i Z_i = 0, and reports "not-optimal" iff the restriction has
    a positive eigenvalue.

    In step 2, [Z_i, Z_j] = [X_{l_i}, X_{l_j}] exactly, where l_i is the
    letter of arc i: conjugation adds only second-layer terms to Z_i, and
    a bracket reads only first layers.  So each entry of G is read from a
    3x3 table indexed by the letters of the pair.
    """
    w = canonicalize(w)
    n = len(w.arcs)
    if n < 3:
        raise InvariantViolation("switch-count", f"need at least 3 arcs (2 switchings), got {n} arcs")
    _require_at_most_max_arcs(n)
    _check_consistency(w, a)

    z = conjugated_fields(w)

    table = _letter_table(a)
    letters = np.array([l - 1 for l, _ in w.arcs])
    i, j = np.triu_indices(n, 1)
    g = np.zeros((n, n))
    # both triangles take the same values, signed zeros included, so that
    # alpha^T g alpha reproduces the double sum
    g[i, j] = g[j, i] = table[letters[i], letters[j]]

    # constraint rows: sum alpha_i = 0 and sum alpha_i Z_i = 0 (6 components)
    rows = np.zeros((7, n))
    rows[0, :] = 1.0
    for i in range(n):
        rows[1:, i] = z[i].as_array()

    _, s, vt = np.linalg.svd(rows)
    cutoff = NULLSPACE_CUTOFF * s[0]
    rank = int(np.sum(s > cutoff))
    basis = vt[rank:].T  # orthonormal columns spanning W

    if basis.shape[1] == 0:
        return SecondOrderReport(basis, np.zeros((0, 0)), "inconclusive")

    restricted = basis.T @ g @ basis
    restricted = (restricted + restricted.T) / 2.0
    eigs = np.linalg.eigvalsh(restricted)
    verdict = "not-optimal" if eigs.max() > POSITIVE_EIG_TOL else "inconclusive"
    return SecondOrderReport(basis, restricted, verdict)
