"""Attainability of a target (p, q, r): a proven screen, an exact witness,
then a witness-word search.

`fit` answers in three steps, and the first that decides returns.

1. Screen.  Two proven bounds hold on the attainable set: the cyclic
   identity 1 <= p + q + r <= 2 (exactly one or two of the events
   x1 < x2, x2 < x3, x3 < x1 hold for independent variables) and the
   golden bound min(p, q, r) <= (sqrt 5 - 1)/2 of Steinhaus-Trybula and
   Usiskin, with max(p, q, r) >= (3 - sqrt 5)/2 by reversal.  A target
   farther than tol from every point the bounds allow is not-found at
   once, with a certificate naming the bound (`exclusion_bound`).
2. Closed form.  With a pattern cap of at least 6 arcs, `closed_form_word`
   inverts one six-arc word, or one of its images under the 12 symmetries
   of the problem, in Python floats.  A word whose point lies within tol
   of the target is the witness; no search runs.
3. Sweep.  The solver enumerates canonical switching patterns (no
   adjacent repeats, all three letters present) up to the cap, by length
   and then in lexicographic order, an order that is part of the sweep's
   byte contract.  For each pattern it minimizes the squared distance of
   the precedence coordinates to the target over the per-letter duration
   simplices.  The objective is a fixed quadratic form in the durations,
   so residuals and Jacobians are exact; the optimizer is a projected,
   damped Gauss-Newton run from multiple deterministic starts, batched
   over patterns with numpy.

The Jacobian of the three coordinates has three rows, so each damped
step solves a 3x3 system in closed form (`_damped_step`) rather than the
n x n normal equations.

Each batch is one dense loop over all its starts.  Two maps per pattern,
built once, turn the quadratic form into matrix products, so the residuals
and the projected Jacobians of every start take one batched product each.
The size of the largest batch is bounded before anything is allocated
(`solver-size`).

Memory: the state of a start is its durations, residual and damping.  An
iteration adds the projected Jacobian J (3, n), the six distinct entries
of its Gram matrix J J^T and the trial durations and residuals, each
released once used.  On the largest batch of a default sweep, 378
patterns of 8 arcs with 20 starts each, the traced peak of an iteration
is about 3.3 times the bytes of J, reached inside `_damped_step`.

"attained" comes with a reproducing witness word; "not-found" is
evidence, not proof, of non-attainability, unless it carries a certificate.

The largest min(p, q, r), `max_min_coordinate`, needs no search: it is 0,
1/2 and PHI for words of at most 3, 4 and 5 or more arcs, each value
reached by an explicit word (proof in its docstring).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .words import (
    LETTERS,
    PQR_PAIRS,
    InvariantViolation,
    PqrPoint,
    Word,
    canonicalize,
    pair_axis,
    pqr,
    require_int,
    require_real,
    word_to_dict,
)

__all__ = [
    "FitResult",
    "closed_form_word",
    "enumerate_patterns",
    "exclusion_bound",
    "fit",
    "max_min_coordinate",
]

DEFAULT_MAX_ARCS = 8
DEFAULT_TOL = 1e-7
DEFAULT_STARTS = 20
GN_ITERS = 70
# Levenberg-Marquardt damping range; a start rejected at LAM_MAX is frozen
LAM_MIN, LAM_MAX = 1e-14, 1e10
# cap on the largest array of the longest batch, max(P * S * 3n, P * 3n^2):
# the Jacobians of an iteration or the pattern maps; admits max_arcs 11 with 20 starts,
# and enumerate_patterns up to 12 arcs, the longest batch that fits at one start
MAX_BATCH_ENTRIES = 2**22

# golden bound: min(p, q, r) <= PHI and max(p, q, r) >= 1 - PHI on the attainable set
PHI = (math.sqrt(5.0) - 1.0) / 2.0
# absorbs float rounding of targets on a bound, e.g. a vertex whose sum is 1 - 2^-52
SCREEN_SLACK = 1e-12
# words reaching the largest min(p, q, r) with at most 3, 4 and 5 arcs
_MAX_MIN_WORDS = {
    3: Word.of([(1, 1.0), (2, 1.0), (3, 1.0)]),
    4: Word.of([(1, 0.5), (2, 1.0), (3, 1.0), (1, 0.5)]),
    5: Word.of([(1, PHI * PHI), (2, PHI), (3, 1.0), (1, PHI), (2, PHI * PHI)]),
}


@dataclass(frozen=True)
class FitResult:
    """Outcome of a witness search."""

    status: str  # "attained" | "not-found"
    witness: Word | None
    residual: float  # Euclidean distance in (p, q, r); a lower bound when certified
    starts_used: int
    certificate: str | None = None  # "sum-bound" | "golden-bound": proven unattainable

    def to_dict(self) -> dict:
        d = {"status": self.status, "residual": self.residual, "starts_used": self.starts_used}
        if self.witness is not None:
            d["witness"] = word_to_dict(self.witness)
        if self.certificate is not None:
            d["certificate"] = self.certificate
        return d


def _patterns_of_length(n: int) -> tuple[tuple[int, ...], ...]:
    """The canonical patterns of n arcs, 3 * 2^(n-1) - 6 of them, in
    lexicographic order.  The sweep draws its starts pattern by pattern and
    keeps the first best one, so this order is part of its byte contract.

    Each no-repeat sequence of k letters is extended by every letter other
    than its last, in letter order, which keeps the sequences sorted; of
    the 3 * 2^(n-1) sequences, the 6 that alternate two letters are dropped.
    """
    seqs = [(letter,) for letter in LETTERS]
    for _ in range(n - 1):
        seqs = [seq + (letter,) for seq in seqs for letter in LETTERS if letter != seq[-1]]
    return tuple(seq for seq in seqs if len(set(seq)) == len(LETTERS))


def _largest_batch(max_arcs: int, n_starts: int) -> int:
    """Entries of the largest array of the longest batch of a sweep up to
    max_arcs: the Jacobians of an iteration, P * S * 3n, or the pattern
    maps, P * 3n^2."""
    # the longest patterns make the largest batch: 3 * 2^(n-1) - 6 patterns
    n = max_arcs
    P, S = 3 * 2 ** (n - 1) - 6, 1 if n == 3 else n_starts
    return max(P * S * 3 * n, P * 3 * n * n)


def enumerate_patterns(max_arcs: int) -> list[tuple[int, ...]]:
    """All canonical patterns with 3..max_arcs arcs, ordered by length and
    then lexicographically.

    A max_arcs whose longest batch could not run at one start (pattern maps
    of more than MAX_BATCH_ENTRIES entries, so above 12 arcs) raises
    "solver-size" before any pattern is built."""
    require_int("max-arcs", max_arcs, 3)
    entries = _largest_batch(max_arcs, 1)
    if entries > MAX_BATCH_ENTRIES:
        raise InvariantViolation(
            "solver-size",
            f"enumerate_patterns(max_arcs={max_arcs}) lists patterns whose pattern maps "
            f"(P * 3n^2 entries) hold {entries} entries, above {MAX_BATCH_ENTRIES}",
        )
    pats: list[tuple[int, ...]] = []
    for n in range(3, max_arcs + 1):
        pats.extend(_patterns_of_length(n))
    return pats


def _pair_masks(patterns: np.ndarray) -> np.ndarray:
    """(P, 3, n, n) masks: entry [p, k, l, m] = 1 iff l < m and the arcs
    at l, m carry the k-th cyclic letter pair."""
    P, n = patterns.shape
    upper = np.triu(np.ones((n, n)), k=1)
    M = np.zeros((P, 3, n, n))
    for k, (i, j) in enumerate(PQR_PAIRS):
        M[:, k] = (patterns[:, :, None] == i) * (patterns[:, None, :] == j) * upper
    return M


def _letter_onehot(patterns: np.ndarray) -> np.ndarray:
    return np.stack([(patterns == l).astype(float) for l in LETTERS], axis=1)  # (P, 3, n)


def _renormalize(t: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Clip durations t (P, S, n) to >= 0 and rescale so each letter's
    durations sum to 1, with onehot (P, 3, n) the letters of each pattern."""
    t = np.clip(t, 0.0, None)
    letters_of = onehot.transpose(0, 2, 1)  # (P, n, 3)
    sums = np.matmul(t, letters_of)  # (P, S, 3)
    # a letter whose durations all collapsed to 0 restarts from uniform
    dead = sums <= 0.0
    if dead.any():
        counts = onehot.sum(axis=2)[:, None, :]  # (P, 1, 3)
        uniform = np.matmul(1.0 / counts, onehot)  # (P, 1, n)
        t = np.where(np.matmul(dead.astype(float), onehot) > 0, uniform, t)
        sums = np.matmul(t, letters_of)
    # each arc has one letter, so every entry of the scale is one reciprocal, exactly
    return t * np.matmul(1.0 / sums, onehot)


def _damped_step(J: np.ndarray, lam: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt steps -(J^T J + lam I)^-1 J^T r of a batch, for
    Jacobians J (..., 3, n), dampings lam (...) and residuals r (..., 3).

    By the push-through identity the step is -J^T y with (G + lam I) y = r,
    where G = J J^T is the 3x3 Gram matrix of the rows of J.  Its six
    distinct entries are formed as dot products of those rows, and the
    system is solved by an elementwise Cholesky factorisation.  G is
    positive semidefinite, so each Schur complement of G + lam I is at
    least lam I and every squared pivot is at least lam in exact
    arithmetic; flooring them at lam keeps rounding from producing a NaN.
    Each step is a combination of the rows of J, so it lies in the tangent
    space whenever J does.
    """
    j0, j1, j2 = J[..., 0, :], J[..., 1, :], J[..., 2, :]

    def dot(a, b):
        return np.einsum("...n,...n->...", a, b)

    l00 = np.sqrt(np.maximum(dot(j0, j0) + lam, lam))
    l10 = dot(j1, j0) / l00
    l20 = dot(j2, j0) / l00
    l11 = np.sqrt(np.maximum(dot(j1, j1) + lam - l10 * l10, lam))
    l21 = (dot(j2, j1) - l20 * l10) / l11
    l22 = np.sqrt(np.maximum(dot(j2, j2) + lam - l20 * l20 - l21 * l21, lam))
    z0 = r[..., 0] / l00
    z1 = (r[..., 1] - l10 * z0) / l11
    y2 = (r[..., 2] - l20 * z0 - l21 * z1) / l22 / l22
    y1 = (z1 - l21 * y2) / l11
    y0 = (z0 - l10 * y1 - l20 * y2) / l00
    return -np.einsum("...k,...kn->...n", np.stack([y0, y1, y2], axis=-1), J)


def _gauss_newton(
    pat: np.ndarray,
    t: np.ndarray,
    target: np.ndarray,
    tol: float,
    iters: int = GN_ITERS,
):
    """Damped Gauss-Newton over patterns `pat` (P, n) from starts `t`
    (P, S, n) on the per-letter simplices; returns (durations, squared
    residuals (P, S)).  Stops once any start meets the tolerance, or once
    every start is frozen.

    Two maps (n, 3n) per pattern are built once.  H[l, (k, m)] is entry
    (l, m) of B_k = M_k + M_k^T, with M_k the k-th pair mask of
    `_pair_masks`; K = H proj, with proj the tangent projection, which
    removes per-letter means.  For durations t, the row t H holds the three
    gradients B_k t, so the residuals are t^T B_k t / 2 - target, and t K
    is the projected Jacobian J (3, n).  Every start of the batch runs
    through the same products; np.matmul hands them to the BLAS, so their
    last bits follow the kernel it picks for the CPU.

    Each start is damped on its own, with lam in [LAM_MIN, LAM_MAX], and
    steps by `_damped_step` from J and G = J J^T (3, 3), which it forms
    from the rows of J.  G is positive semidefinite, so every squared pivot
    of the 3x3 system G + lam I is at least lam >= LAM_MIN: no step can
    fail, and no start needs a fallback.
    A start rejected with lam already at LAM_MAX keeps its durations,
    residual and lam, so every later iteration repeats its step bit for bit
    and is rejected again: it is frozen for good.
    """
    P, S, n = t.shape
    M = _pair_masks(pat)
    H = (M + M.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3).reshape(P, n, 3 * n)
    del M  # M, J and the trial arrays are released once used: the peak is the step
    onehot = _letter_onehot(pat)
    proj = np.eye(n) - np.matmul(onehot.transpose(0, 2, 1), onehot / onehot.sum(axis=2, keepdims=True))
    K = np.matmul(H.reshape(P, 3 * n, n), proj).reshape(P, n, 3 * n)
    del proj

    def residuals(tt):
        grads = np.matmul(tt, H).reshape(P, S, 3, n)
        return 0.5 * np.einsum("pskm,psm->psk", grads, tt) - target

    def sqnorm(r):
        return np.einsum("psk,psk->ps", r, r)

    rcur = residuals(t)
    fcur = sqnorm(rcur)
    lam = np.full((P, S), 1e-3)
    for _ in range(iters):
        J = np.matmul(t, K).reshape(P, S, 3, n)
        t_trial = t + _damped_step(J, lam, rcur)
        del J
        t_trial = _renormalize(t_trial, onehot)
        r_trial = residuals(t_trial)
        f_trial = sqnorm(r_trial)
        accept = f_trial < fcur
        t = np.where(accept[..., None], t_trial, t)
        rcur = np.where(accept[..., None], r_trial, rcur)
        fcur = np.where(accept, f_trial, fcur)
        del t_trial, r_trial, f_trial
        frozen = ~accept & (lam == LAM_MAX)
        lam = np.clip(np.where(accept, lam * 0.3, lam * 5.0), LAM_MIN, LAM_MAX)
        if fcur.min() <= (tol * tol) * 1e-4 or frozen.all():
            break
    return t, fcur


def _search(patterns, starts: np.ndarray, target: np.ndarray, tol: float, iters: int = GN_ITERS):
    """Gauss-Newton over `patterns` from raw `starts` (P, S, n), put on the
    per-letter simplices first; returns (residual, pattern, durations,
    starts used) of the best start."""
    pat = np.array(patterns)  # (P, n)
    t, fcur = _gauss_newton(pat, _renormalize(starts, _letter_onehot(pat)), target, tol, iters)
    bp, bs = divmod(int(np.argmin(fcur)), fcur.shape[1])
    return float(np.sqrt(fcur[bp, bs])), patterns[bp], t[bp, bs], fcur.size


def exclusion_bound(point: PqrPoint) -> tuple[float, str | None]:
    """Proven lower bound on the distance from the point to the attainable
    set, with the name of the bound that gives it; (0.0, None) when the
    point satisfies both bounds.

    The attainable set lies in the slab 1 <= p + q + r <= 2 and outside the
    corners min(p, q, r) > PHI and max(p, q, r) < 1 - PHI, so the distance
    to the slab, or out of a corner, bounds the distance to the set.
    """
    x = (point.p, point.q, point.r)
    s = x[0] + x[1] + x[2]
    sum_gap = max(0.0, 1.0 - s, s - 2.0) / math.sqrt(3.0)
    golden_gap = max(0.0, min(x) - PHI, (1.0 - PHI) - max(x))
    if sum_gap == golden_gap == 0.0:
        return 0.0, None
    if sum_gap >= golden_gap:
        return sum_gap, "sum-bound"
    return golden_gap, "golden-bound"


# the word of `closed_form_word`, with durations (a, b, c, 1 - a, 1 - c, 1 - b)
_CLOSED_FORM_LETTERS = (1, 2, 3, 1, 3, 2)


def _symmetry_table() -> tuple[tuple, ...]:
    """(perm, reversed, (i, j, k)) for each of the 12 symmetries: the image
    of a point x under it is (y_i, y_j, y_k), with y = (x, 1 - x).

    The six-arc word renamed by perm has P(perm(i) before perm(j)) at x as
    its P(i before j), or P(perm(j) before perm(i)) when it is also
    reversed; `words.pair_axis` gives the axis a of that pair, and index a
    or a + 3 picks x_a or 1 - x_a."""
    table = []
    for perm in permutations(LETTERS):
        for reversed_ in (False, True):
            pairs = [(perm[i - 1], perm[j - 1]) for i, j in PQR_PAIRS]
            axes = (pair_axis(j, i) if reversed_ else pair_axis(i, j) for i, j in pairs)
            table.append((perm, reversed_, tuple(a if sign > 0 else a + 3 for a, sign in axes)))
    return tuple(table)


_SYMMETRIES = _symmetry_table()


def closed_form_word(point: PqrPoint) -> Word | None:
    """A section word of at most six arcs whose (p, q, r) is the point up to
    rounding, or None when no image of the point under the symmetries lies
    in the region R below, up to SCREEN_SLACK.

    The word 1 2 3 1 3 2 with durations (a, b, c, 1 - a, 1 - c, 1 - b),
    each in [0, 1], reaches p = 1 - (1 - a) b, q = b and r = c (1 - a).
    Inverting, b = q, 1 - a = (1 - p)/q and c = r q/(1 - p), which lie in
    [0, 1] exactly on R = {p + q >= 1, p + q r <= 1}.  Two degenerate
    points of R need their own durations: q = 0 forces p = 1, reached with
    a = 0 and c = r; p = 1 with q > 0 forces r = 0, reached with a = 1 and
    c = 0.  Durations are clamped to [0, 1], so rounding near the faces of
    R cannot make the word invalid; the caller judges it by its residual.

    A symmetry renames the letters by a permutation and may reverse the
    arcs.  Renaming maps P(i before j) to P(perm(i) before perm(j)), and
    reversal maps it to P(j before i), so each coordinate of the image of
    the point is a coordinate x_a of the point or its complement 1 - x_a;
    the table `_SYMMETRIES` says which, for each of the 12 symmetries.  The
    image farthest inside R (least outside it, for a point that rounding
    put just beyond R) gives the word, and the same symmetry maps the word
    back.

    Write E_i = x_i + x_j x_k - 1 for {i, j, k} = {1, 2, 3} and x = (p, q,
    r), and O_i for the same expression at 1 - x.  The images of R are the
    sets R(i, j) = {x_i + x_j >= 1, E_i <= 0} for i != j, and the sets
    R'(i, j), the same at 1 - x with O_i.  Every point with some E_i <= 0
    and some O_m <= 0 lies in one of them:
    - if x_i + x_j >= 1 for some j != i, the point lies in R(i, j);
    - otherwise (1 - x_i) + (1 - x_j) > 1 for both j != i, so the point
      lies in R'(i, j) for either j when m = i, and in R'(m, i) when m != i.
    So every point that no all-positive triple E or O excludes gets a word.
    """
    p, q, r = point.p, point.q, point.r
    x = (p, q, r, 1.0 - p, 1.0 - q, 1.0 - r)
    images = []
    for perm, reversed_, (i, j, k) in _SYMMETRIES:
        p, q, r = x[i], x[j], x[k]
        # how far the image lies outside R, with 1 - p exact for p >= 1/2
        images.append((max((1.0 - p) - q, q * r - (1.0 - p)), perm, reversed_, p, q, r))
    outside, perm, reversed_, p, q, r = min(images, key=lambda image: image[0])
    if outside > SCREEN_SLACK:
        return None
    if q == 0.0:
        a, c = 0.0, r
    elif p == 1.0:
        a, c = 1.0, 0.0
    else:
        a, c = 1.0 - (1.0 - p) / q, r * q / (1.0 - p)
    a, b, c = (min(max(v, 0.0), 1.0) for v in (a, q, c))
    durations = (a, b, c, 1.0 - a, 1.0 - c, 1.0 - b)
    arcs = [(perm[l - 1], t) for l, t in zip(_CLOSED_FORM_LETTERS, durations)]
    return canonicalize(Word.of(arcs[::-1] if reversed_ else arcs))


def fit(
    target: PqrPoint,
    max_arcs: int = DEFAULT_MAX_ARCS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    n_starts: int = DEFAULT_STARTS,
) -> FitResult:
    """Search for a section word whose (p, q, r) hits the target.

    A target that `exclusion_bound` puts farther than tol from the
    attainable set is not-found without a search: its residual is that
    lower bound and its certificate names the bound.

    Otherwise, when max_arcs is at least 6, the word of `closed_form_word`
    is tried: if its point lies within tol of the target, the result is
    attained with `starts_used` 0.

    Else the sweep runs patterns by increasing length with per-length
    deterministic seeds, so for the same seed its best residual never
    worsens as max_arcs grows; it stops early once the tolerance is met.

    Before anything is allocated, a sweep whose longest batch needs an
    array of more than MAX_BATCH_ENTRIES entries raises "solver-size"; the
    largest are the Jacobians of an iteration, P * S * 3n entries, and the
    pattern maps, P * 3n^2.
    """
    require_int("max-arcs", max_arcs, 3)
    require_int("seed", seed, 0)
    require_int("n-starts", n_starts, 1)
    tol = require_real("tol", tol)
    if not 0 < tol < math.inf:
        raise InvariantViolation("tol", f"tol must be finite and positive, got {tol}")
    entries = _largest_batch(max_arcs, n_starts)
    if entries > MAX_BATCH_ENTRIES:
        raise InvariantViolation(
            "solver-size",
            f"max_arcs={max_arcs} with n_starts={n_starts} needs {entries} entries in its "
            f"largest Gauss-Newton array (Jacobians or pattern maps), above {MAX_BATCH_ENTRIES}",
        )
    bound, certificate = exclusion_bound(target)
    if bound > tol + SCREEN_SLACK:
        return FitResult("not-found", None, bound, 0, certificate)
    if max_arcs >= 6:
        word = closed_form_word(target)
        if word is not None:
            result = _attained(word, target, 0)
            if result.residual <= tol:
                return result

    tvec = target.as_array()
    starts_used = 0
    best = (np.inf, None, None)
    for n in range(3, max_arcs + 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
        patterns = _patterns_of_length(n)
        # three arcs fix the durations: evaluate the single start, no iterations
        S = 1 if n == 3 else n_starts
        starts = rng.gamma(1.0, size=(len(patterns), S, n))
        res, pattern, durs, used = _search(patterns, starts, tvec, tol, 0 if n == 3 else GN_ITERS)
        starts_used += used
        if res < best[0]:
            best = (res, pattern, durs)
        if best[0] <= tol:
            break

    residual, pattern, durs = best
    if residual <= tol:
        return _attained(canonicalize(Word.of(zip(pattern, durs))), target, starts_used)
    return FitResult("not-found", None, float(residual), starts_used)


def _attained(witness: Word, target: PqrPoint, starts_used: int) -> FitResult:
    # the residual of the actual witness word, in Python floats
    point = pqr(witness)
    residual = math.dist((point.p, point.q, point.r), (target.p, target.q, target.r))
    return FitResult("attained", witness, residual, starts_used)


def max_min_coordinate(max_arcs: int = DEFAULT_MAX_ARCS) -> tuple[float, Word]:
    """Exact maximum of min(p, q, r) over section words of at most max_arcs
    arcs, with a word attaining it; the value is min(pqr(word)).

    Each letter of a section word has total duration 1, and the coordinate
    of a cyclic pair (i, j) sums t_l t_m over arcs l < m carrying i and j.
    - 3 arcs: the word is a permutation of the letters, so its point is a
      cube vertex with p + q + r <= 2 and some coordinate is 0.
    - 4 arcs: exactly one letter k repeats.  If k is not at both ends, the
      single letter at the start (or end) precedes (or follows) everything,
      so one of its two pairs is 0.  The word k i j k with durations
      (a, 1, 1, 1 - a) gives a and 1 - a on the pairs holding k, so the
      minimum is at most 1/2; (1, 1/2), (2, 1), (3, 1), (1, 1/2) reaches it.
    - 5 or more arcs: the golden bound min(p, q, r) <= PHI holds on the
      whole attainable set (Steinhaus-Trybula, Usiskin), and the 5-arc
      word (1, PHI^2), (2, PHI), (3, 1), (1, PHI), (2, PHI^2) reaches
      (PHI, PHI, PHI).
    """
    require_int("max-arcs", max_arcs, 3)
    word = _MAX_MIN_WORDS[min(max_arcs, 5)]
    point = pqr(word)
    return min(point.p, point.q, point.r), word
