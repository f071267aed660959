"""Attainability of a target (p, q, r): witness-word search.

The solver enumerates canonical switching patterns (no adjacent repeats,
all three letters present) up to a pattern cap, and for each pattern
minimizes the squared distance of the precedence coordinates to the
target over the per-letter duration simplices.  The objective is a fixed
quadratic form in the durations, so residuals and Jacobians are exact;
the optimizer is a projected, damped Gauss-Newton run from multiple
deterministic starts, batched over patterns with numpy.

The Jacobian of the three coordinates has three rows, so each damped
step solves a 3x3 system in closed form (`_damped_step`) rather than the
n x n normal equations.

The batch is an active set.  A start whose trial step is rejected keeps
its durations, so its Jacobian is reused rather than rebuilt, and a start
rejected with its damping already at the cap would repeat the same
rejected step forever, so it retires from the batch.  Both rules skip
only arithmetic whose outcome is already known: the results are
bit-identical to iterating every start for the full iteration count.  The
size of the largest batch is bounded before anything is allocated
(`solver-size`).

Memory: the per-start state is the projected Jacobian J (3, n), its Gram
matrix J J^T (3, 3) and vectors of n numbers or fewer.  Everything else a
Gauss-Newton iteration builds (the gathered pair masks, the trial
durations and residuals) is made for at most GN_CHUNK starts at a time.
On the largest batch of a default sweep, 378 patterns of 8 arcs with 20
starts each, the traced peak of an iteration is about 3.7 times the bytes
of the stored J.

Before any search, `fit` checks two proven bounds on the attainable
set: the cyclic identity 1 <= p + q + r <= 2 (exactly one or two of the
events x1 < x2, x2 < x3, x3 < x1 hold for independent variables) and the
golden bound min(p, q, r) <= (sqrt 5 - 1)/2 of Steinhaus-Trybula and
Usiskin, with max(p, q, r) >= (3 - sqrt 5)/2 by reversal.  A target
farther than tol from every point the bounds allow is not-found at once,
with a certificate naming the bound.

A target that passes the screen is first refined from a nearby word: the
caller's hint or, without one, the nearest word of the precomputed
`witness_table`.  Only when that refinement misses does the per-length
sweep run.

"attained" comes with a reproducing witness word; "not-found" is
evidence, not proof, of non-attainability, unless it carries a certificate.

The largest min(p, q, r), `max_min_coordinate`, needs no search: it is 0,
1/2 and PHI for words of at most 3, 4 and 5 or more arcs, each value
reached by an explicit word (proof in its docstring).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import witness_table
from .words import (
    LETTERS,
    PQR_PAIRS,
    SECTION_TOL,
    InvariantViolation,
    PqrPoint,
    Word,
    canonicalize,
    pqr,
    require_int,
    require_real,
    word_to_dict,
)

__all__ = [
    "FitResult",
    "enumerate_patterns",
    "exclusion_bound",
    "fit",
    "probe",
    "max_min_coordinate",
]

DEFAULT_MAX_ARCS = 8
DEFAULT_TOL = 1e-7
DEFAULT_STARTS = 20
GN_ITERS = 70
# Levenberg-Marquardt damping range; a start rejected at LAM_MAX is frozen
LAM_MIN, LAM_MAX = 1e-14, 1e10
# the table word nearest a target, refined when the caller gives no hint
_table_word = witness_table.nearest
# starts per slice of a Gauss-Newton iteration, which bounds its temporaries
GN_CHUNK = 512
# cap on the largest array of the longest batch, max(P * S * 3n, P * 3n^2):
# the stored Jacobians or the pattern masks; admits max_arcs 11 with 20 starts
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


@lru_cache(maxsize=None)
def _patterns_of_length(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for seq in product(LETTERS, repeat=n):
        if any(seq[i] == seq[i + 1] for i in range(n - 1)):
            continue
        if set(seq) != set(LETTERS):
            continue
        out.append(seq)
    return tuple(out)


def enumerate_patterns(max_arcs: int) -> list[tuple[int, ...]]:
    """All canonical patterns with 3..max_arcs arcs, ordered by length."""
    require_int("max-arcs", max_arcs, 3)
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
    """Clip to >= 0 and rescale so each letter's durations sum to 1."""
    t = np.clip(t, 0.0, None)
    sums = np.einsum("pcn,psn->psc", onehot, t)
    # a letter whose durations all collapsed to 0 restarts from uniform
    dead = sums <= 0.0
    if dead.any():
        counts = onehot.sum(axis=2)  # (P, 3)
        uniform = np.einsum("pcn,pc->pn", onehot, 1.0 / counts)
        mask = np.einsum("pcn,psc->psn", onehot, dead.astype(float)) > 0
        t = np.where(mask, np.broadcast_to(uniform[:, None, :], t.shape), t)
        sums = np.einsum("pcn,psn->psc", onehot, t)
    scale = np.einsum("pcn,psc->psn", onehot, 1.0 / sums)
    return t * scale


def _tangent_project(d: np.ndarray, onehot: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Remove per-letter means so steps preserve the letter totals;
    counts = onehot.sum(axis=2) (P, 3) is the number of arcs per letter."""
    # d is (P, ..., n) with onehot[i] the letters of d[i]; flatten the middle axes
    orig_shape = d.shape
    flat = d.reshape(orig_shape[0], -1, orig_shape[-1])  # (P, B, n)
    sums = np.einsum("pcn,pbn->pbc", onehot, flat)
    flat = flat - np.einsum("pcn,pbc->pbn", onehot, sums / counts[:, None, :])
    return flat.reshape(orig_shape)


def _damped_step(J: np.ndarray, G: np.ndarray, lam: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt steps -(J^T J + lam I)^-1 J^T r of a batch, for
    Jacobians J (..., 3, n), their Gram matrices G = J J^T (..., 3, 3),
    dampings lam (...) and residuals r (..., 3).

    By the push-through identity the step is -J^T y with (G + lam I) y = r,
    a 3x3 system solved by an elementwise Cholesky factorisation.  G is
    positive semidefinite, so each Schur complement of G + lam I is at
    least lam I and every squared pivot is at least lam in exact
    arithmetic; flooring them at lam keeps rounding from producing a NaN.
    Each step is a combination of the rows of J, so it lies in the tangent
    space whenever J does.
    """
    l00 = np.sqrt(np.maximum(G[..., 0, 0] + lam, lam))
    l10 = G[..., 1, 0] / l00
    l20 = G[..., 2, 0] / l00
    l11 = np.sqrt(np.maximum(G[..., 1, 1] + lam - l10 * l10, lam))
    l21 = (G[..., 2, 1] - l20 * l10) / l11
    l22 = np.sqrt(np.maximum(G[..., 2, 2] + lam - l20 * l20 - l21 * l21, lam))
    z0 = r[..., 0] / l00
    z1 = (r[..., 1] - l10 * z0) / l11
    y2 = (r[..., 2] - l20 * z0 - l21 * z1) / l22 / l22
    y1 = (z1 - l21 * y2) / l11
    y0 = (z0 - l10 * y1 - l20 * y2) / l00
    return -(J[..., 0, :] * y0[..., None] + J[..., 1, :] * y1[..., None] + J[..., 2, :] * y2[..., None])


def _gauss_newton(
    pat: np.ndarray,
    t: np.ndarray,
    target: np.ndarray,
    tol: float,
    iters: int = GN_ITERS,
):
    """Damped Gauss-Newton over patterns `pat` (P, n) from starts `t`
    (P, S, n) on the per-letter simplices; returns (durations, squared
    residuals (P, S)).  Stops once any start meets the tolerance.

    Each start is damped on its own, with lam in [LAM_MIN, LAM_MAX], and
    steps by `_damped_step` from its projected Jacobian J (3, n) and
    G = J J^T (3, 3).  G is positive semidefinite, so every squared pivot
    of the 3x3 system G + lam I is at least lam >= LAM_MIN: no step can
    fail, and no start needs a fallback.  A rejected trial leaves the
    start's durations, and so J and G, unchanged: they are recomputed only
    for starts whose last trial was accepted.  A start rejected with lam
    already at LAM_MAX keeps its durations, residual and lam, so every
    later iteration would repeat its step bit for bit and be rejected
    again; it retires, and the loop ends when no start is left.  The step
    is elementwise arithmetic on the start's own J, G, lam and r, which no
    other start changes, so the result is bit-identical to iterating every
    start to the end.

    An iteration first rebuilds J and G of the starts accepted last time,
    then steps, evaluates and accepts the live starts, GN_CHUNK at a time.
    Each start's arithmetic does not depend on the slicing, so neither does
    the result.
    """
    P, n = pat.shape
    S = t.shape[1]
    M = _pair_masks(pat)
    Msym = M + M.transpose(0, 1, 3, 2)
    onehot = _letter_onehot(pat)
    counts = onehot.sum(axis=2)
    owner = np.repeat(np.arange(P), S)  # pattern of each start

    def chunks(count):
        return (slice(c, c + GN_CHUNK) for c in range(0, count, GN_CHUNK))

    def residuals(rows, tt):
        """Residuals at durations tt (b, n) of at most GN_CHUNK starts whose
        patterns are `rows`."""
        return np.einsum("bklm,bl,bm->bk", M[rows], tt, tt) - target

    def sqnorm(r):
        return np.einsum("bk,bk->b", r, r)

    t = t.reshape(P * S, n).copy()
    rcur = np.concatenate([residuals(owner[part], t[part]) for part in chunks(P * S)])
    fcur = sqnorm(rcur)
    lam = np.full(P * S, 1e-3)
    J = np.empty((P * S, 3, n))
    G = np.empty((P * S, 3, 3))
    live = moved = np.arange(P * S)
    for _ in range(iters):
        for part in chunks(len(moved)):
            idx = moved[part]
            pc = owner[idx]
            Jm = _tangent_project(np.einsum("bklm,bm->bkl", Msym[pc], t[idx]), onehot[pc], counts[pc])
            J[idx] = Jm
            G[idx] = np.einsum("bkn,bln->bkl", Jm, Jm)
        accepted = np.empty(len(live), dtype=bool)
        frozen = np.empty(len(live), dtype=bool)
        for part in chunks(len(live)):
            idx = live[part]
            pc = owner[idx]
            lam_live = lam[idx]
            step = _damped_step(J[idx], G[idx], lam_live, rcur[idx])
            t_trial = _renormalize(t[idx, None] + step[:, None], onehot[pc])[:, 0]
            r_trial = residuals(pc, t_trial)
            f_trial = sqnorm(r_trial)
            accept = accepted[part] = f_trial < fcur[idx]
            stepped = idx[accept]
            t[stepped] = t_trial[accept]
            rcur[stepped] = r_trial[accept]
            fcur[stepped] = f_trial[accept]
            frozen[part] = ~accept & (lam_live == LAM_MAX)
            lam[idx] = np.clip(np.where(accept, lam_live * 0.3, lam_live * 5.0), LAM_MIN, LAM_MAX)
        moved, live = live[accepted], live[~frozen]
        if fcur.min() <= (tol * tol) * 1e-4 or not live.size:
            break
    return t.reshape(P, S, n), fcur.reshape(P, S)


def _search(patterns, starts: np.ndarray, target: np.ndarray, tol: float, iters: int = GN_ITERS):
    """Gauss-Newton over `patterns` from raw `starts` (P, S, n), put on the
    per-letter simplices first; returns (residual, pattern, durations,
    starts used) of the best start."""
    pat = np.array(patterns)  # (P, n)
    t, fcur = _gauss_newton(pat, _renormalize(starts, _letter_onehot(pat)), target, tol, iters)
    bp, bs = divmod(int(np.argmin(fcur)), fcur.shape[1])
    return float(np.sqrt(fcur[bp, bs])), patterns[bp], t[bp, bs], fcur.size


def _pad_once(candidates):
    """Insert one zero-duration arc at every slot of every (pattern,
    durations) candidate, with each letter differing from both neighbours."""
    out = {}
    for pattern, durs in candidates:
        for i in range(len(pattern) + 1):
            for letter in LETTERS:
                if letter in pattern[max(i - 1, 0) : i + 1]:
                    continue
                out[(pattern[:i] + (letter,) + pattern[i:], durs[:i] + (0.0,) + durs[i:])] = None
    return list(out)


def _refine(
    hint: Word,
    target: np.ndarray,
    max_arcs: int,
    tol: float,
    seed: int,
):
    """Gauss-Newton from the hint's durations padded with one, then two,
    zero-duration arcs; returns (best_residual, pattern, durations, starts).

    Each padded pattern runs from two starts: the hint's durations and a
    3% blend of them with a gamma draw, which leaves the stationary point
    where the residual is normal to the Jacobian's range."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    canon = canonicalize(hint)
    candidates = [(tuple(l for l, _ in canon.arcs), tuple(t for _, t in canon.arcs))]
    residual, pattern, durs, starts = np.inf, None, None, 0
    for _ in range(2):
        candidates = _pad_once(candidates)
        if len(candidates[0][0]) > max_arcs:
            break
        seeded = np.array([c[1] for c in candidates])
        blend = 0.97 * seeded + 0.03 * rng.gamma(1.0, size=seeded.shape)
        patterns = [c[0] for c in candidates]
        residual, pattern, durs, used = _search(patterns, np.stack([seeded, blend], axis=1), target, tol)
        starts += used
        if residual <= tol:
            break
    return residual, pattern, durs, starts


def exclusion_bound(point: PqrPoint) -> tuple[float, str | None]:
    """Proven lower bound on the distance from the point to the attainable
    set, with the name of the bound that gives it; (0.0, None) when the
    point satisfies both bounds.

    The attainable set lies in the slab 1 <= p + q + r <= 2 and outside the
    corners min(p, q, r) > PHI and max(p, q, r) < 1 - PHI, so the distance
    to the slab, or out of a corner, bounds the distance to the set.
    """
    x = point.as_array()
    s = float(x.sum())
    sum_gap = max(0.0, 1.0 - s, s - 2.0) / math.sqrt(3.0)
    golden_gap = max(0.0, float(x.min()) - PHI, (1.0 - PHI) - float(x.max()))
    if sum_gap == golden_gap == 0.0:
        return 0.0, None
    if sum_gap >= golden_gap:
        return sum_gap, "sum-bound"
    return golden_gap, "golden-bound"


def _check_hint(hint) -> None:
    if not isinstance(hint, Word):
        raise InvariantViolation("hint", f"hint must be a Word, got {type(hint).__name__}")
    totals = hint.letter_totals()
    if any(abs(T - 1.0) > SECTION_TOL for T in totals.values()):
        raise InvariantViolation("hint", f"hint must be a section word, letter totals {totals}")


def fit(
    target: PqrPoint,
    max_arcs: int = DEFAULT_MAX_ARCS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    n_starts: int = DEFAULT_STARTS,
    hint: Word | None = None,
) -> FitResult:
    """Search for a section word whose (p, q, r) hits the target.

    A target that `exclusion_bound` puts farther than tol from the
    attainable set is not-found without a search: its residual is that
    lower bound and its certificate names the bound.

    Otherwise a word whose point lies near the target is refined first:
    `hint` when the caller passes one (a section word), else the nearest
    word of `witness_table`, if any lies in the 27 grid cells around the
    target.  Gauss-Newton runs from its durations with one zero-duration
    arc inserted at every slot, then, if that misses tol, with two; padded
    patterns longer than max_arcs are skipped.  A hit returns attained
    with `starts_used` counting the refinement starts only.

    A miss falls back to the sweep, whose result is returned unchanged
    except that `starts_used` also counts the refinement.  The sweep runs
    patterns by increasing length with per-length deterministic seeds, so
    for the same seed its best residual never worsens as max_arcs grows;
    it stops early once the tolerance is met.

    Before anything is allocated, a sweep whose longest batch needs an
    array of more than MAX_BATCH_ENTRIES entries raises "solver-size"; the
    largest are the stored Jacobians, P * S * 3n entries, and the pattern
    masks, P * 3n^2.
    """
    require_int("max-arcs", max_arcs, 3)
    require_int("seed", seed, 0)
    require_int("n-starts", n_starts, 1)
    if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool) and 0 < tol < math.inf):
        raise InvariantViolation("tol", f"tol must be a finite positive number, got {tol!r}")
    # the longest patterns make the largest batch: 3 * 2^(n-1) - 6 patterns
    n = max_arcs
    P, S = 3 * 2 ** (n - 1) - 6, 1 if n == 3 else n_starts
    entries = max(P * S * 3 * n, P * 3 * n * n)
    if entries > MAX_BATCH_ENTRIES:
        raise InvariantViolation(
            "solver-size",
            f"max_arcs={max_arcs} with n_starts={n_starts} needs {entries} entries in its "
            f"largest Gauss-Newton array (Jacobians or pattern masks), above {MAX_BATCH_ENTRIES}",
        )
    if hint is not None:
        _check_hint(hint)
    bound, certificate = exclusion_bound(target)
    if bound > tol + SCREEN_SLACK:
        return FitResult("not-found", None, bound, 0, certificate)
    tvec = target.as_array()

    starts_used = 0
    if hint is None:
        hint = _table_word(tvec, max_arcs)
    if hint is not None:
        residual, pattern, durs, starts_used = _refine(hint, tvec, max_arcs, tol, seed)
        if residual <= tol:
            return _attained(pattern, durs, tvec, starts_used)

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
        return _attained(pattern, durs, tvec, starts_used)
    return FitResult("not-found", None, float(residual), starts_used)


def _attained(pattern, durs, tvec: np.ndarray, starts_used: int) -> FitResult:
    witness = canonicalize(Word.of(zip(pattern, durs)))
    # report the residual of the actual witness word
    residual = float(np.linalg.norm(pqr(witness).as_array() - tvec))
    return FitResult("attained", witness, residual, starts_used)


def probe(
    point: PqrPoint,
    direction,
    eps: float = 1e-3,
    **fit_kwargs,
) -> bool:
    """Whether the point eps further along the direction is attainable.

    Points leaving the unit cube are unattainable outright; otherwise the
    answer is whether `fit` attains the point, and any error `fit` raises
    propagates.
    """
    eps = require_real("eps", eps)
    if not 0 < eps < math.inf:
        raise InvariantViolation("eps", f"eps must be finite and positive, got {eps}")
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise InvariantViolation("direction-shape", f"direction must be 3 numbers, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise InvariantViolation("direction-finite", f"direction must be finite, got {d}")
    x = point.as_array() + eps * d
    if (x < -1e-12).any() or (x > 1.0 + 1e-12).any():
        return False
    return fit(PqrPoint(*np.clip(x, 0.0, 1.0)), **fit_kwargs).status == "attained"


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
