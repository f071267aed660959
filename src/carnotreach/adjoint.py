"""Vertical covector dynamics of the maximum principle.

The covector state is the pair (h, R): h = (h1, h2, h3) moves piecewise
linearly under h' = R u with R a constant skew matrix, so flows are exact.
Normalized extremals live on the boundary of the quadrant {h_i <= 1}; the
maximum condition selects the vertex controls, and crossings of the
quadrant edges are the control switchings.  The Casimir
C = h1 h23 + h2 h31 + h3 h12 is conserved and classifies the phase
portraits.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .words import InvariantViolation, Word, canonicalize

__all__ = [
    "AdjointCovector",
    "RegimeReport",
    "casimir",
    "cyclic_k",
    "adjoint_flow",
    "maximizing_controls",
    "normalize",
    "synthesize",
    "switching_times",
    "switch_events_csv",
]

TIE_TOL = 1e-10
# arcs `synthesize` may generate; a horizon needing more raises "switches"
MAX_SYNTH_ARCS = 10_000
# index in AdjointCovector.skew of h_ij for each letter pair i < j
_SKEW_INDEX = {(1, 2): 0, (1, 3): 1, (2, 3): 2}


@dataclass(frozen=True)
class AdjointCovector:
    """Vertical part (h, R) of an extremal; skew stores (h12, h13, h23)."""

    h: tuple[float, float, float]
    skew: tuple[float, float, float]

    @staticmethod
    def of(h, skew) -> "AdjointCovector":
        h = tuple(float(v) for v in h)
        skew = tuple(float(v) for v in skew)
        if len(h) != 3 or len(skew) != 3:
            raise InvariantViolation("covector", f"h and skew must be 3-vectors, got {h} and {skew}")
        if not all(math.isfinite(v) for v in h + skew):
            raise InvariantViolation("covector", f"h and skew must be finite, got {h} and {skew}")
        return AdjointCovector(h, skew)

    @property
    def h12(self) -> float:
        return self.skew[0]

    @property
    def h13(self) -> float:
        return self.skew[1]

    @property
    def h23(self) -> float:
        return self.skew[2]

    @property
    def h31(self) -> float:
        return -self.skew[1]

    def skew_matrix(self) -> np.ndarray:
        h12, h13, h23 = self.skew
        return np.array([
            [0.0, h12, h13],
            [-h12, 0.0, h23],
            [-h13, -h23, 0.0],
        ])


@dataclass(frozen=True)
class RegimeReport:
    """Classification of a synthesized extremal.

    kind: bang-bang | singular-edge | singular-vertex | mixed.
    K = h12 + h23 + h31 - C is the period parameter of the triangle regime.
    """

    kind: str
    casimir: float
    K: float
    singular_letters: tuple[int, ...] = ()


def casimir(a: AdjointCovector) -> float:
    h1, h2, h3 = a.h
    return h1 * a.h23 + h2 * a.h31 + h3 * a.h12


def cyclic_k(a: AdjointCovector) -> float:
    return a.h12 + a.h23 + a.h31 - casimir(a)


def adjoint_flow(a: AdjointCovector, w: Word) -> AdjointCovector:
    """Exact endpoint of h under the word's piecewise-constant control."""
    h = np.array(a.h)
    R = a.skew_matrix()
    for letter, t in w.arcs:
        h = h + t * R[:, letter - 1]
    return AdjointCovector(tuple(h), a.skew)


def maximizing_controls(a: AdjointCovector, tol: float = TIE_TOL) -> tuple[int, ...]:
    """Letters attaining the maximum of h over the control simplex.

    One letter: a vertex control; two: an edge of the simplex; three: the
    whole simplex (the covector sits at the quadrant vertex).
    """
    hmax = max(a.h)
    return tuple(i + 1 for i, hi in enumerate(a.h) if hi >= hmax - tol)


def normalize(a: AdjointCovector) -> AdjointCovector:
    """Rescale by a positive scalar so that max h_i = 1.

    Raises "normalize-range" when the rescaled covector is not finite, as
    for a tiny max h_i with a skew part of ordinary size."""
    hmax = max(a.h)
    if hmax <= 0:
        raise InvariantViolation("normalize", f"max h_i must be positive to normalize, got {a.h}")
    s = 1.0 / hmax
    if math.isfinite(s):
        h, skew = tuple(s * v for v in a.h), tuple(s * v for v in a.skew)
    else:
        # 1 / hmax overflows below about 5.6e-309, where dividing still can be finite
        h, skew = tuple(v / hmax for v in a.h), tuple(v / hmax for v in a.skew)
    if not all(math.isfinite(v) for v in h + skew):
        raise InvariantViolation(
            "normalize-range", f"covector {a.h}, {a.skew} scaled by 1/{hmax} is not finite: {h}, {skew}"
        )
    return AdjointCovector(h, skew)


def _edge_is_singular(a: AdjointCovector, i: int, j: int, tol: float) -> bool:
    # edge {i, j} of the quadrant is invariant iff h_ij = 0
    return abs(a.skew[_SKEW_INDEX[min(i, j), max(i, j)]]) <= tol


def _edge_bang_letter(a: AdjointCovector, i: int, j: int) -> int:
    # transversal edge crossing: pick the vertex control that keeps h <= 1
    lo, hi = min(i, j), max(i, j)
    hij = a.skew[_SKEW_INDEX[lo, hi]]
    # control e_lo moves h_hi at rate -h_ij; control e_hi moves h_lo at rate +h_ij
    return lo if hij >= 0 else hi


def synthesize(
    a: AdjointCovector,
    horizon: float,
    tol: float = TIE_TOL,
) -> tuple[Word, RegimeReport]:
    """Run the closed loop "control = maximizing vertex" for the given horizon.

    Switch instants are roots of linear functions, so the trajectory is
    computed in closed form.  When the covector reaches an invariant edge
    or the quadrant vertex, synthesis of the bang part stops and the regime
    is reported as singular (or mixed, if some bang arcs were generated).
    A horizon that needs more than MAX_SYNTH_ARCS arcs raises "switches".
    """
    # an infinite horizon never runs down, so the loop below would not end
    if not 0 <= horizon < math.inf:
        raise InvariantViolation("horizon", f"horizon must be finite and nonnegative, got {horizon}")
    if abs(max(a.h) - 1.0) > tol:
        raise InvariantViolation("normalized", f"covector must satisfy max h_i = 1, got {a.h}")

    C = casimir(a)
    K = cyclic_k(a)
    h = np.array(a.h)
    R = a.skew_matrix()
    arcs: list[tuple[int, float]] = []
    remaining = horizon

    def report(kind: str, letters=()) -> RegimeReport:
        if kind == "singular" and arcs:
            kind = "mixed"
        elif kind == "singular":
            kind = "singular-edge" if len(letters) == 2 else "singular-vertex"
        return RegimeReport(kind, C, K, tuple(letters))

    while remaining > tol:
        active = tuple(i + 1 for i in range(3) if h[i] >= 1.0 - tol)
        if len(active) == 3:
            return canonicalize(Word.of(arcs)), report("singular", active)
        if len(active) == 2:
            i, j = active
            if _edge_is_singular(a, i, j, tol):
                return canonicalize(Word.of(arcs)), report("singular", active)
            letter = _edge_bang_letter(a, i, j)
        elif len(active) == 1:
            letter = active[0]
        else:
            raise InvariantViolation("quadrant", f"covector left the quadrant boundary: {h}")

        col = R[:, letter - 1]
        # time until another component reaches 1
        t_switch = np.inf
        nxt = None
        for jdx in range(3):
            if jdx == letter - 1 or col[jdx] <= tol:
                continue
            s = (1.0 - h[jdx]) / col[jdx]
            if s < t_switch:
                t_switch = s
                nxt = jdx
        step = min(t_switch, remaining)
        if step > 0:
            if len(arcs) == MAX_SYNTH_ARCS:
                raise InvariantViolation(
                    "switches", f"horizon {horizon} needs more than {MAX_SYNTH_ARCS} arcs"
                )
            arcs.append((letter, step))
            h = h + step * col
        remaining -= step
        if step == t_switch and nxt is not None:
            h[nxt] = 1.0  # land exactly on the face

    return canonicalize(Word.of(arcs)), report("bang-bang")


def switching_times(a: AdjointCovector) -> tuple[float, float, float]:
    """Closed-form face passage times of the periodic triangle regime.

    Requires h12, h23, h31 > 0 and K > 0.  Returns the passage times of
    the faces (F_1, F_2, F_3):

        F_1: K / (h31 h12),  F_2: K / (h12 h23),  F_3: K / (h23 h31).
    """
    h12, h23, h31 = a.h12, a.h23, a.h31
    if not (h12 > 0 and h23 > 0 and h31 > 0):
        raise InvariantViolation(
            "triangle-regime",
            f"need h12, h23, h31 > 0, got ({h12}, {h23}, {h31})",
        )
    K = cyclic_k(a)
    if K <= 0:
        raise InvariantViolation("triangle-regime", f"need K > 0, got K = {K}")
    return (K / (h31 * h12), K / (h12 * h23), K / (h23 * h31))


def switch_events_csv(a: AdjointCovector, word: Word) -> str:
    """CSV of (t, h1, h2, h3) along the word synthesized from a: at the
    start, each switch, and the horizon."""
    h = np.array(a.h)
    R = a.skew_matrix()
    buf = io.StringIO()
    buf.write("t,h1,h2,h3\n")
    t = 0.0
    buf.write(f"{t!r},{float(h[0])!r},{float(h[1])!r},{float(h[2])!r}\n")
    for letter, dur in word.arcs:
        h = h + dur * R[:, letter - 1]
        t += dur
        buf.write(f"{t!r},{float(h[0])!r},{float(h[1])!r},{float(h[2])!r}\n")
    return buf.getvalue()
