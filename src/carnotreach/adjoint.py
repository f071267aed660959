"""Vertical covector dynamics of the maximum principle.

The covector state is the pair (h, R): h = (h1, h2, h3) moves piecewise
linearly under h' = R u with R a constant skew matrix, so flows are exact.
Normalized extremals live on the boundary of the quadrant {h_i <= 1}; the
maximum condition selects the vertex controls, and crossings of the
quadrant edges are the control switchings.  The Casimir
C = h1 h23 + h2 h31 + h3 h12 is conserved and classifies the phase
portraits.

The flows run on Python floats: a covector stores six floats, and
`_columns` is the one place that reads R from the skew entries.  The
words they synthesize carry Python floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .group import _three_reals
from .words import InvariantViolation, Word, canonicalize, require_real

__all__ = [
    "AdjointCovector",
    "RegimeReport",
    "casimir",
    "cyclic_k",
    "adjoint_flow",
    "normalize",
    "synthesize",
    "switching_times",
    "switch_events_csv",
]

TIE_TOL = 1e-10
# arcs `synthesize` may generate; a horizon needing more raises "switches"
MAX_SYNTH_ARCS = 10_000


@dataclass(frozen=True)
class AdjointCovector:
    """Vertical part (h, R) of an extremal; skew stores (h12, h13, h23)."""

    h: tuple[float, float, float]
    skew: tuple[float, float, float]

    def __post_init__(self):
        for field in ("h", "skew"):
            floats = _three_reals("covector", getattr(self, field))
            if not all(map(math.isfinite, floats)):
                raise InvariantViolation("covector", f"h and skew must be finite, got {self.h} and {self.skew}")
            object.__setattr__(self, field, floats)

    @staticmethod
    def of(h, skew) -> "AdjointCovector":
        """The covector of two iterables of three reals, kept as Python floats."""
        return AdjointCovector(h, skew)

    # h_ij = R_ij is entry i of column j
    @property
    def h12(self) -> float:
        return _columns(self)[1][0]

    @property
    def h23(self) -> float:
        return _columns(self)[2][1]

    @property
    def h31(self) -> float:
        return _columns(self)[0][2]


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


def _columns(a: AdjointCovector) -> tuple[tuple[float, float, float], ...]:
    """The columns R e_1, R e_2, R e_3 of the skew matrix

        R = [[0, h12, h13], [-h12, 0, h23], [-h13, -h23, 0]]

    so that columns[j - 1][i - 1] is h_ij for every pair i != j.  This is
    the one place that reads the skew entries."""
    h12, h13, h23 = a.skew
    return ((0.0, -h12, -h13), (h12, 0.0, -h23), (h13, h23, 0.0))


def _h_fold(a: AdjointCovector, w: Word):
    """Each arc's duration with h after it, as Python floats, along w."""
    columns = _columns(a)
    h1, h2, h3 = a.h
    for letter, t in w.arcs:
        c1, c2, c3 = columns[letter - 1]
        h1, h2, h3 = h1 + t * c1, h2 + t * c2, h3 + t * c3
        yield t, (h1, h2, h3)


def adjoint_flow(a: AdjointCovector, w: Word) -> AdjointCovector:
    """Exact endpoint of h under the word's piecewise-constant control."""
    h = a.h
    for _, h in _h_fold(a, w):
        pass
    return AdjointCovector(h, a.skew)


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


def synthesize(a: AdjointCovector, horizon: float) -> tuple[Word, RegimeReport]:
    """Run the closed loop "control = maximizing vertex" for the given horizon.

    Switch instants are roots of linear functions, so the trajectory is
    computed in closed form.  When the covector reaches an invariant edge
    or the quadrant vertex, synthesis of the bang part stops and the regime
    is reported as singular (or mixed, if some bang arcs were generated).
    A horizon within TIE_TOL of 0 generates no arc and reports the regime
    at the start.
    A horizon that needs more than MAX_SYNTH_ARCS arcs raises "switches".
    """
    horizon = require_real("horizon", horizon)
    # an infinite horizon never runs down, so the loop below would not end
    if not 0 <= horizon < math.inf:
        raise InvariantViolation("horizon", f"horizon must be finite and nonnegative, got {horizon}")
    if abs(max(a.h) - 1.0) > TIE_TOL:
        raise InvariantViolation("normalized", f"covector must satisfy max h_i = 1, got {a.h}")

    C = casimir(a)
    K = cyclic_k(a)
    h = list(a.h)
    columns = _columns(a)
    arcs: list[tuple[int, float]] = []
    remaining = horizon

    def report(kind: str, letters=()) -> RegimeReport:
        if kind == "singular" and arcs:
            kind = "mixed"
        elif kind == "singular":
            kind = "singular-edge" if len(letters) == 2 else "singular-vertex"
        return RegimeReport(kind, C, K, tuple(letters))

    while True:
        active = tuple(i + 1 for i in range(3) if h[i] >= 1.0 - TIE_TOL)
        if len(active) == 3:
            return canonicalize(Word(tuple(arcs))), report("singular", active)
        if len(active) == 2:
            i, j = active
            h_ij = columns[j - 1][i - 1]
            # edge {i, j} of the quadrant is invariant iff h_ij = 0
            if abs(h_ij) <= TIE_TOL:
                return canonicalize(Word(tuple(arcs))), report("singular", active)
            # a transversal crossing takes the vertex control that keeps h <= 1:
            # e_i moves h_j at rate -h_ij, and e_j moves h_i at rate +h_ij
            letter = i if h_ij >= 0 else j
        elif len(active) == 1:
            letter = active[0]
        else:
            raise InvariantViolation("quadrant", f"covector left the quadrant boundary: {h}")
        if horizon <= TIE_TOL:
            break

        col = columns[letter - 1]
        # time until another component reaches 1
        t_switch = math.inf
        nxt = None
        for jdx in range(3):
            if jdx == letter - 1 or col[jdx] <= TIE_TOL:
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
            h = [h[0] + step * col[0], h[1] + step * col[1], h[2] + step * col[2]]
        remaining -= step
        if step == t_switch and nxt is not None:
            h[nxt] = 1.0  # land exactly on the face
        if remaining <= TIE_TOL:
            break

    return canonicalize(Word(tuple(arcs))), report("bang-bang")


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
    h1, h2, h3 = a.h
    t = 0.0
    lines = ["t,h1,h2,h3\n", f"{t!r},{h1!r},{h2!r},{h3!r}\n"]
    for dur, (h1, h2, h3) in _h_fold(a, word):
        t += dur
        lines.append(f"{t!r},{h1!r},{h2!r},{h3!r}\n")
    return "".join(lines)
