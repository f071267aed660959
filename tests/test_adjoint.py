import itertools

import numpy as np
import pytest

from carnotreach.adjoint import (
    TIE_TOL,
    AdjointCovector,
    RegimeReport,
    adjoint_flow,
    casimir,
    cyclic_k,
    maximizing_controls,
    normalize,
    switch_events_csv,
    switching_times,
    synthesize,
)
from carnotreach.words import InvariantViolation, Word, canonicalize


def random_triangle_covector(rng) -> AdjointCovector:
    """Normalized covector in the cyclic regime: h12, h23, h31 > 0, K > 0."""
    while True:
        h = (float(rng.uniform(-0.9, 0.9)), float(rng.uniform(-0.9, 0.9)), 1.0)
        h12, h23, h31 = rng.uniform(0.1, 2.0, 3)
        a = AdjointCovector.of(h, (h12, -h31, h23))
        if cyclic_k(a) > 0.05:
            return a


def test_casimir_examples():
    a = AdjointCovector.of((1, 0, 0), (1, 1, 1))
    # C = h1 h23 + h2 h31 + h3 h12 with h31 = -h13
    assert casimir(a) == 1.0
    b = AdjointCovector.of((1, 2, 3), (4, 5, 6))
    assert casimir(b) == 1 * 6 + 2 * (-5) + 3 * 4


def test_casimir_conserved_along_flows():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = AdjointCovector.of(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        letters = rng.integers(1, 4, 6)
        durs = rng.uniform(0, 2, 6)
        b = adjoint_flow(a, Word.of(zip(letters, durs)))
        assert abs(casimir(b) - casimir(a)) <= 1e-12 * max(1.0, abs(casimir(a)))


def test_maximizing_controls_and_normalize():
    a = AdjointCovector.of((1, 0.5, 0.2), (1, 1, 1))
    assert maximizing_controls(a) == (1,)
    assert maximizing_controls(AdjointCovector.of((1, 1, 0), (1, 1, 1))) == (1, 2)
    b = normalize(AdjointCovector.of((2, 1, 0), (4, 2, 2)))
    assert b.h == (1.0, 0.5, 0.0)
    assert b.skew == (2.0, 1.0, 1.0)
    with pytest.raises(InvariantViolation):
        normalize(AdjointCovector.of((-1, -2, -3), (1, 1, 1)))


def test_synthesize_arc_sign_convention():
    # from the vertex-adjacent face F3 with h12 = h23 = h31 = 1, the first
    # arc is (3, t): control e3 moves h1 down at rate h31 and h2 up at h23
    a = AdjointCovector.of((0.5, 0.8, 1.0), (1.0, -1.0, 1.0))
    word, report = synthesize(a, 0.1)
    assert word.arcs == ((3, 0.1),)
    assert report.kind == "bang-bang"
    assert report.K == cyclic_k(a)


def test_synthesize_cycles_through_faces():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_triangle_covector(rng)
        word, report = synthesize(a, 30.0)
        assert report.kind == "bang-bang"
        letters = [l for l, _ in word.arcs]
        assert set(letters) == {1, 2, 3}
        # the cycle is 3 -> 2 -> 1 -> 3 (descending mod 3)
        for cur, nxt in zip(letters, letters[1:]):
            assert nxt == (cur - 2) % 3 + 1


def test_switching_times_match_simulation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = random_triangle_covector(rng)
        taus = switching_times(a)
        word, _ = synthesize(a, 40.0)
        # interior arcs have steady per-face durations tau_{F_letter}
        for letter, dur in word.arcs[1:-1]:
            tau = taus[letter - 1]
            assert abs(dur - tau) <= 1e-10 * max(1.0, tau)


def test_switching_times_formula_values():
    a = AdjointCovector.of((1.0, 0.0, 0.0), (2.0, -0.5, 1.0))
    h12, h23, h31 = 2.0, 1.0, 0.5
    K = h12 + h23 + h31 - casimir(a)
    t1, t2, t3 = switching_times(a)
    assert abs(t1 - K / (h31 * h12)) <= 1e-15
    assert abs(t2 - K / (h12 * h23)) <= 1e-15
    assert abs(t3 - K / (h23 * h31)) <= 1e-15


def test_switching_times_rejects_wrong_regime():
    with pytest.raises(InvariantViolation):
        switching_times(AdjointCovector.of((1, 0, 0), (-1.0, -1.0, 1.0)))
    # K <= 0: C large enough to kill the cycle
    a = AdjointCovector.of((10.0, 1.0, 1.0), (1.0, -1.0, 1.0))
    assert casimir(a) > 3
    with pytest.raises(InvariantViolation):
        switching_times(a)


def test_synthesize_singular_regimes():
    # a horizon within TIE_TOL of 0 reports the start's regime too
    for horizon in (5.0, 0.0, TIE_TOL):
        # quadrant vertex with R = 0: the whole simplex maximizes forever
        w, rep = synthesize(AdjointCovector.of((1, 1, 1), (0, 0, 0)), horizon)
        assert w.arcs == ()
        assert rep.kind == "singular-vertex"
        assert rep.singular_letters == (1, 2, 3)

        # invariant edge {1, 2}: h12 = 0
        w, rep = synthesize(AdjointCovector.of((1, 1, 0), (0.0, -1.0, 1.0)), horizon)
        assert w.arcs == ()
        assert rep.kind == "singular-edge"
        assert rep.singular_letters == (1, 2)


def test_synthesize_mixed_regime():
    # one bang arc on F1, then h2 and h3 hit 1 together: quadrant vertex
    a = AdjointCovector.of((1.0, 0.5, 0.5), (-1.0, -1.0, 0.7))
    w, rep = synthesize(a, 10.0)
    assert rep.kind == "mixed"
    assert rep.singular_letters == (1, 2, 3)
    assert w.arcs == ((1, 0.5),)


def test_synthesize_input_validation():
    with pytest.raises(InvariantViolation):
        synthesize(AdjointCovector.of((0.5, 0.2, 0.1), (1, 1, 1)), 1.0)
    with pytest.raises(InvariantViolation):
        synthesize(AdjointCovector.of((1, 0, 0), (1, 1, 1)), -1.0)
    # inf - step stays inf, so an infinite horizon would append arcs forever
    # a string, a bool or an integer too large for a float is named too
    for horizon in (np.inf, np.nan, "3", True, 10**400):
        with pytest.raises(InvariantViolation) as exc:
            synthesize(AdjointCovector.of((1.0, 0.5, 0.5), (1.0, -1.0, 1.0)), horizon)
        assert exc.value.name == "horizon"


@pytest.mark.parametrize(
    "h, skew",
    [((1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, 1, 1)), ((np.nan, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, np.inf, 1))],
)
def test_covector_rejects_wrong_length_or_non_finite(h, skew):
    for make in (AdjointCovector, AdjointCovector.of):
        with pytest.raises(InvariantViolation) as exc:
            make(h, skew)
        assert exc.value.name == "covector"


@pytest.mark.parametrize(
    "h, skew",
    [(("1", True, 0.5), (0, 0, 0)), (5, (1, 1, 1)), ((1, 1, 1), None), ((1, 1, 1), (1, 10**400, 1))],
)
def test_covector_rejects_mistyped_entries(h, skew):
    for make in (AdjointCovector, AdjointCovector.of):
        with pytest.raises(InvariantViolation) as exc:
            make(h, skew)
        assert exc.value.name == "covector"


def test_covector_accepts_numpy_numbers():
    for make in (AdjointCovector, AdjointCovector.of):
        a = make(np.array([1.0, 0.5, 0.25]), (np.float32(1.0), np.int64(-1), 1))
        assert a == AdjointCovector((1.0, 0.5, 0.25), (1.0, -1.0, 1.0))
        # the raw constructor stores floats too, so no numpy scalar reaches the report
        _, report = synthesize(a, 3.0)
        assert type(report.casimir) is float
        assert type(report.K) is float
        assert all(type(v) is float for v in a.h + a.skew)
    # a tuple that already holds floats is stored as equal floats, signed zero included
    floats = (1.0, -0.0, 0.5)
    assert repr(AdjointCovector(floats, floats).skew) == repr(floats)


def test_switch_events_csv_shape():
    rng = np.random.default_rng(3)
    a = random_triangle_covector(rng)
    word, _ = synthesize(a, 10.0)
    csv = switch_events_csv(a, word)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,h1,h2,h3"
    assert len(lines) == len(word.arcs) + 2
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - 10.0) <= 1e-9
    # at every interior switch the running maximum of h equals 1
    for line in lines[2:-1]:
        _, h1, h2, h3 = (float(v) for v in line.split(","))
        assert abs(max(h1, h2, h3) - 1.0) <= 1e-9


def test_normalize_scales_ordinary_covectors_by_the_reciprocal():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = AdjointCovector.of(rng.uniform(0.01, 5.0, 3), rng.uniform(-5.0, 5.0, 3))
        s = 1.0 / max(a.h)
        assert normalize(a) == AdjointCovector(tuple(s * v for v in a.h), tuple(s * v for v in a.skew))


def test_normalize_divides_when_the_reciprocal_overflows():
    # 1 / 2^-1030 is inf, so scaling by it used to give (inf, inf, nan)
    b = normalize(AdjointCovector.of((2.0**-1030, 2.0**-1031, 0.0), (2.0**-1000, 0.0, -(2.0**-1030))))
    assert b == AdjointCovector((1.0, 0.5, 0.0), (2.0**30, 0.0, -1.0))
    for h, skew in (((5e-324, 0.0, 0.0), (1.0, 1.0, 1.0)), ((1e-310, 0.0, 0.0), (1e300, 1.0, 1.0))):
        with pytest.raises(InvariantViolation) as exc:
            normalize(AdjointCovector.of(h, skew))
        assert exc.value.name == "normalize-range"


def test_synthesize_bounds_the_number_of_arcs():
    a = AdjointCovector.of((0.5, 0.8, 1.0), (1.0, -1.0, 1.0))
    # a horizon that never runs down: each step is absorbed by 1e300
    with pytest.raises(InvariantViolation) as exc:
        synthesize(a, 1e300)
    assert exc.value.name == "switches"
    # horizons of 20 in the triangle regime stay far below the cap
    rng = np.random.default_rng(2)
    lengths = [len(synthesize(random_triangle_covector(rng), 20.0)[0].arcs) for _ in range(50)]
    assert 10 < max(lengths) <= 40


# ---------------------------------------------------------------- numpy references
# The numpy forms of synthesize, adjoint_flow and switch_events_csv, kept as
# references: the module computes on Python floats and must match them bit
# for bit, signed zeros included.


def reference_skew_matrix(a: AdjointCovector) -> np.ndarray:
    h12, h13, h23 = a.skew
    return np.array([[0.0, h12, h13], [-h12, 0.0, h23], [-h13, -h23, 0.0]])


def reference_adjoint_flow(a: AdjointCovector, w: Word) -> AdjointCovector:
    h = np.array(a.h)
    R = reference_skew_matrix(a)
    for letter, t in w.arcs:
        h = h + t * R[:, letter - 1]
    return AdjointCovector(tuple(h), a.skew)


def reference_synthesize(a: AdjointCovector, horizon: float):
    horizon = float(horizon)
    C = casimir(a)
    K = cyclic_k(a)
    h = np.array(a.h)
    R = reference_skew_matrix(a)
    arcs = []
    remaining = horizon

    def report(kind, letters=()):
        if kind == "singular" and arcs:
            kind = "mixed"
        elif kind == "singular":
            kind = "singular-edge" if len(letters) == 2 else "singular-vertex"
        return RegimeReport(kind, C, K, tuple(letters))

    while True:
        active = tuple(i + 1 for i in range(3) if h[i] >= 1.0 - TIE_TOL)
        if len(active) == 3:
            return canonicalize(Word.of(arcs)), report("singular", active)
        if len(active) == 2:
            i, j = active
            # the edge is invariant iff R_ij = 0; else e_i keeps h_j <= 1 iff R_ij >= 0
            if abs(R[i - 1, j - 1]) <= TIE_TOL:
                return canonicalize(Word.of(arcs)), report("singular", active)
            letter = i if R[i - 1, j - 1] >= 0 else j
        else:
            (letter,) = active
        # a horizon of 0 reports the start's regime
        if horizon <= TIE_TOL:
            break
        col = R[:, letter - 1]
        t_switch = np.inf
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
            arcs.append((letter, step))
            h = h + step * col
        remaining -= step
        if step == t_switch and nxt is not None:
            h[nxt] = 1.0
        if remaining <= TIE_TOL:
            break
    return canonicalize(Word.of(arcs)), report("bang-bang")


def reference_switch_events_csv(a: AdjointCovector, word: Word) -> str:
    h = np.array(a.h)
    R = reference_skew_matrix(a)
    t = 0.0
    lines = [f"t,h1,h2,h3\n{t!r},{float(h[0])!r},{float(h[1])!r},{float(h[2])!r}\n"]
    for letter, dur in word.arcs:
        h = h + dur * R[:, letter - 1]
        t += dur
        lines.append(f"{t!r},{float(h[0])!r},{float(h[1])!r},{float(h[2])!r}\n")
    return "".join(lines)


def triangle_cases(rng):
    """Normalized triangle-regime covectors with horizons that synthesize
    every arc count from 8 to 40."""
    cases, arc_counts = [], set()
    while len(arc_counts) < 33:
        a = normalize(random_triangle_covector(rng))
        target = int(rng.integers(8, 41))
        horizon = (target - 0.5) * sum(switching_times(a)) / 3.0
        n = len(reference_synthesize(a, horizon)[0].arcs)
        if 8 <= n <= 40 and n not in arc_counts:
            arc_counts.add(n)
            cases.append((a, horizon))
    return cases


def regime_cases(rng):
    """Covectors whose synthesis ends in each regime: skew entries drawn
    negative, zero (both signs) or positive, the three h entries often tied,
    and mixed words that reach the quadrant vertex after one arc."""
    cases = []
    for _ in range(300):
        skew = tuple(float(rng.choice([-1.0, -0.0, 0.0, 1.0]) * rng.uniform(0.3, 2.0)) for _ in range(3))
        h = tuple(float(rng.choice([1.0, rng.uniform(0.2, 1.0)])) for _ in range(3))
        cases.append((normalize(AdjointCovector.of(h, skew)), float(rng.uniform(0.5, 10.0))))
    for _ in range(20):
        # on F1, control e1 raises h2 and h3 at rates -h12 and -h13; both
        # reach 1 after tau, up to rounding within TIE_TOL
        tau, r2, r3 = rng.uniform(0.2, 2.0, 3)
        h = (1.0, float(1.0 - r2 * tau), float(1.0 - r3 * tau))
        cases.append((AdjointCovector.of(h, (-r2, -r3, rng.uniform(-2.0, 2.0))), tau + float(rng.uniform(0.1, 5.0))))
    return cases


def raw_cases(rng):
    """Covectors built raw from numpy float64 or int entries."""
    cases = []
    for a, horizon in triangle_cases(rng)[::4] + regime_cases(rng)[::4]:
        raw = AdjointCovector(tuple(np.float64(v) for v in a.h), tuple(np.float64(v) for v in a.skew))
        cases.append((raw, horizon))
    cases += [
        (AdjointCovector((1, 1, 1), (0, 0, 0)), 5.0),
        (AdjointCovector((1, 1, 0), (0, -1, 1)), 5.0),
        (AdjointCovector((1, -0.0, 0.5), (0, -1, 1)), 5.0),
        (AdjointCovector((1.0, 0.5, 0.5), (-1, -1, 0.7)), 10.0),
        (AdjointCovector((np.float64(0.5), np.float64(0.8), np.float64(1.0)), (1, -1, 1)), 7.0),
    ]
    return cases


def all_reference_cases():
    rng = np.random.default_rng(11)
    cases = triangle_cases(rng) + regime_cases(rng) + raw_cases(rng)
    # horizon 0 synthesizes the empty word and reports the start's regime
    cases += [(a, 0.0) for a, _ in cases[::7]]
    return cases


def reference_words(rng):
    """Words for the flows: section and non-section words, zero-duration
    arcs of both signs, and raw words built from int or float64 durations."""
    ws = [Word(()), Word(((2, 0.0),)), Word(((1, -0.0), (3, 0.0), (1, 0.25)))]
    for n in range(1, 25):
        letters = rng.integers(1, 4, n)
        durs = rng.uniform(0.0, 3.0, n)
        durs[rng.random(n) < 0.2] = 0.0
        durs[rng.random(n) < 0.1] = -0.0
        ws.append(Word.of(zip(letters, durs)))
        ws.append(Word(tuple((int(l), np.float64(t)) for l, t in zip(letters, durs))))
        ws.append(Word(tuple((int(l), int(round(t))) for l, t in zip(letters, durs))))
    return ws


def test_synthesize_matches_the_numpy_reference():
    kinds = set()
    for a, horizon in all_reference_cases():
        got = synthesize(a, horizon)
        assert repr(got) == repr(reference_synthesize(a, horizon))
        assert all(type(t) is float for _, t in got[0].arcs)
        kinds.add(got[1].kind)
    assert kinds == {"bang-bang", "singular-edge", "singular-vertex", "mixed"}


def signed_zero_covectors():
    """Raw covectors whose h entries are zeros of either sign and whose skew
    entries include zeros of either sign and an int zero."""
    skews = [(-0.0, 0.0, 0), (0.0, -0.0, -1.0), (1.5, 0, -0.0)]
    return [AdjointCovector(h, skew) for h in itertools.product((0.0, -0.0), repeat=3) for skew in skews]


def test_adjoint_flow_matches_the_numpy_reference():
    rng = np.random.default_rng(12)
    covectors = [a for a, _ in all_reference_cases()]
    covectors = covectors[:: max(1, len(covectors) // 12)] + signed_zero_covectors()
    ws = reference_words(rng) + [synthesize(a, horizon)[0] for a, horizon in all_reference_cases()[::3]]
    for w in ws:
        for a in covectors:
            got, want = adjoint_flow(a, w), reference_adjoint_flow(a, w)
            assert repr([float(v) for v in got.h]) == repr([float(v) for v in want.h])
            assert repr(got.skew) == repr(a.skew)


def test_switch_events_csv_matches_the_numpy_reference():
    for a, horizon in all_reference_cases():
        word, _ = synthesize(a, horizon)
        assert switch_events_csv(a, word) == reference_switch_events_csv(a, word)
    rng = np.random.default_rng(13)
    covectors = [random_triangle_covector(rng)] + signed_zero_covectors()
    for w in reference_words(rng):
        for a in covectors:
            assert switch_events_csv(a, w) == reference_switch_events_csv(a, w)


def test_adjoint_flow_and_the_switch_csv_carry_python_floats():
    rng = np.random.default_rng(15)
    covectors = [a for a, _ in raw_cases(rng)]
    for w in reference_words(rng):
        for a in covectors:
            b = adjoint_flow(a, w)
            assert all(type(v) is float for v in b.h)
            assert b.skew == a.skew and all(type(v) is float for v in b.skew)
        # the running time stays a float for int and numpy durations too
        assert "np." not in switch_events_csv(covectors[0], w)
