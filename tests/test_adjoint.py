import numpy as np
import pytest

from carnotreach.adjoint import (
    AdjointCovector,
    adjoint_flow,
    casimir,
    cyclic_k,
    maximizing_controls,
    normalize,
    switch_events_csv,
    switching_times,
    synthesize,
)
from carnotreach.words import InvariantViolation, Word


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
    # quadrant vertex with R = 0: the whole simplex maximizes forever
    w, rep = synthesize(AdjointCovector.of((1, 1, 1), (0, 0, 0)), 5.0)
    assert w.arcs == ()
    assert rep.kind == "singular-vertex"
    assert rep.singular_letters == (1, 2, 3)

    # invariant edge {1, 2}: h12 = 0
    w, rep = synthesize(AdjointCovector.of((1, 1, 0), (0.0, -1.0, 1.0)), 5.0)
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
    a = AdjointCovector.of(np.array([1.0, 0.5, 0.25]), (np.float32(1.0), np.int64(-1), 1))
    assert a == AdjointCovector((1.0, 0.5, 0.25), (1.0, -1.0, 1.0))
    assert all(type(v) is float for v in a.h + a.skew)


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
