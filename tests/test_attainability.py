import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnotreach import attainability, boundary_atlas
from carnotreach.attainability import (
    ATTAINABLE_BEYOND,
    UNATTAINABLE_BEYOND,
    UNDECIDED,
    enumerate_patterns,
    exclusion_bound,
    fit,
    max_min_coordinate,
    probe,
)
from carnotreach.words import InvariantViolation, PqrPoint, Word, pqr, random_word

PHI = (np.sqrt(5.0) - 1.0) / 2.0
CUBE_SCAN_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cube_scan.json"


def test_enumerate_patterns_counts():
    # 3 * 2^(n-1) no-adjacent-repeat sequences, minus the 6 two-letter ones
    for n, expected in ((3, 6), (4, 18), (5, 42), (6, 90)):
        assert len([p for p in enumerate_patterns(n) if len(p) == n]) == expected
    for p in enumerate_patterns(5):
        assert set(p) == {1, 2, 3}
        assert all(a != b for a, b in zip(p, p[1:]))
    with pytest.raises(InvariantViolation):
        enumerate_patterns(2)


def test_fit_vertices_exactly():
    for target in (PqrPoint(1, 1, 0), PqrPoint(0, 0, 1), PqrPoint(1, 0, 0)):
        result = fit(target, max_arcs=3)
        assert result.status == "attained"
        assert result.residual <= 1e-12


def test_fit_returns_reproducing_witness():
    result = fit(PqrPoint(0.6, 0.5, 0.4), seed=1)
    assert result.status == "attained"
    got = pqr(result.witness).as_array()
    assert np.linalg.norm(got - [0.6, 0.5, 0.4]) == result.residual
    assert result.residual <= 1e-7


def test_fit_round_trip_hidden_words():
    rng = np.random.default_rng(0)
    for _ in range(30):
        w = random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        target = pqr(w)
        result = fit(target, tol=1e-8, n_starts=8, seed=int(rng.integers(2**31)))
        assert result.status == "attained"
        assert result.residual <= 1e-8


def test_fit_reports_not_found_outside():
    # the all-cyclic point beyond the golden bound is not attainable
    result = fit(PqrPoint(0.7, 0.7, 0.7), seed=0)
    assert result.status == "not-found"
    assert result.witness is None
    assert result.residual > 1e-3


def test_fit_monotone_in_max_arcs():
    target = PqrPoint(0.55, 0.45, 0.6)
    r5 = fit(target, max_arcs=5, tol=1e-16, seed=3, n_starts=4)
    r7 = fit(target, max_arcs=7, tol=1e-16, seed=3, n_starts=4)
    assert r7.residual <= r5.residual + 1e-15


def test_fit_deterministic():
    target = PqrPoint(0.52, 0.48, 0.5)
    a = fit(target, seed=7)
    b = fit(target, seed=7)
    assert a == b


def test_fit_validates_arguments():
    t = PqrPoint(0.5, 0.5, 0.5)
    with pytest.raises(InvariantViolation):
        fit(t, max_arcs=2)
    with pytest.raises(InvariantViolation):
        fit(t, tol=0.0)
    with pytest.raises(InvariantViolation):
        fit(t, n_starts=0)


def test_probe_directions():
    inward = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    center = PqrPoint(0.5, 0.5, 0.5)
    assert probe(center, inward, eps=0.05, max_arcs=6, n_starts=8) == ATTAINABLE_BEYOND
    golden = PqrPoint(PHI, PHI, PHI)
    assert probe(golden, inward, eps=1e-3, max_arcs=8) == UNATTAINABLE_BEYOND
    # leaving the cube is unattainable outright
    assert probe(PqrPoint(1.0, 0.5, 0.5), (1, 0, 0)) == UNATTAINABLE_BEYOND
    with pytest.raises(InvariantViolation):
        probe(center, inward, eps=0.0)


def test_interior_point_both_sides_attainable():
    x = PqrPoint(0.75, 0.5, 0.5)
    n = np.array([1.0, 0.5, 0.5])
    n = n / np.linalg.norm(n)
    kwargs = dict(max_arcs=6, n_starts=8, seed=0)
    assert probe(x, n, eps=1e-3, **kwargs) == ATTAINABLE_BEYOND
    assert probe(x, -n, eps=1e-3, **kwargs) == ATTAINABLE_BEYOND


def test_max_min_coordinate_golden():
    val, word = max_min_coordinate(max_arcs=5)
    assert abs(val - PHI) <= 1e-6
    pt = pqr(word)
    assert min(pt.p, pt.q, pt.r) >= val - 1e-9


def test_probe_rejects_non_finite_direction():
    center = PqrPoint(0.5, 0.5, 0.5)
    for direction in ((np.nan, 0.0, 0.0), (np.nan, 1e3, 0.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(InvariantViolation) as exc:
            probe(center, direction)
        assert exc.value.name == "direction-finite"


@given(st.integers(3, 10), st.integers(0, 2**31 - 1))
def test_screen_never_certifies_a_word(n_arcs, seed):
    bound, _ = exclusion_bound(pqr(random_word(n_arcs, seed)))
    assert bound <= 1e-12


def test_screen_equivariant_under_shift_and_reversal():
    rng = np.random.default_rng(11)
    certified = 0
    for x in rng.uniform(0.0, 1.0, size=(2000, 3)):
        bound, cert = exclusion_bound(PqrPoint(*x))
        certified += cert is not None
        for y in (np.roll(x, -1), 1.0 - x):
            other_bound, other_cert = exclusion_bound(PqrPoint(*y))
            assert other_cert == cert
            assert abs(other_bound - bound) <= 1e-12
    assert certified > 500


def test_screen_keeps_vertices_attained_at_tiny_tol():
    for v in boundary_atlas.vertices():
        result = fit(v.point, max_arcs=3, tol=1e-16)
        assert result.status == "attained"
        assert result.certificate is None


def test_screen_spares_points_within_tol_of_the_slab():
    tol = 1e-7
    diagonal = next(p for p in boundary_atlas.edge_families() if p.kind == "diagonal-edge")
    x = diagonal.point(0.4).as_array()
    assert abs(x.sum() - 1.0) <= 1e-12 or abs(x.sum() - 2.0) <= 1e-12
    # step tol/2 out of the slab through the two coordinates off the facet
    outward = -1.0 if abs(x.sum() - 1.0) <= 1e-12 else 1.0
    inner = (x > 1e-9) & (x < 1.0 - 1e-9)
    assert inner.sum() == 2
    x[inner] += outward * (tol / 2.0) * np.sqrt(3.0) / 2.0
    bound, _ = exclusion_bound(PqrPoint(*x))
    assert bound == pytest.approx(tol / 2.0, rel=1e-6)
    result = fit(PqrPoint(*x), max_arcs=4, tol=tol, n_starts=2)
    assert result.certificate is None
    assert result.starts_used > 0


def test_screen_certifies_cube_corners():
    # each corner violates both bounds; the certificate names the farther one
    cases = (
        (PqrPoint(0.7, 0.7, 0.7), "golden-bound", 0.7 - PHI),
        (PqrPoint(0.2, 0.2, 0.2), "sum-bound", 0.4 / np.sqrt(3.0)),
    )
    for target, cert, distance in cases:
        result = fit(target)
        assert result.status == "not-found"
        assert result.certificate == cert
        assert result.starts_used == 0
        assert result.residual == pytest.approx(distance, rel=1e-12)
        assert result.to_dict()["certificate"] == cert


def test_screen_spares_reference_attained_points():
    points = json.loads(CUBE_SCAN_REFERENCE.read_text())["points"]
    attained = [r for r in points if r["status"] == "attained"]
    assert len(attained) > 200
    for r in attained:
        assert exclusion_bound(PqrPoint(r["p"], r["q"], r["r"])) == (0.0, None)


def test_hint_far_from_target_falls_back_to_the_sweep():
    target = PqrPoint(0.5, 0.5, 0.5)
    vertex = boundary_atlas.vertices()[0].word
    plain = fit(target, max_arcs=4).to_dict()
    hinted = fit(target, max_arcs=4, hint=vertex).to_dict()
    assert hinted.pop("starts_used") > plain.pop("starts_used")
    assert hinted == plain


def test_hint_keeps_a_certified_target_certified():
    vertex = boundary_atlas.vertices()[0].word
    for target in (PqrPoint(0.7, 0.7, 0.7), PqrPoint(0.2, 0.2, 0.2)):
        hinted = fit(target, hint=vertex)
        assert hinted == fit(target)
        assert hinted.certificate is not None
        assert hinted.starts_used == 0


def test_hint_refines_nearby_targets_within_max_arcs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = random_word(int(rng.integers(3, 7)), int(rng.integers(2**31)))
        n_arcs = len(w.arcs)
        x = np.clip(pqr(w).as_array() + rng.normal(scale=1e-3, size=3), 0.0, 1.0)
        target = PqrPoint(*x)
        for max_arcs in (n_arcs + 1, n_arcs + 2):
            plain = fit(target, max_arcs=max_arcs, n_starts=6, seed=1)
            hinted = fit(target, max_arcs=max_arcs, n_starts=6, seed=1, hint=w)
            if plain.status == "attained":
                assert hinted.status == "attained"
            if hinted.status == "attained":
                assert len(hinted.witness.arcs) <= max_arcs
                assert hinted.residual <= 1e-7
                got = pqr(hinted.witness).as_array()
                assert np.linalg.norm(got - x) == hinted.residual


def test_hint_hit_counts_only_refinement_starts():
    # a 5-arc hint pads at 6 slots (4 inner letters + 2 at each end): 8 patterns, 2 starts each
    w = random_word(5, 3)
    result = fit(pqr(w), max_arcs=6, hint=w)
    assert result.status == "attained"
    assert result.starts_used == 16


def test_hint_must_be_a_section_word():
    target = PqrPoint(0.5, 0.5, 0.5)
    bad = (
        Word.of([(1, 0.5), (2, 1.0), (3, 1.0)]),
        Word.of([(1, 1.0), (2, 1.0)]),
        ((1, 1.0), (2, 1.0), (3, 1.0)),
    )
    for hint in bad:
        with pytest.raises(InvariantViolation) as exc:
            fit(target, hint=hint)
        assert exc.value.name == "hint"


def test_probe_maps_only_linear_algebra_failures_to_undecided(monkeypatch):
    center = PqrPoint(0.5, 0.5, 0.5)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(attainability, "fit", singular)
    assert probe(center, (1, 0, 0)) == UNDECIDED

    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(attainability, "fit", broken)
    with pytest.raises(TypeError):
        probe(center, (1, 0, 0))
