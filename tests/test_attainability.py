import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnotreach import attainability, boundary_atlas, witness_table
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
from carnotreach.probability import dice_pqr, random_dice_triple
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
    # a NaN tol used to fail every `residual <= tol` and sweep to not-found
    for tol in (np.nan, np.inf):
        with pytest.raises(InvariantViolation) as exc:
            fit(t, tol=tol, max_arcs=4)
        assert exc.value.name == "tol"


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"max_arcs": 6.0}, "max-arcs"),
        ({"max_arcs": True}, "max-arcs"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": True}, "seed"),
        ({"n_starts": 2.5}, "n-starts"),
        ({"n_starts": True}, "n-starts"),
        ({"tol": "1e-7"}, "tol"),
        ({"tol": True}, "tol"),
    ],
)
def test_fit_rejects_mistyped_arguments(kwargs, name):
    # checked before the screen, so a certified target does not hide them
    for target in (PqrPoint(0.5, 0.5, 0.5), PqrPoint(0.7, 0.7, 0.7)):
        with pytest.raises(InvariantViolation) as exc:
            fit(target, **kwargs)
        assert exc.value.name == name


def test_fit_accepts_numpy_integers():
    result = fit(PqrPoint(1, 1, 0), max_arcs=np.int64(3), seed=np.int64(2), n_starts=np.int32(2), tol=np.float64(1e-9))
    assert result == fit(PqrPoint(1, 1, 0), max_arcs=3, seed=2, n_starts=2, tol=1e-9)


def test_fit_bounds_the_solver_size():
    t = PqrPoint(0.5, 0.5, 0.5)
    # 24570 patterns of 14 arcs with 20 starts: about 0.8 GB per (P, S, n, n) array
    for kwargs in ({"max_arcs": 14}, {"max_arcs": 11}, {"max_arcs": 8, "n_starts": 200}):
        with pytest.raises(InvariantViolation) as exc:
            fit(t, **kwargs)
        assert exc.value.name == "solver-size"
    # the certificate does not come before the size check
    with pytest.raises(InvariantViolation):
        fit(PqrPoint(0.7, 0.7, 0.7), max_arcs=14)
    # max_arcs 10 with the default 20 starts is admitted; so is a 3-arc sweep at any start count
    assert fit(t, max_arcs=10, tol=0.5).status == "attained"
    assert fit(t, max_arcs=3, n_starts=10**9).starts_used == 6


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


@pytest.mark.parametrize("max_arcs", [3, 4, 5, 8])
def test_max_min_coordinate_golden(max_arcs):
    val, word = max_min_coordinate(max_arcs)
    assert val == {3: 0.0, 4: 0.5}.get(max_arcs, PHI)
    pt = pqr(word)  # raises unless word is a section word
    assert min(pt.p, pt.q, pt.r) == val
    assert len(word.arcs) <= max_arcs


def test_max_min_coordinate_rejects_fewer_than_three_arcs():
    with pytest.raises(InvariantViolation) as exc:
        max_min_coordinate(2)
    assert exc.value.name == "max-arcs"


def test_probe_rejects_a_direction_of_the_wrong_shape():
    center = PqrPoint(0.5, 0.5, 0.5)
    for direction in ((1, 0), (1, 0, 0, 0), ((1, 0, 0),), 1.0):
        with pytest.raises(InvariantViolation) as exc:
            probe(center, direction)
        assert exc.value.name == "direction-shape"


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


def _digest(results) -> str:
    return hashlib.sha256(json.dumps([r.to_dict() for r in results]).encode()).hexdigest()


def _pool_points(attained: bool, count: int) -> list[PqrPoint]:
    """The first `count` attained, or unscreened not-found, reference pool points."""
    points = []
    for r in json.loads(CUBE_SCAN_REFERENCE.read_text())["points"]:
        x = PqrPoint(r["p"], r["q"], r["r"])
        if (r["status"] == "attained") == attained and exclusion_bound(x)[1] is None:
            points.append(x)
    return points[:count]


def _eight_start_round_trips() -> list:
    rng = np.random.default_rng(17)
    results = []
    for _ in range(24):
        w = random_word(int(rng.integers(3, 9)), int(rng.integers(2**31)))
        results.append(fit(pqr(w), n_starts=8, seed=int(rng.integers(2**31))))
    return results


@pytest.fixture
def no_table(monkeypatch):
    """A hint-less `fit` goes straight to the sweep, as before the witness table."""
    monkeypatch.setattr(attainability, "_table_word", lambda x, max_arcs: None)


# sha256 of json.dumps([fit(...).to_dict(), ...]) with the table lookup off,
# recorded before the Gauss-Newton loop retired frozen starts and reused
# rejected normal equations: the sweep's bytes
def test_fit_bytes_on_attained_pool_points(no_table):
    results = [fit(x) for x in _pool_points(True, 12)]
    assert _digest(results) == "663f0c2fc438341a4eac1835db51d2e7f38bb031553761626e2111ab90a3b5b5"


def test_fit_bytes_on_unscreened_not_found_pool_points(no_table):
    results = [fit(x) for x in _pool_points(False, 2)]
    assert [r.status for r in results] == ["not-found", "not-found"]
    assert _digest(results) == "fcd06a6c9e7a1499460e1dfefe50bf4ddfefdccc5a9897d88f0e0ca4e608494d"


def test_fit_bytes_with_eight_starts(no_table):
    assert _digest(_eight_start_round_trips()) == "84ac50a18ff9db39cc85780ab04d34b8e898bee0c6e769f2185e823c8a88ad17"


# the same calls at defaults, which refine the nearest witness-table word first;
# recorded when the table was added
def test_table_fit_bytes_on_attained_pool_points():
    results = [fit(x) for x in _pool_points(True, 12)]
    assert _digest(results) == "03b126b62a80044ff70eb50321a57a2d66a51b0bd2da8404015af2d3496ba5f1"


def test_table_fit_bytes_on_unscreened_not_found_pool_points():
    results = [fit(x) for x in _pool_points(False, 2)]
    assert [r.status for r in results] == ["not-found", "not-found"]
    assert _digest(results) == "b7dff607b8bc3e23f500424cf0cf3e6add2bd44cf2dd3570d17d358fc0a39a94"


def test_table_fit_bytes_with_eight_starts():
    assert _digest(_eight_start_round_trips()) == "590334967edda2f618ad51889ed83cfadf741a9af50f674c4475f86216040cbd"


def test_table_settles_the_attained_pool_points(monkeypatch):
    # every attained reference point stays attained, nearly all by refining the table word
    hits = []
    refine = attainability._refine

    def recording_refine(hint, target, max_arcs, tol, seed):
        out = refine(hint, target, max_arcs, tol, seed)
        hits.append(out[0] <= tol)
        return out

    monkeypatch.setattr(attainability, "_refine", recording_refine)
    points = [r for r in json.loads(CUBE_SCAN_REFERENCE.read_text())["points"] if r["status"] == "attained"]
    assert len(points) == 258
    for r in points:
        result = fit(PqrPoint(r["p"], r["q"], r["r"]))
        assert result.status == "attained" and result.residual <= attainability.DEFAULT_TOL
    assert len(hits) == 258
    assert sum(hits) >= 250


def test_table_word_fits_under_max_arcs(monkeypatch):
    # a target on a six-arc table word: at max_arcs 6 its first padding would
    # have 7 arcs, so the lookup passes over it and a five-arc word is refined
    table = witness_table.load()
    arcs = (table.letters > 0).sum(axis=1)
    row = next(
        row
        for row in np.flatnonzero(arcs == 6)
        if len(witness_table.nearest(table.points[row], 6).arcs) == 5
    )
    target = PqrPoint(*table.points[row])
    assert witness_table.nearest(target.as_array(), 8) == table.word(row)
    refined = []
    refine = attainability._refine
    monkeypatch.setattr(attainability, "_refine", lambda hint, *args: refined.append(hint) or refine(hint, *args))
    result = fit(target, max_arcs=6)
    assert [len(w.arcs) for w in refined] == [5]
    assert result.status == "attained" and len(result.witness.arcs) <= 6


def test_table_refines_only_without_a_hint(monkeypatch):
    looked_up = []
    lookup = attainability._table_word
    monkeypatch.setattr(attainability, "_table_word", lambda x, max_arcs: looked_up.append(x) or lookup(x, max_arcs))
    target = PqrPoint(0.6, 0.5, 0.4)
    hinted = fit(target, hint=random_word(5, 3))
    assert looked_up == []
    plain = fit(target)
    assert len(looked_up) == 1
    assert hinted.status == plain.status == "attained"
    # a certified target is settled before any lookup
    fit(PqrPoint(0.7, 0.7, 0.7))
    assert len(looked_up) == 1


def test_fit_bytes_on_hinted_probes():
    results = []
    for patch in boundary_atlas.quadric_patches() + boundary_atlas.flat_triangles():
        for _, w, point in patch.sample_grid(4):
            x = point.as_array()
            for side in (1.0, -1.0):
                y = x + side * 1e-3 * patch.outward(x)
                if (y >= 0.0).all() and (y <= 1.0).all():
                    results.append(fit(PqrPoint(*y), max_arcs=6, n_starts=6, hint=w))
    assert len(results) == 174
    assert _digest(results) == "325ee25b51b725e87ea837fe3c2d293f83118e8549abbe98e40e2eaff1689c22"


def _dense_gauss_newton(pat, t, target, tol, iters=attainability.GN_ITERS):
    """Reference: every start iterates to the end, normal equations rebuilt each time."""
    M = attainability._pair_masks(pat)
    Msym = M + M.transpose(0, 1, 3, 2)
    onehot = attainability._letter_onehot(pat)
    counts = onehot.sum(axis=2)
    rcur = np.einsum("pklm,psl,psm->psk", M, t, t) - target
    fcur = np.einsum("psk,psk->ps", rcur, rcur)
    lam = np.full(fcur.shape, 1e-3)
    for _ in range(iters):
        J = attainability._tangent_project(np.einsum("pklm,psm->pskl", Msym, t), onehot, counts)
        A = np.einsum("pskl,pskm->pslm", J, J) + lam[..., None, None] * np.eye(pat.shape[1])
        d = -np.linalg.solve(A, np.einsum("pskl,psk->psl", J, rcur)[..., None])[..., 0]
        t_trial = attainability._renormalize(t + attainability._tangent_project(d, onehot, counts), onehot)
        r_trial = np.einsum("pklm,psl,psm->psk", M, t_trial, t_trial) - target
        f_trial = np.einsum("psk,psk->ps", r_trial, r_trial)
        accept = f_trial < fcur
        t = np.where(accept[..., None], t_trial, t)
        rcur = np.where(accept[..., None], r_trial, rcur)
        fcur = np.where(accept, f_trial, fcur)
        lam = np.clip(np.where(accept, lam * 0.3, lam * 5.0), 1e-14, 1e10)
        if fcur.min() <= (tol * tol) * 1e-4:
            break
    return t, fcur


def _assert_matches_the_dense_reference(target):
    rng = np.random.default_rng(8)
    for n in (4, 5, 6):
        pat = np.array(attainability._patterns_of_length(n))
        t0 = attainability._renormalize(rng.gamma(1.0, size=(len(pat), 6, n)), attainability._letter_onehot(pat))
        for tol in (1e-7, 1e-300):
            got = attainability._gauss_newton(pat, t0, np.array(target), tol)
            want = _dense_gauss_newton(pat, t0, np.array(target), tol)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("target", [(0.36, 0.24, 0.45), (0.6, 0.5, 0.4)])
def test_gauss_newton_matches_the_dense_reference(target):
    _assert_matches_the_dense_reference(target)


@pytest.mark.parametrize("target", [(0.36, 0.24, 0.45), (0.6, 0.5, 0.4)])
def test_sliced_gauss_newton_matches_the_dense_reference(monkeypatch, target):
    # 37 starts per slice splits every batch (108 to 540 starts) into several
    # slices, the last one short
    monkeypatch.setattr(attainability, "GN_CHUNK", 37)
    _assert_matches_the_dense_reference(target)


def test_gauss_newton_ends_once_every_start_is_frozen(monkeypatch):
    # at length 4 every start of this not-found target reaches the damping cap
    pat = np.array(attainability._patterns_of_length(4))
    rng = np.random.default_rng(3)
    t0 = attainability._renormalize(rng.gamma(1.0, size=(len(pat), 20, 4)), attainability._letter_onehot(pat))
    target = np.array([0.36, 0.24, 0.45])
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solves.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    t, f = attainability._gauss_newton(pat, t0, target, 1e-7)
    assert len(solves) < attainability.GN_ITERS
    assert np.sqrt(f.min()) > 1e-3
    t_more, f_more = attainability._gauss_newton(pat, t0, target, 1e-7, iters=attainability.GN_ITERS + 20)
    assert np.array_equal(t, t_more) and np.array_equal(f, f_more)


def test_gauss_newton_fallback_step_reaches_retired_starts(monkeypatch):
    # a failed solve gives every start the step -g, retired starts too; two
    # failures forced after starts begin to retire (from the 26th solve on)
    # must leave the arrays that iterating every start gives (digest recorded
    # with the loop that iterated every start, as one slice)
    monkeypatch.setattr(attainability, "GN_CHUNK", 1024)
    pat = np.array(attainability._patterns_of_length(5))
    rng = np.random.default_rng(3)
    t0 = attainability._renormalize(rng.gamma(1.0, size=(len(pat), 20, 5)), attainability._letter_onehot(pat))
    calls = []
    solve = np.linalg.solve

    def failing_solve(a, b):
        calls.append(len(a))
        if len(calls) in (30, 45):
            raise np.linalg.LinAlgError("forced")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    target = np.array([0.36, 0.24, 0.45])
    t, f = attainability._gauss_newton(pat, t0, target, 1e-7, iters=attainability.GN_ITERS + 20)
    assert len(calls) < attainability.GN_ITERS + 20
    digest = hashlib.sha256(t.tobytes() + f.tobytes()).hexdigest()
    assert digest == "ce154e377ec0ee58b2276382d201ccae77f7cbabef525f000ee2acbe865e927d"


def _gauss_newton_failing_at(monkeypatch, chunk, failures, pat, t0, target, iters):
    """`_gauss_newton` with GN_CHUNK = chunk, raising LinAlgError in the solve
    of each (iteration, slice) in `failures`; returns the arrays and the
    failures hit.  An iteration's solves all come before its trials, which
    call `_renormalize`, so a solve after a trial starts the next iteration."""
    monkeypatch.setattr(attainability, "GN_CHUNK", chunk)
    solve, renormalize = np.linalg.solve, attainability._renormalize
    at = {"iteration": -1, "slice": 0, "trials": True}
    hit = []

    def failing_solve(a, b):
        if at["trials"]:
            at.update(iteration=at["iteration"] + 1, slice=0, trials=False)
        else:
            at["slice"] += 1
        if (at["iteration"], at["slice"]) in failures:
            hit.append((at["iteration"], at["slice"]))
            raise np.linalg.LinAlgError("forced")
        return solve(a, b)

    def tracking_renormalize(*args):
        at["trials"] = True
        return renormalize(*args)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    monkeypatch.setattr(attainability, "_renormalize", tracking_renormalize)
    try:
        t, f = attainability._gauss_newton(pat, t0, target, 1e-7, iters=iters)
    finally:
        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(attainability, "_renormalize", renormalize)
    return t, f, hit


def test_gauss_newton_failure_in_a_later_slice_matches_one_slice(monkeypatch):
    # 840 starts in slices of 100: failures in the second slice of iteration 30,
    # once starts have begun to retire, and in the third slice of iteration 45
    # give the arrays of one slice failing in the same iterations
    pat = np.array(attainability._patterns_of_length(5))
    rng = np.random.default_rng(3)
    t0 = attainability._renormalize(rng.gamma(1.0, size=(len(pat), 20, 5)), attainability._letter_onehot(pat))
    target = np.array([0.36, 0.24, 0.45])
    iters = attainability.GN_ITERS + 20
    sliced = _gauss_newton_failing_at(monkeypatch, 100, {(30, 1), (45, 2)}, pat, t0, target, iters)
    whole = _gauss_newton_failing_at(monkeypatch, 1024, {(30, 0), (45, 0)}, pat, t0, target, iters)
    assert sliced[2] == [(30, 1), (45, 2)]
    assert whole[2] == [(30, 0), (45, 0)]
    assert np.array_equal(sliced[0], whole[0]) and np.array_equal(sliced[1], whole[1])
    unfailed = attainability._gauss_newton(pat, t0, target, 1e-7, iters=iters)
    assert not np.array_equal(sliced[0], unfailed[0])


def test_gauss_newton_memory_is_bounded_by_the_normal_equations():
    # every eight-arc pattern with 20 starts, the largest batch of a default sweep:
    # the stored normal equations JtJ dominate the traced peak
    pat = np.array(attainability._patterns_of_length(8))
    S, n = 20, 8
    rng = np.random.default_rng(4)
    t0 = attainability._renormalize(rng.gamma(1.0, size=(len(pat), S, n)), attainability._letter_onehot(pat))
    jtj_bytes = len(pat) * S * n * n * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        attainability._gauss_newton(pat, t0, np.array([0.36, 0.24, 0.45]), 1e-7, iters=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.5 * jtj_bytes


# Conjecture Q: a point of the cube is attainable iff neither all three even
# quadrics nor all three odd ones are positive.  Evidence only: nothing in
# the library certifies with it.
Q_MARGIN = 1e-9


def _quadrics(x) -> tuple[np.ndarray, np.ndarray]:
    """The even quadrics (p + qr - 1, q + rp - 1, r + pq - 1) at x, and the
    odd ones, the same expressions at 1 - x."""
    x = np.asarray(x, dtype=float)
    even = x + np.roll(x, -1) * np.roll(x, -2) - 1.0
    y = 1.0 - x
    odd = y + np.roll(y, -1) * np.roll(y, -2) - 1.0
    return even, odd


def _q_excludes(x) -> bool:
    even, odd = _quadrics(x)
    return bool(even.min() > Q_MARGIN or odd.min() > Q_MARGIN)


def test_quadrics_are_the_atlas_patch_equations():
    rng = np.random.default_rng(12)
    for x in rng.uniform(0.0, 1.0, size=(50, 3)):
        even, odd = _quadrics(x)
        equations = [patch.equation(x) for patch in boundary_atlas.quadric_patches()]
        assert np.allclose(even, equations[:3], rtol=0, atol=1e-15)
        assert np.allclose(odd, equations[3:], rtol=0, atol=1e-15)


def test_conjecture_q_separates_the_reference_pool():
    points = json.loads(CUBE_SCAN_REFERENCE.read_text())["points"]
    verdicts = [(r["status"], _q_excludes((r["p"], r["q"], r["r"]))) for r in points]
    assert sorted(set(verdicts)) == [("attained", False), ("not-found", True)]
    assert sum(status == "attained" for status, _ in verdicts) == 258
    assert sum(status == "not-found" for status, _ in verdicts) == 142


@given(st.integers(3, 10), st.integers(0, 2**31 - 1))
def test_conjecture_q_admits_every_word(n_arcs, seed):
    assert not _q_excludes(pqr(random_word(n_arcs, seed)).as_array())


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_conjecture_q_admits_every_dice_triple(atoms_max, seed):
    dice = random_dice_triple(atoms_max, np.random.default_rng(seed))
    assert not _q_excludes(dice_pqr(*dice).as_array())


def test_conjecture_q_admits_every_strata_sample():
    patches = boundary_atlas.edge_families() + boundary_atlas.flat_triangles() + boundary_atlas.quadric_patches()
    points = [v.point for v in boundary_atlas.vertices()]
    points += [point for patch in patches for _, _, point in patch.sample_grid(5)]
    assert len(points) == 366
    assert not any(_q_excludes(point.as_array()) for point in points)


@pytest.mark.parametrize("resolution", [3, 5])
def test_conjecture_q_trims_the_atlas_like_the_solver(resolution):
    mesh = boundary_atlas.trim_and_mesh(resolution, eps=1e-3)

    def attainable_beyond(x, direction):
        # the probe's cube rule, then Q in place of fit
        y = x + 1e-3 * direction
        if (y < -1e-12).any() or (y > 1.0 + 1e-12).any():
            return False
        return not _q_excludes(np.clip(y, 0.0, 1.0))

    patches = {patch.id: patch for patch in boundary_atlas.quadric_patches() + boundary_atlas.flat_triangles()}
    for sample in mesh.samples:
        x = np.array(sample.point)
        n = patches[sample.patch_id].outward(x)
        assert sample.boundary == (not attainable_beyond(x, n) and attainable_beyond(x, -n))
    assert len(mesh.samples) == 12 * resolution**2


# the 3-cycle 1 -> 2 -> 3 -> 1 and the transposition (1 2) of the letters,
# with their action on (p, q, r)
CYCLE = ({1: 2, 2: 3, 3: 1}, lambda x: np.roll(x, 1))
SWAP = ({1: 2, 2: 1, 3: 3}, lambda x: 1.0 - x[[0, 2, 1]])


def test_letter_permutations_preserve_conjecture_q():
    (_, cycle), (_, swap) = CYCLE, SWAP
    rng = np.random.default_rng(13)
    for x in rng.uniform(0.0, 1.0, size=(200, 3)):
        even, odd = _quadrics(x)
        cycled_even, cycled_odd = _quadrics(cycle(x))
        assert np.allclose(np.sort(cycled_even), np.sort(even), rtol=0, atol=1e-15)
        assert np.allclose(np.sort(cycled_odd), np.sort(odd), rtol=0, atol=1e-15)
        # the transposition swaps the even triple with the odd one
        swapped_even, swapped_odd = _quadrics(swap(x))
        assert np.allclose(np.sort(swapped_even), np.sort(odd), rtol=0, atol=1e-15)
        assert np.allclose(np.sort(swapped_odd), np.sort(even), rtol=0, atol=1e-15)


def test_fit_status_is_invariant_under_letter_permutations():
    for seed in range(4):
        w = random_word(5, seed)
        for perm, act in (CYCLE, SWAP):
            image = Word.of((perm[l], t) for l, t in w.arcs)
            assert np.abs(pqr(image).as_array() - act(pqr(w).as_array())).max() <= 1e-12
            assert fit(pqr(w)).status == fit(pqr(image)).status == "attained"
