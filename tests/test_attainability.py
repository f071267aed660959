import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carnotreach import attainability, boundary_atlas
from carnotreach.attainability import (
    closed_form_word,
    enumerate_patterns,
    exclusion_bound,
    fit,
    max_min_coordinate,
)
from carnotreach.probability import dice_pqr, random_dice_triple
from carnotreach.words import (
    LETTERS,
    PQR_PAIRS,
    InvariantViolation,
    PqrPoint,
    Word,
    precedence,
    pqr,
    q_margin,
    quadric,
    random_word,
    reverse,
    word_to_dict,
)

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


def _scanned_patterns(n):
    # the reference: every 3^n letter sequence, filtered
    return tuple(
        seq
        for seq in product(LETTERS, repeat=n)
        if all(seq[i] != seq[i + 1] for i in range(n - 1)) and set(seq) == set(LETTERS)
    )


@pytest.mark.parametrize("n", range(3, 11))
def test_pattern_tables_equal_the_full_scan(n):
    patterns = attainability._patterns_of_length(n)
    assert patterns == _scanned_patterns(n)
    assert len(patterns) == 3 * 2 ** (n - 1) - 6


def test_enumerate_patterns_is_bounded_before_it_builds(monkeypatch):
    # the pattern maps of the longest batch, P * 3n^2 entries at one start:
    # 6138 * 432 = 2,651,616 at 12 arcs, 12282 * 507 = 6,226,974 at 13
    built = []
    monkeypatch.setattr(attainability, "_patterns_of_length", lambda n: built.append(n) or ())
    for max_arcs in (13, 20, 64):
        with pytest.raises(InvariantViolation) as exc:
            enumerate_patterns(max_arcs)
        assert exc.value.name == "solver-size"
        assert str(exc.value).startswith(f"enumerate_patterns(max_arcs={max_arcs}) ")
    assert built == []
    enumerate_patterns(12)
    assert built == list(range(3, 13))


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
        ({"tol": 10**400}, "tol"),
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
    # the largest array is the stored Jacobians, P * S * 3n entries: 6138
    # patterns of 12 arcs with 20 starts hold 4,419,360, 378 patterns of 8
    # arcs with 600 starts 5,443,200, both above the cap of 2^22
    for kwargs in ({"max_arcs": 14}, {"max_arcs": 12}, {"max_arcs": 8, "n_starts": 600}):
        with pytest.raises(InvariantViolation) as exc:
            fit(t, **kwargs)
        assert exc.value.name == "solver-size"
    # the certificate does not come before the size check
    with pytest.raises(InvariantViolation):
        fit(PqrPoint(0.7, 0.7, 0.7), max_arcs=14)
    # max_arcs 11 with the default 20 starts (2,023,560 entries) is admitted;
    # so is a 3-arc sweep at any start count
    assert fit(t, max_arcs=11, tol=0.5).status == "attained"
    assert fit(t, max_arcs=3, n_starts=10**9).starts_used == 6


def test_probe_directions():
    inward = (np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)).tolist()
    assert boundary_atlas._attainable_beyond(PqrPoint(0.5, 0.5, 0.5), inward) is True
    golden = PqrPoint(PHI, PHI, PHI)
    assert boundary_atlas._attainable_beyond(golden, inward) is False
    # leaving the cube is unattainable outright
    assert boundary_atlas._attainable_beyond(PqrPoint(1.0, 0.5, 0.5), [1.0, 0.0, 0.0]) is False


def test_interior_point_both_sides_attainable():
    x = np.array([0.75, 0.5, 0.5])
    n = np.array([1.0, 0.5, 0.5])
    n = n / np.linalg.norm(n)
    for y in (x + 1e-3 * n, x - 1e-3 * n):
        assert fit(PqrPoint(*y), max_arcs=6, n_starts=8, seed=0).status == "attained"


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
        result = fit(v.point(), max_arcs=3, tol=1e-16)
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


def test_probe_propagates_solver_errors(monkeypatch):
    center = PqrPoint(0.5, 0.5, 0.5)
    # a probe has two verdicts: no error of `fit`, not even a linear algebra one, becomes one
    for error in (np.linalg.LinAlgError, TypeError):

        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(attainability, "fit", broken)
        with pytest.raises(error):
            boundary_atlas._attainable_beyond(center, [1.0, 0.0, 0.0])


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
def no_closed_form(monkeypatch):
    """`fit` goes straight to the sweep, as for a cap below 6 arcs."""
    monkeypatch.setattr(attainability, "closed_form_word", lambda point: None)


def _verdicts(results) -> list[tuple[str, int]]:
    return [(r.status, r.starts_used) for r in results]


# (status, starts_used) of the eight-start round trips with the closed form off
EIGHT_START_SWEEP_STARTS = [
    1206, 6, 486, 150, 1206, 486, 6, 150, 6, 1206, 150, 1206,
    150, 150, 1206, 1206, 1206, 486, 1206, 486, 150, 486, 150, 486,
]


# sha256 of json.dumps([fit(...).to_dict(), ...]) with the closed form off:
# the sweep's bytes.  The solver's matrix products go through the BLAS, so
# these digests hold for the OpenBLAS kernel of the CPU they were recorded on
# (SkylakeX); another kernel may move the last bits of residuals and durations.
# Each test asserts its verdict list first, which holds on any kernel
def test_fit_bytes_on_attained_pool_points(no_closed_form):
    results = [fit(x) for x in _pool_points(True, 12)]
    assert _verdicts(results) == [("attained", 3006)] * 12
    assert _digest(results) == "a4d903c25326c13eef3eada243162894a7a351ffd9ef88bc8f55a89e75c29c14"


def test_fit_bytes_on_unscreened_not_found_pool_points(no_closed_form):
    results = [fit(x) for x in _pool_points(False, 2)]
    assert _verdicts(results) == [("not-found", 14286)] * 2
    assert _digest(results) == "bbb2e35fdf65b706d2fc8ea678ceffdf41951c97ff560cc0e97f1cc860ab8d7b"


def test_fit_bytes_with_eight_starts(no_closed_form):
    results = _eight_start_round_trips()
    assert _verdicts(results) == [("attained", n) for n in EIGHT_START_SWEEP_STARTS]
    assert _digest(results) == "73c3781ede741a1cbc33745e57ef29c5fffdb5c1cc9affa95fea98762530d5a4"


# the same calls at defaults, which try the closed-form word before the sweep
# (the "table" in the names is the witness-table lookup that the closed form replaced).
# Attained results then come from `closed_form_word` in Python floats, so
# their bytes hold on any CPU; the not-found ones are the sweep's
def test_table_fit_bytes_on_attained_pool_points():
    results = [fit(x) for x in _pool_points(True, 12)]
    assert _verdicts(results) == [("attained", 0)] * 12
    assert _digest(results) == "14fc56020785f0cdd5a7ab363795840bd4dac7594daee8e642aa4698340332be"


def test_table_fit_bytes_on_unscreened_not_found_pool_points():
    # the closed form finds no word for a not-found point, so the sweep's bytes are unchanged
    results = [fit(x) for x in _pool_points(False, 2)]
    assert _verdicts(results) == [("not-found", 14286)] * 2
    assert _digest(results) == "bbb2e35fdf65b706d2fc8ea678ceffdf41951c97ff560cc0e97f1cc860ab8d7b"


def test_table_fit_bytes_with_eight_starts():
    results = _eight_start_round_trips()
    assert _verdicts(results) == [("attained", 0)] * 24
    assert _digest(results) == "0350f168e5873eb90e73abbd3efde4346fd757383862b3641f16a678e6b5daf3"


def test_closed_form_settles_the_attained_pool_points():
    # every attained reference point gets a closed-form word, and no not-found one does
    points = json.loads(CUBE_SCAN_REFERENCE.read_text())["points"]
    assert len(points) == 400
    for r in points:
        target = PqrPoint(r["p"], r["q"], r["r"])
        word = closed_form_word(target)
        assert (word is not None) == (r["status"] == "attained")
        if word is not None:
            result = fit(target)
            assert (result.status, result.starts_used, result.witness) == ("attained", 0, word)
            assert result.residual <= attainability.DEFAULT_TOL


def test_fit_bytes_on_atlas_probes():
    # pins `fit` at the old atlas settings on the atlas's probe points; the
    # atlas itself no longer sweeps (tests/test_boundary_atlas.py)
    results = []
    for patch in boundary_atlas.quadric_patches() + boundary_atlas.flat_triangles():
        for _, _, point in patch.sample_grid(4):
            x = point.as_array()
            for side in (1.0, -1.0):
                y = x + side * 1e-3 * patch.outward(x)
                if (y >= 0.0).all() and (y <= 1.0).all():
                    results.append(fit(PqrPoint(*y), max_arcs=6, n_starts=6))
    assert len(results) == 174
    # each quadric patch, then each flat triangle, gives the same verdicts;
    # 906 starts are a 6-start sweep, the last not-found of each a sum-bound certificate
    attained, swept, certified = ("attained", 0), ("not-found", 906), ("not-found", 0)
    quadric = [attained] * 4 + [swept] + [attained] * 7 + [certified]
    flat = [attained] * 15 + [certified]
    assert _verdicts(results) == quadric * 6 + flat * 6
    assert _digest(results) == "723fe8c2b51322aeaac7fa2f868adb133dff57df06978929c5e228c251160ca7"


# (status, starts_used, residual to 12 significant digits) of every unscreened
# not-found reference pool point at defaults.  The residuals are the sweep's,
# so their last bits follow the BLAS kernel; 12 digits hold under the
# default, Sandybridge and Haswell OpenBLAS kernels
NOT_FOUND_POOL_PINS = [
    ("not-found", 14286, "0.025222918259"),
    ("not-found", 14286, "0.0241377452944"),
    ("not-found", 14286, "0.0110256456833"),
    ("not-found", 14286, "0.0415443355862"),
    ("not-found", 14286, "0.0228929356596"),
    ("not-found", 14286, "0.00834467140229"),
    ("not-found", 14286, "0.0134285763097"),
    ("not-found", 14286, "0.0122871634226"),
    ("not-found", 14286, "0.00964237055209"),
]


def _rounded_verdicts(results) -> list[tuple[str, int, str]]:
    return [(r.status, r.starts_used, f"{r.residual:.12g}") for r in results]


def test_fit_residuals_on_every_unscreened_not_found_pool_point():
    points = _pool_points(False, 400)
    assert len(points) == len(NOT_FOUND_POOL_PINS)
    assert _rounded_verdicts([fit(x) for x in points]) == NOT_FOUND_POOL_PINS


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OpenBLAS core types are x86_64 kernels")
@pytest.mark.parametrize("coretype", ["Sandybridge", "Haswell"])
def test_fit_residuals_hold_under_other_blas_kernels(coretype):
    # the first two pins, rerun in a child process whose OpenBLAS is forced to another kernel
    points = [(float(x.p), float(x.q), float(x.r)) for x in _pool_points(False, 2)]
    script = "\n".join([
        "from carnotreach.attainability import fit",
        "from carnotreach.words import PqrPoint",
        f"for x in {points!r}:",
        "    r = fit(PqrPoint(*x))",
        "    print(r.status, r.starts_used, f'{r.residual:.12g}')",
    ])
    src = str(Path(attainability.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": coretype}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = [(status, int(used), residual) for status, used, residual in map(str.split, done.stdout.splitlines())]
    assert got == NOT_FOUND_POOL_PINS[:2]


def _tangent_project(d, onehot):
    """Subtract from each arc of d (P, ..., n) the mean over the arcs of its
    letter, with onehot[i] (3, n) the letters of d[i]."""
    flat = d.reshape(d.shape[0], -1, d.shape[-1])
    means = np.einsum("pcn,pbn->pbc", onehot, flat) / onehot.sum(axis=2)[:, None, :]
    return (flat - np.einsum("pcn,pbc->pbn", onehot, means)).reshape(d.shape)


def test_renormalize_clips_and_puts_every_letter_on_its_simplex():
    # a random 40% of the durations are negative, but never the first arc of a letter
    pat = np.array(attainability._patterns_of_length(7))
    rng = np.random.default_rng(9)
    t = rng.gamma(1.0, size=(len(pat), 6, 7))
    first = np.zeros(pat.shape, dtype=bool)
    for letter in (1, 2, 3):
        first[np.arange(len(pat)), np.argmax(pat == letter, axis=1)] = True
    t = np.where((rng.random(t.shape) < 0.4) & ~first[:, None, :], -t, t)
    onehot = attainability._letter_onehot(pat)
    out = attainability._renormalize(t, onehot)
    assert (out[t < 0] == 0.0).all() and (out[t > 0] > 0.0).all()
    sums = np.einsum("pcn,psn->psc", onehot, out)
    assert np.abs(sums - 1.0).max() <= 1e-15


def test_renormalize_restarts_a_dead_letter_from_uniform():
    # a letter whose durations are all <= 0 gets equal durations; the others are scaled
    pat = np.array([[1, 2, 3, 1], [1, 2, 1, 3]])
    t = np.array([
        [[-1.0, 2.0, 3.0, 0.0], [1.0, 2.0, 3.0, 3.0]],
        [[0.0, -2.0, 5.0, 1.0], [0.0, 0.0, 0.0, 0.0]],
    ])
    out = attainability._renormalize(t, attainability._letter_onehot(pat))
    want = np.array([
        [[0.5, 1.0, 1.0, 0.5], [0.25, 1.0, 1.0, 0.75]],
        [[0.0, 1.0, 1.0, 1.0], [0.5, 1.0, 0.5, 1.0]],
    ])
    assert np.array_equal(out, want)


def _dense_gauss_newton(pat, t, target, tol, iters=attainability.GN_ITERS):
    """Reference: every start iterates to the end, J rebuilt each time from
    the pair masks by einsum."""
    M = attainability._pair_masks(pat)
    Msym = M + M.transpose(0, 1, 3, 2)
    onehot = attainability._letter_onehot(pat)
    rcur = np.einsum("pklm,psl,psm->psk", M, t, t) - target
    fcur = np.einsum("psk,psk->ps", rcur, rcur)
    lam = np.full(fcur.shape, 1e-3)
    for _ in range(iters):
        J = _tangent_project(np.einsum("pklm,psm->pskl", Msym, t), onehot)
        t_trial = attainability._renormalize(t + attainability._damped_step(J, lam, rcur), onehot)
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


def _section_starts(n, starts, seed):
    """Every n-arc pattern (P, n) with random section durations (P, starts, n)."""
    pat = np.array(attainability._patterns_of_length(n))
    t = np.random.default_rng(seed).gamma(1.0, size=(len(pat), starts, n))
    return pat, attainability._renormalize(t, attainability._letter_onehot(pat))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_gauss_newton_residuals_are_the_pqr_distances(n):
    # with no iteration the loop returns its starts and their squared residuals
    pat, t0 = _section_starts(n, 2, seed=n)
    target = np.array([0.36, 0.24, 0.45])
    t, f = attainability._gauss_newton(pat, t0, target, 1e-7, iters=0)
    assert np.array_equal(t, t0)
    want = [[np.sum((pqr(Word.of(zip(p, d))).as_array() - target) ** 2) for d in ds] for p, ds in zip(pat, t0)]
    assert np.abs(f - want).max() <= 1e-13


@pytest.mark.parametrize("target", [(0.36, 0.24, 0.45), (0.6, 0.5, 0.4)])
def test_gauss_newton_step_matches_the_dense_reference(target):
    # one iteration through the pattern maps is the einsum reference's, up to rounding
    for n in (4, 5, 6, 7, 8):
        pat, t0 = _section_starts(n, 6, seed=8)
        got_t, got_f = attainability._gauss_newton(pat, t0, np.array(target), 1e-7, iters=1)
        want_t, want_f = _dense_gauss_newton(pat, t0, np.array(target), 1e-7, iters=1)
        assert np.abs(got_t - want_t).max() <= 1e-12
        assert np.abs(got_f - want_f).max() <= 1e-12


def test_gauss_newton_ends_once_every_start_is_frozen(monkeypatch):
    # at length 4 every start of this not-found target reaches the damping cap;
    # each iteration steps all 360 starts in one call
    pat = np.array(attainability._patterns_of_length(4))
    rng = np.random.default_rng(3)
    t0 = attainability._renormalize(rng.gamma(1.0, size=(len(pat), 20, 4)), attainability._letter_onehot(pat))
    target = np.array([0.36, 0.24, 0.45])
    steps = []
    damped_step = attainability._damped_step

    def counting_step(J, lam, r):
        steps.append(len(J))
        return damped_step(J, lam, r)

    monkeypatch.setattr(attainability, "_damped_step", counting_step)
    t, f = attainability._gauss_newton(pat, t0, target, 1e-7)
    assert 0 < len(steps) < attainability.GN_ITERS
    assert np.sqrt(f.min()) > 1e-3
    t_more, f_more = attainability._gauss_newton(pat, t0, target, 1e-7, iters=attainability.GN_ITERS + 20)
    assert np.array_equal(t, t_more) and np.array_equal(f, f_more)


def _projected_jacobians(n, starts, seed):
    """Tangent-projected Jacobians (P * starts, 3, n) of every n-arc pattern
    at random section durations."""
    pat, t = _section_starts(n, starts, seed)
    M = attainability._pair_masks(pat)
    J = np.einsum("pklm,psm->pskl", M + M.transpose(0, 1, 3, 2), t)
    return _tangent_project(J, attainability._letter_onehot(pat)).reshape(-1, 3, n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_damped_step_solves_the_normal_equations(n, lam):
    # -J^T (J J^T + lam I)^-1 r is -(J^T J + lam I)^-1 J^T r
    J = _projected_jacobians(n, 2, seed=n)
    r = np.random.default_rng(n + 1).normal(size=(len(J), 3))
    step = attainability._damped_step(J, np.full(len(J), lam), r)
    A = np.einsum("bkl,bkm->blm", J, J) + lam * np.eye(n)
    want = -np.linalg.solve(A, np.einsum("bkl,bk->bl", J, r)[..., None])[..., 0]
    err = np.linalg.norm(step - want, axis=1)
    assert (err <= 1e-9 * np.linalg.norm(want, axis=1)).all()


def test_damped_step_stays_finite_on_rank_one_gram_matrices():
    # four arcs leave one free direction, so every G = J J^T has rank 1 and
    # the second and third pivots of G + lam I are of the order of lam; scaled
    # by 1e4, rounding takes some of them below lam, even to 0, and the floor holds
    r = np.random.default_rng(6).normal(size=(360, 3))
    for scale in (1.0, 1e4):
        J = scale * _projected_jacobians(4, 20, seed=5)
        G = np.einsum("bkn,bln->bkl", J, J)
        assert (np.linalg.matrix_rank(G) == 1).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = attainability._damped_step(J, np.full(len(J), attainability.LAM_MIN), r)
        assert np.isfinite(step).all()


def test_gauss_newton_memory_is_bounded_by_the_normal_equations():
    # every eight-arc pattern with 20 starts, the largest batch of a default sweep:
    # an iteration's J (3, n), G (3, 3), step and trial arrays per start, and the
    # per-pattern maps, stay below 1.5 times the bytes of one (n, n) matrix per start
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
    assert peak - before <= 1.5 * jtj_bytes


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
        equations = [quadric(patch.pattern, x)[0] for patch in boundary_atlas.quadric_patches()]
        assert np.allclose(even, equations[:3], rtol=0, atol=1e-15)
        assert np.allclose(odd, equations[3:], rtol=0, atol=1e-15)


def test_q_margin_is_the_larger_quadric_minimum():
    rng = np.random.default_rng(13)
    points = list(rng.uniform(0.0, 1.0, size=(200, 3))) + [(PHI, PHI, PHI), (0.5, 0.5, 0.5), (0.7, 0.7, 0.7)]
    for x in points:
        even, odd = _quadrics(x)
        assert q_margin(PqrPoint(*x)) == max(even.min(), odd.min())
    assert abs(q_margin(PqrPoint(PHI, PHI, PHI))) <= 1e-15
    assert q_margin(PqrPoint(0.5, 0.5, 0.5)) == -0.25
    assert abs(q_margin(PqrPoint(0.7, 0.7, 0.7)) - 0.19) <= 1e-15
    assert abs(q_margin(PqrPoint(0.3, 0.3, 0.3)) - 0.19) <= 1e-15


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
    points = [v.point() for v in boundary_atlas.vertices()]
    points += [point for patch in patches for _, _, point in patch.sample_grid(5)]
    assert len(points) == 366
    assert not any(_q_excludes(point.as_array()) for point in points)


def _swept_beyond(point, direction) -> bool:
    """The atlas probe as the solver alone decided it: the cube rule and the
    clip of `boundary_atlas._attainable_beyond`, then a 6-arc, 6-start fit
    at seed 0 in place of Conjecture Q's exclusion set."""
    x = [c + boundary_atlas.PROBE_EPS * v for c, v in zip((point.p, point.q, point.r), direction)]
    if any(c < -1e-12 or c > 1.0 + 1e-12 for c in x):
        return False
    target = PqrPoint(*(min(max(c, 0.0), 1.0) for c in x))
    return fit(target, max_arcs=6, n_starts=6, seed=0).status == "attained"


@pytest.mark.parametrize("resolution", [5, 7, 11])
def test_the_solver_trims_the_atlas_like_conjecture_q(monkeypatch, resolution):
    # the atlas lets Conjecture Q decide the probes that neither a bound nor the
    # closed form settles; a Gauss-Newton sweep there keeps every sample's verdict
    samples = boundary_atlas.trim_and_mesh(resolution).samples
    monkeypatch.setattr(boundary_atlas, "_attainable_beyond", _swept_beyond)
    assert boundary_atlas.trim_and_mesh(resolution).samples == samples


@pytest.mark.parametrize("resolution", [3, 5, 7, 11])
def test_conjecture_q_trims_the_atlas_like_the_solver(resolution):
    # with the test above, Q and the solver agree on every sample
    mesh = boundary_atlas.trim_and_mesh(resolution)

    def attainable_beyond(x, direction):
        # the probe's cube rule, then Q in place of fit
        y = x + boundary_atlas.PROBE_EPS * direction
        if (y < -1e-12).any() or (y > 1.0 + 1e-12).any():
            return False
        return not _q_excludes(np.clip(y, 0.0, 1.0))

    patches = {patch.id: patch for patch in boundary_atlas.quadric_patches() + boundary_atlas.flat_triangles()}
    for sample in mesh.samples:
        x = np.array(sample.point)
        n = patches[sample.patch_id].outward(x)
        assert sample.boundary == (not attainable_beyond(x, n) and attainable_beyond(x, -n))
    assert len(mesh.samples) == 12 * resolution**2


def _clear_of_q(x) -> bool:
    """Whether neither the even nor the odd minimum is within Q_MARGIN of 0,
    so rounding cannot move the point across Q's boundary."""
    even, odd = _quadrics(x)
    return min(abs(even.min()), abs(odd.min())) > Q_MARGIN


@given(st.integers(3, 10), st.integers(0, 2**31 - 1))
def test_closed_form_reaches_every_word(n_arcs, seed):
    x = pqr(random_word(n_arcs, seed))
    word = closed_form_word(x)
    assert word is not None and len(word.arcs) <= 6
    assert np.abs(pqr(word).as_array() - x.as_array()).max() <= 1e-12


def test_closed_form_exists_exactly_where_q_admits():
    rng = np.random.default_rng(14)
    points = [x for x in rng.uniform(0.0, 1.0, size=(3000, 3)) if _clear_of_q(x)]
    assert len(points) > 2900
    for x in points:
        word = closed_form_word(PqrPoint(*x))
        assert (word is not None) == (not _q_excludes(x))
        if word is not None:
            assert np.abs(pqr(word).as_array() - x).max() <= 1e-12


def test_closed_form_reaches_the_vertices_and_the_degenerate_edges():
    # the vertices take the q = 0 durations (a = 0, c = r) and the p = 1 ones
    # (a = 1, c = 0); the cube edges (1, 0, t) and (1, t, 0) lie on both faces
    points = [v.point() for v in boundary_atlas.vertices()]
    for t in np.linspace(0.0, 1.0, 9):
        points += [PqrPoint(1.0, 0.0, t), PqrPoint(1.0, t, 0.0)]
    for point in points:
        word = closed_form_word(point)
        assert word is not None
        assert np.abs(pqr(word).as_array() - point.as_array()).max() <= 1e-15


def _screen_and_closed_form_points() -> list[PqrPoint]:
    """The 400 reference pool points, 2,000 seeded uniform points, the cube
    vertices, and grid points on the faces q = 0 and p = 1."""
    points = [PqrPoint(r["p"], r["q"], r["r"]) for r in json.loads(CUBE_SCAN_REFERENCE.read_text())["points"]]
    points += [PqrPoint(*x) for x in np.random.default_rng(18).uniform(0.0, 1.0, size=(2000, 3))]
    points += [PqrPoint(*map(float, v)) for v in np.ndindex(2, 2, 2)]
    for s in np.linspace(0.0, 1.0, 9):
        for t in np.linspace(0.0, 1.0, 9):
            points += [PqrPoint(s, 0.0, t), PqrPoint(1.0, s, t)]
    return points


def test_screen_and_closed_form_bytes():
    # sha256 of the closed-form word and the exclusion bound of every point;
    # both are computed in Python floats, so the digest holds on any CPU
    points = _screen_and_closed_form_points()
    assert len(points) == 2570
    records = []
    for x in points:
        word = closed_form_word(x)
        records.append([None if word is None else word_to_dict(word), list(exclusion_bound(x))])
    assert sum(r[0] is not None for r in records) == 1656
    assert sum(r[1][1] is not None for r in records) == 844
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "45eecffa886f204d25bd76cfc33bb89bc302330869e9d12431a8ccc1d8c36356"


def test_symmetry_table_gives_the_precedence_images():
    # the images of a point under the 12 symmetries, computed as the closed form
    # did before its table: the oracle for every entry, bit for bit
    table = attainability._SYMMETRIES
    assert len(table) == 12
    for x in _screen_and_closed_form_points()[::10]:
        x = (float(x.p), float(x.q), float(x.r))
        y = x + tuple(1.0 - c for c in x)
        expected = []
        for perm in permutations(LETTERS):
            for reversed_ in (False, True):
                pairs = [(perm[i - 1], perm[j - 1]) for i, j in PQR_PAIRS]
                image = (precedence(x, j, i) if reversed_ else precedence(x, i, j) for i, j in pairs)
                expected.append((perm, reversed_, [v.hex() for v in image]))
        got = [(perm, reversed_, [y[k].hex() for k in index]) for perm, reversed_, index in table]
        assert got == expected


# the 3-cycle 1 -> 2 -> 3 -> 1 and the transposition (1 2) of the letters,
# with their action on (p, q, r)
CYCLE = ({1: 2, 2: 3, 3: 1}, lambda x: np.roll(x, 1))
SWAP = ({1: 2, 2: 1, 3: 3}, lambda x: 1.0 - x[[0, 2, 1]])


def _symmetries() -> dict:
    """The 12 symmetries S3 x reversal, generated by the 3-cycle, the
    transposition (1 2) and reversal: {(letter images, reversed): point map}."""
    identity = ((1, 2, 3), False, lambda x: x)
    generators = [
        (tuple(CYCLE[0][l] for l in (1, 2, 3)), False, CYCLE[1]),
        (tuple(SWAP[0][l] for l in (1, 2, 3)), False, SWAP[1]),
        ((1, 2, 3), True, lambda x: 1.0 - x),
    ]
    group = {identity[:2]: identity[2]}
    frontier = [identity]
    while frontier:
        perm, reversed_, act = frontier.pop()
        for g_perm, g_reversed, g_act in generators:
            key = (tuple(g_perm[perm[l - 1] - 1] for l in (1, 2, 3)), reversed_ != g_reversed)
            if key not in group:
                group[key] = (lambda first, then: lambda x: then(first(x)))(act, g_act)
                frontier.append((*key, group[key]))
    return group


SYMMETRIES = _symmetries()


def _image(w: Word, perm, reversed_) -> Word:
    image = Word.of((perm[l - 1], t) for l, t in w.arcs)
    return reverse(image) if reversed_ else image


def test_fit_status_is_invariant_under_letter_permutations():
    # words, and uniform points clear of Q's boundary, keep their status under
    # all 12 symmetries; a sweep to six arcs with two starts settles the points
    # that the closed form does not reach and the screen does not certify
    rng = np.random.default_rng(15)
    points = [pqr(random_word(5, seed)).as_array() for seed in range(4)]
    points += [x for x in rng.uniform(0.0, 1.0, size=(40, 3)) if _clear_of_q(x)]
    statuses = []
    for x in points:
        images = {fit(PqrPoint(*act(x)), max_arcs=6, n_starts=2).status for act in SYMMETRIES.values()}
        assert len(images) == 1
        statuses += images
    assert statuses[:4] == ["attained"] * 4
    assert "not-found" in statuses[4:]


def test_the_symmetries_form_a_group_of_twelve():
    assert len(SYMMETRIES) == 12
    assert {perm for perm, _ in SYMMETRIES} == {(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)}


@given(st.integers(3, 10), st.integers(0, 2**31 - 1))
def test_symmetries_map_pqr_of_every_word(n_arcs, seed):
    w = random_word(n_arcs, seed)
    x = pqr(w).as_array()
    for (perm, reversed_), act in SYMMETRIES.items():
        assert np.abs(pqr(_image(w, perm, reversed_)).as_array() - act(x)).max() <= 1e-12


@given(st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_letter_permutations_preserve_conjecture_q(point):
    x = np.array(point)
    even, odd = np.sort(_quadrics(x))
    for (perm, reversed_), act in SYMMETRIES.items():
        image_even, image_odd = np.sort(_quadrics(act(x)))
        # a transposition and reversal each swap the even triple with the odd
        # one; the 3-cycle permutes each triple within itself
        odd_perm = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]) % 2 == 1
        expected = (odd, even) if odd_perm != reversed_ else (even, odd)
        assert np.allclose(image_even, expected[0], rtol=0, atol=1e-14)
        assert np.allclose(image_odd, expected[1], rtol=0, atol=1e-14)


def test_fit_stays_not_found_on_the_symmetric_images():
    # the images of unscreened not-found pool points are unscreened too and get
    # no closed-form word, so each of these fits sweeps up to six arcs with
    # eight starts per pattern
    for x in _pool_points(False, 2):
        for act in SYMMETRIES.values():
            image = PqrPoint(*act(x.as_array()))
            assert exclusion_bound(image) == (0.0, None)
            assert fit(image, max_arcs=6, n_starts=8).status == "not-found"
