import dataclasses
import hashlib

import numpy as np
import pytest

from carnotreach import attainability
from carnotreach import boundary_atlas as atlas
from carnotreach.words import InvariantViolation, Word, pair_axis, pqr, precedence, quadric, reverse


def test_vertices_table():
    expected = {
        "A1": (1, 0, 0),
        "B2": (0, 1, 0),
        "C1": (0, 0, 1),
        "A2": (1, 0, 1),
        "C2": (0, 1, 1),
        "D1": (1, 1, 0),
    }
    got = {v.id: (v.point().p, v.point().q, v.point().r) for v in atlas.vertices()}
    assert got == expected
    for v in atlas.vertices():
        assert pqr(v.word()) == v.point()


def test_strata_are_plain_data():
    assert [f.name for f in dataclasses.fields(atlas.FacePatch)] == ["kind", "id", "pattern", "durations"]
    patches = [patch for patch, _ in atlas.sample_strata(2)]
    assert len(set(patches)) == len(patches) == 30
    assert patches == [patch for patch, _ in atlas.sample_strata(2)]


@pytest.mark.parametrize("patch", [atlas.vertices()[0], *atlas.edge_families()[::6]], ids=lambda p: p.kind)
def test_only_surface_strata_have_an_equation(patch):
    x = np.full(3, 0.5)
    with pytest.raises(InvariantViolation) as exc:
        patch.outward(x)
    assert exc.value.name == "stratum-kind"


def test_vertices_are_zero_parameter_patches():
    for v in atlas.vertices():
        assert v.kind == "vertex"
        assert v.dim == 0
        for resolution in (2, 7):
            assert list(v.sample_grid(resolution)) == [((), v.word(), v.point())]


def test_edge_families_count_and_kinds():
    fams = atlas.edge_families()
    assert len(fams) == 12
    assert sum(f.kind == "cube-edge" for f in fams) == 6
    assert sum(f.kind == "diagonal-edge" for f in fams) == 6


def test_cube_edges_sweep_cube_edges():
    for patch in atlas.edge_families():
        if patch.kind != "cube-edge":
            continue
        pts = np.array([[*p.as_array()] for _, _, p in patch.sample_grid(9)])
        # exactly one coordinate varies over [0, 1]; the others sit at 0 or 1
        spans = pts.max(axis=0) - pts.min(axis=0)
        assert sorted(np.isclose(spans, 1.0)) == [False, False, True]
        for fixed in np.where(spans < 1e-12)[0]:
            assert pts[0, fixed] in (0.0, 1.0)


def test_diagonals_sweep_facet_diagonals():
    for patch in atlas.edge_families():
        if patch.kind != "diagonal-edge":
            continue
        i, j = (int(c) for c in patch.id.split("-")[1])
        axis, sign = pair_axis(i, j)  # the family lies on the facet P(i before j) = 1
        value = 1.0 if sign > 0 else 0.0
        for _, _, point in patch.sample_grid(33):
            x = point.as_array()
            assert abs(x[axis] - value) <= 1e-12
            others = [x[d] for d in range(3) if d != axis]
            # on its facet the family traces the line coord_a + coord_b = 1
            assert abs(sum(others) - 1.0) <= 1e-12


def test_diagonal_12_midpoint():
    patch = next(p for p in atlas.edge_families() if p.id == "diagonal-12")
    pt = patch.point(0.5)
    assert (pt.p, pt.q, pt.r) == (1.0, 0.5, 0.5)


def test_flat_triangles_lie_on_facets():
    patches = atlas.flat_triangles()
    assert len(patches) == 6
    for patch in patches:
        for _, _, point in patch.sample_grid(7):
            # the facet P(u before v) = 1 of the triangle (u, w, u, v, w)
            assert abs(precedence(point.as_array(), patch.pattern[0], patch.pattern[3]) - 1.0) <= 1e-12


def _is_subsequence(letters, pattern) -> bool:
    rest = iter(pattern)
    return all(letter in rest for letter in letters)


def test_patch_words_follow_the_patch_pattern():
    # every sampled word is the patch pattern with some arcs of zero duration
    # dropped, and at an interior grid point no arc is dropped
    patches = atlas.edge_families() + atlas.flat_triangles() + atlas.quadric_patches()
    for patch in patches:
        letters = [[letter for letter, _ in w.arcs] for _, w, _ in patch.sample_grid(5)]
        assert all(_is_subsequence(word, patch.pattern) for word in letters), patch.id
        assert max(letters, key=len) == list(patch.pattern), patch.id
    assert not _is_subsequence([1, 3, 2], (1, 2, 3))


def test_quadric_patches_satisfy_their_equations():
    patches = atlas.quadric_patches()
    assert len(patches) == 6
    for patch in patches:
        for _, _, point in patch.sample_grid(9):
            assert abs(quadric(patch.pattern, point.as_array())[0]) <= 1e-12
            n = patch.outward(point.as_array())
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_quadric_even_patch_values():
    patch = next(p for p in atlas.quadric_patches() if p.pattern == (1, 2, 3, 1, 2))
    pt = patch.point(0.5, 0.5)
    assert (pt.p, pt.q, pt.r) == (0.75, 0.5, 0.5)


# the facet and quadric tables the atlas was first written with; the
# letter-pair rule of `words.pair_axis` reproduces them bit for bit
REFERENCE_FACET = {
    (1, 2): (0, 1.0),
    (2, 1): (0, 0.0),
    (2, 3): (1, 1.0),
    (3, 2): (1, 0.0),
    (3, 1): (2, 1.0),
    (1, 3): (2, 0.0),
}

REFERENCE_QUADRICS = {
    (1, 2, 3, 1, 2): (
        lambda x: x[0] + x[1] * x[2] - 1.0,
        lambda x: np.array([1.0, x[2], x[1]]),
    ),
    (2, 3, 1, 2, 3): (
        lambda x: x[1] + x[2] * x[0] - 1.0,
        lambda x: np.array([x[2], 1.0, x[0]]),
    ),
    (3, 1, 2, 3, 1): (
        lambda x: x[2] + x[0] * x[1] - 1.0,
        lambda x: np.array([x[1], x[0], 1.0]),
    ),
    (2, 1, 3, 2, 1): (
        lambda x: (1.0 - x[0]) + (1.0 - x[1]) * (1.0 - x[2]) - 1.0,
        lambda x: np.array([-1.0, -(1.0 - x[2]), -(1.0 - x[1])]),
    ),
    (3, 2, 1, 3, 2): (
        lambda x: (1.0 - x[1]) + (1.0 - x[2]) * (1.0 - x[0]) - 1.0,
        lambda x: np.array([-(1.0 - x[2]), -1.0, -(1.0 - x[0])]),
    ),
    (1, 3, 2, 1, 3): (
        lambda x: (1.0 - x[2]) + (1.0 - x[0]) * (1.0 - x[1]) - 1.0,
        lambda x: np.array([-(1.0 - x[1]), -(1.0 - x[0]), -1.0]),
    ),
}


def test_facets_match_the_reference_table():
    for (u, v), (axis, value) in REFERENCE_FACET.items():
        assert pair_axis(u, v) == (axis, 1.0 if value == 1.0 else -1.0)
    for patch in atlas.flat_triangles():
        u, _, _, v, _ = patch.pattern
        axis, value = REFERENCE_FACET[(u, v)]
        n = np.zeros(3)
        n[axis] = 1.0 if value == 1.0 else -1.0
        x = np.full(3, 0.5)
        x[axis] = value
        assert precedence(x, u, v) == 1.0
        assert np.array_equal(patch.outward(x), n)


def test_quadrics_match_the_reference_table_bit_for_bit():
    patterns = [patch.pattern for patch in atlas.quadric_patches()]
    assert patterns == list(REFERENCE_QUADRICS)
    points = np.random.default_rng(7).uniform(0.0, 1.0, size=(2000, 3))
    for pattern, (ref_equation, ref_gradient) in REFERENCE_QUADRICS.items():
        for x in points:
            equation, gradient = quadric(pattern, x)
            assert np.float64(equation).tobytes() == ref_equation(x).tobytes()
            assert np.array(gradient).tobytes() == ref_gradient(x).tobytes()


def test_reversal_sends_each_cyclic_quadric_to_its_reversed_pattern():
    patches = {patch.pattern: patch for patch in atlas.quadric_patches()}
    grid = np.arange(17) / 16.0  # dyadic, so 1 - (1 - b) == b exactly
    for pattern in list(patches)[:3]:
        even, odd = patches[pattern], patches[pattern[::-1]]
        for a in grid:
            for b in grid:
                assert reverse(even.word(a, b)) == odd.word(1.0 - b, 1.0 - a)
                got = odd.point(1.0 - b, 1.0 - a).as_array()
                assert np.abs(got - (1.0 - even.point(a, b).as_array())).max() <= 1e-12


def test_trim_and_mesh_small():
    mesh = atlas.trim_and_mesh(5)
    assert len(mesh.samples) == 12 * 25
    assert mesh.vertices
    assert mesh.groups
    # every mesh vertex lies on some patch surface inside the unit cube
    for v in mesh.vertices:
        assert all(-1e-9 <= c <= 1.0 + 1e-9 for c in v)
    # triangles index valid vertices
    for faces in mesh.groups.values():
        for tri in faces:
            assert len(set(tri)) == 3
            assert all(0 <= i < len(mesh.vertices) for i in tri)


# sha256 of write_obj(trim_and_mesh(resolution))
OBJ_SHA256 = {
    3: "6c098e5ba29081c557af3bbfcff0b09cdc4afab5c211ba35214e2c323dd47fff",
    5: "e89f217118a7b7d6542e7856a45ef4f0dabc560f6af4a33fb012f078bf1cff7c",
    7: "dbf28036eb84ab71ace09532dbf16491eac4f14d393eed6abe849914b6ca5ac1",
    11: "20bd737027c7143b902409dc0ee21471a997727f5ff25fa17e0a771401d2a04a",
}


@pytest.mark.parametrize("resolution", sorted(OBJ_SHA256))
def test_trim_obj_matches_its_pins(resolution):
    text = atlas.write_obj(atlas.trim_and_mesh(resolution))
    assert hashlib.sha256(text.encode()).hexdigest() == OBJ_SHA256[resolution]


def test_trim_fits_the_clipped_probe_points_bytewise(monkeypatch):
    # every target `fit` receives is the probe point clip(x + eps d, 0, 1) in numpy float64 arithmetic
    beyond, fit = atlas._attainable_beyond, attainability.fit
    expected, received = [], []

    def watched_beyond(point, direction):
        y = point.as_array() + atlas.PROBE_EPS * np.asarray(direction, dtype=float)
        if (y >= -1e-12).all() and (y <= 1.0 + 1e-12).all():
            expected.append(np.clip(y, 0.0, 1.0).tobytes())
        return beyond(point, direction)

    def watched_fit(target, **kwargs):
        received.append(np.array([target.p, target.q, target.r], dtype=float).tobytes())
        return fit(target, **kwargs)

    monkeypatch.setattr(atlas, "_attainable_beyond", watched_beyond)
    monkeypatch.setattr(attainability, "fit", watched_fit)
    atlas.trim_and_mesh(5)
    assert len(received) == 42
    assert received == expected


def test_atlas_path_carries_python_floats(monkeypatch):
    # a numpy scalar is slower than a float in every Python operation downstream
    for _, rows in atlas.sample_strata(3):
        for params, word, point in rows:
            assert all(type(v) is float for v in params)
            assert all(type(t) is float for _, t in word.arcs)
            assert all(type(v) is float for v in (point.p, point.q, point.r))

    beyond, directions = atlas._attainable_beyond, []

    def watched_beyond(point, direction):
        directions.append(direction)
        return beyond(point, direction)

    monkeypatch.setattr(atlas, "_attainable_beyond", watched_beyond)
    mesh = atlas.trim_and_mesh(3)
    assert len(directions) == 35
    assert all(type(v) is float for d in directions for v in d)
    assert all(type(v) is float for rec in mesh.samples for v in rec.params + rec.point)
    assert mesh.vertices and all(type(v) is float for x in mesh.vertices for v in x)


def test_trim_asks_fit_at_the_atlas_settings_for_both_verdicts(monkeypatch):
    # the traced atlas benchmark needs fit.attained and fit.not_found spans under
    # trim_and_mesh, so the trim must reach `fit` through the module attribute
    fit, calls, statuses = attainability.fit, [], []

    def counted(target, **kwargs):
        calls.append(kwargs)
        result = fit(target, **kwargs)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(attainability, "fit", counted)
    atlas.trim_and_mesh(3)
    assert "attained" in statuses and "not-found" in statuses
    assert all(kw == dict(max_arcs=6, n_starts=6, seed=0) for kw in calls)
    assert atlas.PROBE_EPS == 1e-3


def test_trim_propagates_prober_bugs(monkeypatch):
    def buggy(*args, **kwargs):
        raise TypeError("bug in the solver")

    monkeypatch.setattr(attainability, "fit", buggy)
    with pytest.raises(TypeError):
        atlas.trim_and_mesh(2)


def test_trim_propagates_linear_algebra_errors(monkeypatch):
    # a sample is boundary or not: a solver error is not recorded as a third verdict
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(attainability, "fit", singular)
    with pytest.raises(np.linalg.LinAlgError):
        atlas.trim_and_mesh(2)


def test_trim_probes_inward_only_beyond_an_unattainable_outward_point(monkeypatch):
    verdicts = iter(
        [True, True] + [False, True] * 200
    )
    calls = []

    def scripted(point, direction):
        calls.append(direction)
        return next(verdicts)

    monkeypatch.setattr(atlas, "_attainable_beyond", scripted)
    mesh = atlas.trim_and_mesh(2)
    # the first quadric patch and the first flat triangle are probed, 4 samples
    # each: one probe for each of the first two samples, two for every other
    assert len(calls) == 2 * 8 - 2
    # every quadric patch shares the verdicts of the first one
    for i, rec in enumerate(mesh.samples):
        assert rec.boundary == (not rec.patch_id.startswith("quadric-") or i % 4 >= 2)


def _renamed(word, sigma):
    return Word(tuple((sigma[letter], t) for letter, t in word.arcs))


@pytest.mark.parametrize("patches", [atlas.quadric_patches(), atlas.flat_triangles()], ids=["quadric", "flat-triangle"])
def test_each_surface_patch_is_the_first_of_its_kind_renamed(patches):
    first = patches[0]
    grid = np.linspace(0.0, 1.0, 9).tolist()
    renamings = set()
    for patch in patches:
        sigma = dict(zip(first.pattern, patch.pattern))
        assert [sigma[letter] for letter in first.pattern] == list(patch.pattern), patch.id
        assert sorted(sigma.values()) == [1, 2, 3], patch.id
        assert patch.durations == first.durations, patch.id
        renamings.add(tuple(sorted(sigma.items())))
        for a in grid:
            for b in grid:
                assert patch.word(a, b) == _renamed(first.word(a, b), sigma), (patch.id, a, b)
    assert len(renamings) == 6


def _probe_every_sample(resolution):
    # the trim without the shared verdicts: every surface sample of every patch probed
    records = []
    strata = atlas.sample_strata(resolution)
    for kind in ("quadric", "flat-triangle"):
        for patch, rows in strata:
            if patch.kind != kind:
                continue
            for params, _, point in rows:
                n = patch.outward(point.as_array()).tolist()
                beyond = [atlas._attainable_beyond(point, d) for d in (n, [-v for v in n])]
                records.append(atlas.SampleRecord(patch.id, params, (point.p, point.q, point.r), beyond == [False, True]))
    return records


@pytest.mark.parametrize("resolution", [2, 3, 4, 5, 6, 7])
def test_shared_verdicts_equal_probing_every_sample(resolution):
    assert atlas.trim_and_mesh(resolution).samples == _probe_every_sample(resolution)


def test_trim_validates_resolution():
    with pytest.raises(InvariantViolation):
        atlas.trim_and_mesh(1)


def test_sample_grid_rejects_a_non_integer_resolution():
    patch = atlas.quadric_patches()[0]
    for resolution in (2.5, True, "3", 1):
        with pytest.raises(InvariantViolation) as exc:
            list(patch.sample_grid(resolution))
        assert exc.value.name == "resolution"
    assert len(list(patch.sample_grid(np.int64(2)))) == 4


def test_patch_word_names_bad_parameters():
    patch = atlas.quadric_patches()[0]
    for params in ((0.5,), (0.5, 0.5, 0.5), ("a", 0.5), (0.5, None), (True, 0.5)):
        with pytest.raises(InvariantViolation) as exc:
            patch.word(*params)
        assert exc.value.name == "stratum-params"
    with pytest.raises(InvariantViolation) as exc:
        atlas.vertices()[0].point(0.5)
    assert exc.value.name == "stratum-params"
    # other real numbers give the word of their floats
    assert repr(patch.word(1, np.float32(0.5))) == repr(patch.word(1.0, 0.5))


def test_sample_strata_bounds_its_rows_before_sampling(monkeypatch):
    class Sampled(Exception):
        pass

    def refuse(patch, resolution):
        raise Sampled(patch.id)

    monkeypatch.setattr(atlas.FacePatch, "sample_grid", refuse)
    # 12 r^2 + 12 r + 6 rows: 264630 at r = 148, 261078 at r = 147
    with pytest.raises(InvariantViolation) as exc:
        atlas.sample_strata(148)
    assert exc.value.name == "resolution"
    with pytest.raises(Sampled):
        atlas.sample_strata(147)


def test_write_obj_format():
    mesh = atlas.trim_and_mesh(4)
    text = atlas.write_obj(mesh)
    lines = text.strip().splitlines()
    n_v = sum(line.startswith("v ") for line in lines)
    assert n_v == len(mesh.vertices)
    for line in lines:
        assert line.split()[0] in ("v", "g", "f")
        if line.startswith("f "):
            idx = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= n_v for i in idx)


def test_strata_csv_header_and_rows():
    text = atlas.strata_csv(atlas.sample_strata(3))
    lines = text.strip().splitlines()
    assert lines[0] == "label,params,p,q,r,witness"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert {"A1", "B2", "C1", "A2", "C2", "D1"} <= labels
    assert any(l.startswith("quadric-") for l in labels)
    assert any(l.startswith("flat-") for l in labels)
    # 6 vertices + 12 edge families * 3 + 12 surface patches * 9
    assert len(lines) - 1 == 6 + 12 * 3 + 12 * 9


def test_strata_csv_bytes_are_pinned():
    # sha256 recorded before the atlas trimmed through attainability.probe
    text = atlas.strata_csv(atlas.sample_strata(3))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e5c9b6d9f572529699983f558765a2e5d47f618a5634a048830ae7608bd51013"
    )


@pytest.mark.parametrize(
    "resolution, digest",
    [
        (5, "deece503914686ffc3ee7ffd6e75e034e798902e5d89574c54d121c60f71af2c"),
        (11, "22def45c8feee986b5c826dae6cbde903f6070f9c38387f7e507a4f71cafccb8"),
    ],
)
def test_strata_csv_bytes_are_pinned_at_finer_resolutions(resolution, digest):
    # sha256 recorded while vertices were a separate type from the patches
    assert hashlib.sha256(atlas.strata_csv(atlas.sample_strata(resolution)).encode()).hexdigest() == digest
