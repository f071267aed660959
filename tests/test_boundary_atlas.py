import hashlib

import numpy as np
import pytest

from carnotreach import attainability
from carnotreach import boundary_atlas as atlas
from carnotreach.words import InvariantViolation, PqrPoint, pqr


def test_vertices_table():
    expected = {
        "A1": (1, 0, 0),
        "B2": (0, 1, 0),
        "C1": (0, 0, 1),
        "A2": (1, 0, 1),
        "C2": (0, 1, 1),
        "D1": (1, 1, 0),
    }
    got = {v.label: (v.point.p, v.point.q, v.point.r) for v in atlas.vertices()}
    assert got == expected
    for v in atlas.vertices():
        assert pqr(v.word) == v.point


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
        axis, value = atlas._FACET[(i, j)]
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
            assert abs(patch.equation(point.as_array())) <= 1e-12


def test_triangle_word_domain():
    with pytest.raises(InvariantViolation):
        atlas.triangle_word(1, 2, 3, 0.5, 0.8, 0.4)
    w = atlas.triangle_word(1, 2, 3, 0.3, 0.4, 0.2)
    pt = pqr(w)
    # letter 1 always precedes letter 3, so p31 vanishes
    assert abs(pt.r) <= 1e-12


def test_quadric_patches_satisfy_their_equations():
    patches = atlas.quadric_patches()
    assert len(patches) == 6
    for patch in patches:
        for _, _, point in patch.sample_grid(9):
            assert abs(patch.equation(point.as_array())) <= 1e-12
            n = patch.outward(point.as_array())
            assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_quadric_even_patch_values():
    patch = next(p for p in atlas.quadric_patches() if p.pattern == (1, 2, 3, 1, 2))
    pt = patch.point(0.5, 0.5)
    assert (pt.p, pt.q, pt.r) == (0.75, 0.5, 0.5)


def test_trim_and_mesh_small():
    mesh = atlas.trim_and_mesh(5, eps=1e-3, max_arcs=6, n_starts=6, seed=0)
    assert mesh.failures == []
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


# sha256 of write_obj(trim_and_mesh(resolution)) at the CLI probe defaults,
# recorded before probes were seeded with the sample's witness word
OBJ_SHA256 = {
    3: "6c098e5ba29081c557af3bbfcff0b09cdc4afab5c211ba35214e2c323dd47fff",
    5: "e89f217118a7b7d6542e7856a45ef4f0dabc560f6af4a33fb012f078bf1cff7c",
}


@pytest.mark.parametrize("resolution", sorted(OBJ_SHA256))
def test_trim_obj_matches_unseeded_probes(resolution):
    text = atlas.write_obj(atlas.trim_and_mesh(resolution, eps=1e-3, max_arcs=6, n_starts=6, seed=0))
    assert hashlib.sha256(text.encode()).hexdigest() == OBJ_SHA256[resolution]


def test_hinted_probes_match_unhinted():
    kwargs = dict(max_arcs=6, n_starts=6, seed=0)
    eps = 1e-3
    for patch in atlas.quadric_patches() + atlas.flat_triangles():
        for _, w, point in patch.sample_grid(4):
            x = point.as_array()
            for side in (eps, -eps):
                y = x + side * patch.outward(x)
                if (y < -1e-12).any() or (y > 1.0 + 1e-12).any():
                    continue
                target = PqrPoint(*np.clip(y, 0.0, 1.0))
                plain = attainability.fit(target, **kwargs)
                hinted = attainability.fit(target, hint=w, **kwargs)
                assert hinted.status == plain.status, (patch.id, x, side)
                if hinted.status == "attained":
                    assert len(hinted.witness.arcs) <= kwargs["max_arcs"]
                    got = pqr(hinted.witness).as_array()
                    assert np.linalg.norm(got - target.as_array()) <= attainability.DEFAULT_TOL


def test_trim_propagates_prober_bugs(monkeypatch):
    def buggy(*args, **kwargs):
        raise TypeError("bug in the solver")

    monkeypatch.setattr(attainability, "fit", buggy)
    with pytest.raises(TypeError):
        atlas.trim_and_mesh(2)


def test_trim_records_linear_algebra_failures(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(attainability, "fit", singular)
    mesh = atlas.trim_and_mesh(2)
    # samples whose probes both leave the cube never reach the solver
    assert 0 < len(mesh.failures) < len(mesh.samples)
    assert all(rec.error == "undecided" and not rec.boundary for rec in mesh.failures)
    assert not mesh.groups


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


def test_write_obj_format():
    mesh = atlas.trim_and_mesh(4, max_arcs=6, n_starts=4, seed=0)
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
    text = atlas.strata_csv(3)
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
    text = atlas.strata_csv(3)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e5c9b6d9f572529699983f558765a2e5d47f618a5634a048830ae7608bd51013"
    )
