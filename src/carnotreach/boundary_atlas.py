"""Boundary strata of the attainable section in (p, q, r) coordinates.

Generators for every named stratum: the six vertices, twelve
one-parameter edge families (cube edges from mixed singular+bang words,
facet diagonals from 3-switch words), six flat facet triangles from
products of two two-letter blocks, and six quadric patches from 4-switch
words.  Every stratum is a `FacePatch`: an explicit witness-word map on
the unit parameter cube [0, 1]^dim, with dim 0 for a vertex, so each
sampled point is attained by construction; facets and quadric equations
follow from the letter-pair rule `words.pair_axis`.

The quadric patches, generated in full, overlap the interior of the
attainable body; `trim_and_mesh` samples every stratum once
(`sample_strata`), probes each surface sample with `attainability.probe`
at a fixed step PROBE_EPS along its normal, keeps the samples whose
outward side is unattainable and inward side attainable, and assembles a
triangle mesh exported as OBJ; `strata_csv` formats the sampled strata
the mesh keeps.

The six quadric patches are one orbit of the letter permutations S3, and
so are the six flat triangles: each is the first patch of its kind with
its letters renamed, at the same parameters and durations.  Renaming
maps each coordinate of the point, and of the outward normal, to a
coordinate or its complement, and attainability is invariant under it,
so `trim_and_mesh` probes only the first patch of each kind.
"""
from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import attainability
from .words import PQR_PAIRS, PqrPoint, Word, canonicalize, pair_axis, pqr, precedence, require_int, word_to_dict

__all__ = [
    "FacePatch",
    "AtlasMesh",
    "vertices",
    "edge_families",
    "flat_triangles",
    "quadric_patches",
    "sample_strata",
    "trim_and_mesh",
    "write_obj",
    "strata_csv",
]

# the step and the `fit` settings of every `trim_and_mesh` probe
PROBE_EPS = 1e-3
PROBE_MAX_ARCS = 6
PROBE_STARTS = 6


@dataclass(frozen=True)
class FacePatch:
    """A parametrized stratum of the boundary atlas.

    `word_map` sends a parameter tuple of the unit cube [0, 1]^dim to a
    witness word (a vertex has dim 0 and one word); `equation`, when
    present, vanishes on the patch and is nonpositive on the body side;
    `outward` is the unit normal pointing away from the body.
    """

    kind: str  # vertex | cube-edge | diagonal-edge | flat-triangle | quadric
    id: str
    pattern: tuple[int, ...]
    dim: int
    word_map: Callable[..., Word]
    equation: Callable[[np.ndarray], float] | None = None
    outward: Callable[[np.ndarray], np.ndarray] | None = None

    def word(self, *params) -> Word:
        return canonicalize(self.word_map(*params))

    def point(self, *params) -> PqrPoint:
        return pqr(self.word(*params))

    def sample_grid(self, resolution: int):
        """Yield (params, word, point) over a regular grid of the cube, the
        last parameter varying fastest; parameters are Python floats."""
        require_int("resolution", resolution, 2)
        axis = np.linspace(0.0, 1.0, resolution).tolist()
        for params in itertools.product(axis, repeat=self.dim):
            w = self.word(*params)
            yield params, w, pqr(w)


def _vertex_patch(pattern: tuple[int, int, int], label: str) -> FacePatch:
    def word_map():
        return Word(tuple((l, 1.0) for l in pattern))

    return FacePatch(kind="vertex", id=label, pattern=pattern, dim=0, word_map=word_map)


def vertices() -> list[FacePatch]:
    """The six vertices, zero-parameter patches of 3-arc permutation words."""
    table = {
        (1, 3, 2): "A1",
        (2, 1, 3): "B2",
        (3, 2, 1): "C1",
        (3, 1, 2): "A2",
        (2, 3, 1): "C2",
        (1, 2, 3): "D1",
    }
    return [_vertex_patch(pattern, label) for pattern, label in table.items()]


def _cube_edge_patch(i: int, j: int, after: bool) -> FacePatch:
    k = 6 - i - j

    def word_map(s):
        block = [(i, s), (j, 1.0), (i, 1.0 - s)]
        arcs = block + [(k, 1.0)] if after else [(k, 1.0)] + block
        return Word(tuple(arcs))

    pos = "post" if after else "pre"
    return FacePatch(
        kind="cube-edge",
        id=f"cube-edge-{i}{j}-{pos}{k}",
        pattern=tuple(l for l, _ in word_map(0.5).arcs),
        dim=1,
        word_map=word_map,
    )


def _diagonal_patch(i: int, j: int) -> FacePatch:
    k = 6 - i - j

    def word_map(a):
        return Word(((k, a), (i, 1.0), (j, 1.0), (k, 1.0 - a)))

    return FacePatch(
        kind="diagonal-edge",
        id=f"diagonal-{i}{j}",
        pattern=(k, i, j, k),
        dim=1,
        word_map=word_map,
    )


def edge_families() -> list[FacePatch]:
    """Twelve one-parameter families: six cube edges, six facet diagonals."""
    patches = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        patches.append(_cube_edge_patch(i, j, after=True))
        patches.append(_cube_edge_patch(i, j, after=False))
    for i, j in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)):
        patches.append(_diagonal_patch(i, j))
    return patches


def _flat_triangle_patch(u: int, w: int, v: int) -> FacePatch:
    axis, sign = pair_axis(u, v)  # the patch lies on the facet P(u before v) = 1
    value = 1.0 if sign > 0 else 0.0

    def word_map(a, b):
        # a {u, w} block times a {w, v} block, so u always precedes v;
        # FacePatch.word canonicalizes
        return Word(((u, a), (w, b), (u, 1.0 - a), (v, 1.0), (w, 1.0 - b)))

    def equation(x):
        return sign * (x[axis] - value)

    def outward(x):
        n = np.zeros(3)
        n[axis] = sign
        return n

    return FacePatch(
        kind="flat-triangle",
        id=f"flat-{u}{w}{v}",
        pattern=(u, w, u, v, w),
        dim=2,
        word_map=word_map,
        equation=equation,
        outward=outward,
    )


def flat_triangles() -> list[FacePatch]:
    """Six facet triangles, one per cube facet, from two-block words."""
    perms = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 3, 2)]
    return [_flat_triangle_patch(u, w, v) for u, w, v in perms]


def _quadric(pattern):
    """Equation and gradient of the quadric of pattern (i, j, k, i, j):
    P(i before j) + P(j before k) P(k before i) - 1."""
    i, j, k = pattern[:3]
    (a_ij, s_ij), (a_jk, s_jk), (a_ki, s_ki) = pair_axis(i, j), pair_axis(j, k), pair_axis(k, i)

    def equation(x):
        return precedence(x, i, j) + precedence(x, j, k) * precedence(x, k, i) - 1.0

    def gradient(x):
        g = np.empty(3)
        g[a_ij] = s_ij
        g[a_jk] = s_jk * precedence(x, k, i)
        g[a_ki] = s_ki * precedence(x, j, k)
        return g

    return equation, gradient


def _quadric_patch(pattern) -> FacePatch:
    equation, gradient = _quadric(pattern)

    def word_map(a, b):
        l0, l1, l2, l3, l4 = pattern
        return Word(((l0, a), (l1, b), (l2, 1.0), (l3, 1.0 - a), (l4, 1.0 - b)))

    def outward(x):
        g = gradient(x)
        return g / np.linalg.norm(g)

    return FacePatch(
        kind="quadric",
        id="quadric-" + "".join(map(str, pattern)),
        pattern=tuple(pattern),
        dim=2,
        word_map=word_map,
        equation=equation,
        outward=outward,
    )


def quadric_patches() -> list[FacePatch]:
    """Six quadric patches from 4-switch patterns.

    The cyclic patterns i j k i j give p + qr = 1 and its cyclic images;
    their reversals, which map x to 1 - x, give (1-p) + (1-q)(1-r) = 1 and
    its cyclic images.  Every sampled witness satisfies its equation
    exactly.
    """
    cyclic = [(i, j, 6 - i - j, i, j) for i, j in PQR_PAIRS]
    return [_quadric_patch(pattern) for pattern in cyclic + [p[::-1] for p in cyclic]]


SampledStratum = tuple[FacePatch, list[tuple[tuple[float, ...], Word, PqrPoint]]]


def sample_strata(resolution: int) -> list[SampledStratum]:
    """Every stratum with its `sample_grid(resolution)` rows: the six
    vertices, the twelve edge families, the six flat triangles and the six
    quadric patches, in that order."""
    return [
        (patch, list(patch.sample_grid(resolution)))
        for patch in vertices() + edge_families() + flat_triangles() + quadric_patches()
    ]


@dataclass
class SampleRecord:
    patch_id: str
    params: tuple[float, ...]
    point: tuple[float, float, float]
    boundary: bool


@dataclass
class AtlasMesh:
    """Triangle mesh of the boundary with per-sample provenance and the
    sampled strata it was built from."""

    vertices: list[tuple[float, float, float]] = field(default_factory=list)
    groups: dict[str, list[tuple[int, int, int]]] = field(default_factory=dict)
    samples: list[SampleRecord] = field(default_factory=list)
    strata: list[SampledStratum] = field(default_factory=list)


def trim_and_mesh(resolution: int) -> AtlasMesh:
    """Sample every stratum once (`sample_strata`, kept as `mesh.strata`),
    keep the certified boundary samples of the quadric patches and then the
    flat triangles, and triangulate them.

    A sample is boundary iff `attainability.probe` finds the point
    PROBE_EPS outward unattainable and the point PROBE_EPS inward
    attainable.  The inward probe runs only when the outward verdict is
    unattainable, since no other sample can be boundary.  Every probe fits
    with PROBE_MAX_ARCS arcs, PROBE_STARTS starts per pattern and seed 0,
    so a point that `attainability.closed_form_word` reaches is settled
    without a sweep.

    Only the first patch of each kind is probed; every other patch of that
    kind takes its verdict at the same grid index.  The verdicts agree
    exactly, not up to rounding: a patch of either kind is the first one
    with its letters renamed by some σ in S3, at the same parameters.
    Renaming by σ keeps every duration, sends the point x to its image,
    each coordinate of which is some x_a or 1 - x_a, and sends the outward
    normal along with it; the cube, the sum and golden bounds, the closed
    form and attainability itself are invariant under that map.  Each
    patch keeps its own points, `SampleRecord`s, vertices and face
    orientation.
    """
    probe_kwargs = dict(eps=PROBE_EPS, max_arcs=PROBE_MAX_ARCS, n_starts=PROBE_STARTS, seed=0)
    mesh = AtlasMesh(strata=sample_strata(resolution))
    vertex_index: dict[tuple[float, float, float], int] = {}

    def add_vertex(x: tuple[float, float, float]) -> int:
        key = tuple(round(v, 9) for v in x)
        if key not in vertex_index:
            vertex_index[key] = len(mesh.vertices)
            mesh.vertices.append(x)
        return vertex_index[key]

    def probed(patch: FacePatch, rows) -> list[bool]:
        verdicts = []
        for _, _, point in rows:
            n = patch.outward(point.as_array()).tolist()
            attainable_beyond = partial(attainability.probe, point, **probe_kwargs)
            verdicts.append(not attainable_beyond(n) and attainable_beyond([-v for v in n]))
        return verdicts

    orbit_verdicts: dict[str, list[bool]] = {}  # kind -> verdicts of its first patch
    surfaces = [(p, rows) for kind in ("quadric", "flat-triangle") for p, rows in mesh.strata if p.kind == kind]
    for patch, rows in surfaces:
        if patch.kind not in orbit_verdicts:
            orbit_verdicts[patch.kind] = probed(patch, rows)
        kept = orbit_verdicts[patch.kind]  # flat over the grid, at ia * resolution + ib
        points = [(point.p, point.q, point.r) for _, _, point in rows]
        for (params, _, _), x, boundary in zip(rows, points, kept, strict=True):
            mesh.samples.append(SampleRecord(patch.id, params, x, boundary))

        faces: list[tuple[int, int, int]] = []
        for ia in range(resolution - 1):
            for ib in range(resolution - 1):
                # (ia, ib), (ia + 1, ib), (ia + 1, ib + 1), (ia, ib + 1)
                k = ia * resolution + ib
                corners = (k, k + resolution, k + resolution + 1, k + 1)
                if not all(kept[c] for c in corners):
                    continue
                vids = [add_vertex(points[c]) for c in corners]
                for tri in ((vids[0], vids[1], vids[2]), (vids[0], vids[2], vids[3])):
                    if len(set(tri)) < 3:
                        continue  # parametrization collapsed along a box edge
                    a, b, c = (mesh.vertices[v] for v in tri)
                    u = [bk - ak for ak, bk in zip(a, b)]
                    w = [ck - ak for ak, ck in zip(a, c)]
                    # u x w, with the products and differences of np.cross
                    normal = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
                    center = [(ak + bk + ck) / 3.0 for ak, bk, ck in zip(a, b, c)]
                    if np.dot(normal, patch.outward(center)) < 0:
                        tri = (tri[0], tri[2], tri[1])  # enforce outward orientation
                    faces.append(tri)
        if faces:
            mesh.groups[patch.id] = faces
    return mesh


def write_obj(mesh: AtlasMesh) -> str:
    buf = io.StringIO()
    for x, y, z in mesh.vertices:
        buf.write(f"v {x!r} {y!r} {z!r}\n")
    for group, faces in mesh.groups.items():
        buf.write(f"g {group}\n")
        for i, j, k in faces:
            buf.write(f"f {i + 1} {j + 1} {k + 1}\n")
    return buf.getvalue()


def strata_csv(strata: list[SampledStratum]) -> str:
    """CSV dump of sampled strata (`sample_strata`, `AtlasMesh.strata`):
    label, parameters, p, q, r, witness word; it samples nothing."""
    buf = io.StringIO()
    buf.write("label,params,p,q,r,witness\n")
    for patch, rows in strata:
        for params, word, point in rows:
            params_str = ";".join(map(repr, params))
            witness = json.dumps(word_to_dict(word)).replace('"', '""')
            buf.write(f'{patch.id},{params_str},{point.p!r},{point.q!r},{point.r!r},"{witness}"\n')
    return buf.getvalue()
