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
attainable body; `trim_and_mesh` probes each sample with
`attainability.probe`, keeps the samples whose outward side is
unattainable and inward side attainable, and assembles a triangle mesh
exported as OBJ.
"""
from __future__ import annotations

import io
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
    "triangle_word",
    "quadric_patches",
    "trim_and_mesh",
    "write_obj",
    "strata_csv",
]

# the `fit` settings of every `trim_and_mesh` probe
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
        """Yield (params, word, point) over a regular grid of the cube."""
        require_int("resolution", resolution, 2)
        axis = np.linspace(0.0, 1.0, resolution)
        for idx in np.ndindex(*(resolution,) * self.dim):
            params = tuple(axis[i] for i in idx)
            w = self.word(*params)
            yield params, w, pqr(w)


def _vertex_patch(pattern: tuple[int, int, int], label: str) -> FacePatch:
    def word_map():
        return Word.of((l, 1.0) for l in pattern)

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
        return Word.of(arcs)

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
        return Word.of([(k, a), (i, 1.0), (j, 1.0), (k, 1.0 - a)])

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


def triangle_word(u: int, w: int, v: int, a: float, b: float) -> Word:
    """Product of a {u, w} block and a {w, v} block; sweeps the facet
    triangle where u always precedes v."""
    return canonicalize(Word.of([(u, a), (w, b), (u, 1.0 - a), (v, 1.0), (w, 1.0 - b)]))


def _flat_triangle_patch(u: int, w: int, v: int) -> FacePatch:
    axis, sign = pair_axis(u, v)  # the patch lies on the facet P(u before v) = 1
    value = 1.0 if sign > 0 else 0.0

    def word_map(a, b):
        return triangle_word(u, w, v, a, b)

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
        return Word.of([(l0, a), (l1, b), (l2, 1.0), (l3, 1.0 - a), (l4, 1.0 - b)])

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


@dataclass
class SampleRecord:
    patch_id: str
    params: tuple[float, ...]
    point: tuple[float, float, float]
    boundary: bool


@dataclass
class AtlasMesh:
    """Triangle mesh of the boundary with per-sample provenance."""

    vertices: list[tuple[float, float, float]] = field(default_factory=list)
    groups: dict[str, list[tuple[int, int, int]]] = field(default_factory=dict)
    samples: list[SampleRecord] = field(default_factory=list)


def trim_and_mesh(resolution: int, eps: float = 1e-3) -> AtlasMesh:
    """Sample the surface patches, keep certified boundary samples, and
    triangulate them.

    A sample is boundary iff `attainability.probe` finds the point eps
    outward unattainable and the point eps inward attainable.  The inward
    probe runs only when the outward verdict is unattainable, since no
    other sample can be boundary.  Every probe fits with PROBE_MAX_ARCS
    arcs, PROBE_STARTS starts per pattern and seed 0, so a point that
    `attainability.closed_form_word` reaches is settled without a sweep.
    """
    probe_kwargs = dict(max_arcs=PROBE_MAX_ARCS, n_starts=PROBE_STARTS, seed=0)
    mesh = AtlasMesh()
    vertex_index: dict[tuple[float, float, float], int] = {}

    def add_vertex(x: np.ndarray) -> int:
        key = tuple(round(float(v), 9) for v in x)
        if key not in vertex_index:
            vertex_index[key] = len(mesh.vertices)
            mesh.vertices.append(tuple(float(v) for v in x))
        return vertex_index[key]

    for patch in quadric_patches() + flat_triangles():
        points, kept = [], []
        for params, _, point in patch.sample_grid(resolution):
            x = point.as_array()
            n = patch.outward(x)
            attainable_beyond = partial(attainability.probe, point, eps=eps, **probe_kwargs)
            boundary = not attainable_beyond(n) and attainable_beyond(-n)
            mesh.samples.append(
                SampleRecord(patch.id, tuple(float(v) for v in params), tuple(x), boundary)
            )
            points.append(x)
            kept.append(boundary)
        grid = np.reshape(points, (resolution, resolution, 3))
        kept = np.reshape(kept, (resolution, resolution))

        faces: list[tuple[int, int, int]] = []
        for ia in range(resolution - 1):
            for ib in range(resolution - 1):
                corners = [(ia, ib), (ia + 1, ib), (ia + 1, ib + 1), (ia, ib + 1)]
                if not all(kept[c] for c in corners):
                    continue
                vids = [add_vertex(grid[c]) for c in corners]
                for tri in ((vids[0], vids[1], vids[2]), (vids[0], vids[2], vids[3])):
                    if len(set(tri)) < 3:
                        continue  # parametrization collapsed along a box edge
                    pts = [np.array(mesh.vertices[v]) for v in tri]
                    normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
                    center = (pts[0] + pts[1] + pts[2]) / 3.0
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


def strata_csv(resolution: int = 11) -> str:
    """CSV dump of all strata: label, parameters, p, q, r, witness word."""
    buf = io.StringIO()
    buf.write("label,params,p,q,r,witness\n")
    for patch in vertices() + edge_families() + flat_triangles() + quadric_patches():
        for params, word, point in patch.sample_grid(resolution):
            params_str = ";".join(repr(float(v)) for v in params)
            witness = json.dumps(word_to_dict(word)).replace('"', '""')
            buf.write(f'{patch.id},{params_str},{point.p!r},{point.q!r},{point.r!r},"{witness}"\n')
    return buf.getvalue()
