"""Boundary strata of the attainable section in (p, q, r) coordinates.

Generators for every named stratum: the six vertices, twelve
one-parameter edge families (cube edges from mixed singular+bang words,
facet diagonals from 3-switch words), six flat facet triangles from
products of two two-letter blocks, and six quadric patches from 4-switch
words.  Every stratum is a `FacePatch`: a letter pattern and, for each
arc, which of 1, a parameter t or 1 - t it lasts, so one rule maps the
unit parameter cube [0, 1]^dim, with dim 0 for a vertex, to witness words
and each sampled point is attained by construction; facets and quadric
equations follow from the letter-pair rule `words.pair_axis`.

The quadric patches, generated in full, overlap the interior of the
attainable body; `trim_and_mesh` samples every stratum once
(`sample_strata`), asks `attainability.fit` about the points a fixed step
PROBE_EPS along the normal of each surface sample, keeps the samples whose
outward side is unattainable and inward side attainable, and assembles a
triangle mesh exported as OBJ; `strata_csv` formats the sampled strata
the mesh keeps.

The six quadric patches are one orbit of the letter permutations S3, and
so are the six flat triangles: each is the first patch of its kind with
its `pattern` renamed and the same `durations`, so at the same parameters
every arc keeps its duration.  Renaming maps each coordinate of the point,
and of the outward normal, to a coordinate or its complement, and
attainability is invariant under it, so `trim_and_mesh` probes only the
first patch of each kind.
"""
from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import attainability
from .words import (
    PQR_PAIRS, InvariantViolation, PqrPoint, Word, canonicalize, pair_axis, pqr, precedence, require_int, require_real,
    word_to_dict,
)

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

# the step and the `fit` settings of every `trim_and_mesh` probe (`_attainable_beyond`)
PROBE_EPS = 1e-3
PROBE_MAX_ARCS = 6
PROBE_STARTS = 6
# cap on the rows of `sample_strata`, 12 r^2 + 12 r + 6 at resolution r: a row
# holds about 750 bytes, so this admits r <= 147 in about 200 MB and rejects a
# larger --resolution before it allocates without limit
MAX_SAMPLE_ROWS = 2**18


@dataclass(frozen=True)
class FacePatch:
    """A parametrized stratum of the boundary atlas, as plain data.

    The witness word at a parameter tuple of the unit cube [0, 1]^dim
    has the letters of `pattern`; arc l lasts
    `(1.0, *params, *[1.0 - t for t in reversed(params)])[durations[l]]`,
    so index 0 gives 1.0, d > 0 gives params[d - 1] and d < 0 gives
    1.0 - params[-d - 1].  `dim` is the largest |d|, 0 for a vertex.
    """

    kind: str  # vertex | cube-edge | diagonal-edge | flat-triangle | quadric
    id: str
    pattern: tuple[int, ...]
    durations: tuple[int, ...]

    @property
    def dim(self) -> int:
        return max(map(abs, self.durations))

    def word(self, *params) -> Word:
        """The witness word at `params`: `dim` real numbers, else
        InvariantViolation "stratum-params"; a float skips require_real."""
        if len(params) != self.dim:
            raise InvariantViolation("stratum-params", f"{self.id} takes {self.dim} parameters, got {len(params)}")
        params = [t if type(t) is float else require_real("stratum-params", t) for t in params]
        values = (1.0, *params, *[1.0 - t for t in reversed(params)])
        return canonicalize(Word(tuple([(l, values[d]) for l, d in zip(self.pattern, self.durations)])))

    def point(self, *params) -> PqrPoint:
        return pqr(self.word(*params))

    def equation(self, x) -> float:
        """Vanishes on a flat triangle or a quadric patch and is nonpositive
        on the body side."""
        if self.kind == "quadric":
            return _quadric(self.pattern, x)[0]
        axis, sign = self._facet()
        return sign * (x[axis] - (1.0 if sign > 0 else 0.0))

    def outward(self, x) -> np.ndarray:
        """The unit normal at x of a flat triangle or a quadric patch,
        pointing away from the body."""
        if self.kind == "quadric":
            g = _quadric(self.pattern, x)[1]
            return g / np.linalg.norm(g)
        axis, sign = self._facet()
        n = np.zeros(3)
        n[axis] = sign
        return n

    def _facet(self) -> tuple[int, float]:
        """`pair_axis` of the facet P(u before v) = 1 that holds a flat
        triangle (u, w, u, v, w); no other kind has a facet or a quadric."""
        if self.kind != "flat-triangle":
            raise InvariantViolation("stratum-kind", f"a {self.kind} stratum has no surface equation")
        return pair_axis(self.pattern[0], self.pattern[3])

    def sample_grid(self, resolution: int):
        """Yield (params, word, point) over a regular grid of the cube, the
        last parameter varying fastest; parameters are Python floats."""
        require_int("resolution", resolution, 2)
        axis = np.linspace(0.0, 1.0, resolution).tolist()
        for params in itertools.product(axis, repeat=self.dim):
            w = self.word(*params)
            yield params, w, pqr(w)


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
    return [FacePatch("vertex", label, pattern, (0, 0, 0)) for pattern, label in table.items()]


def edge_families() -> list[FacePatch]:
    """Twelve one-parameter families: six cube edges, the block (i, s),
    (j, 1), (i, 1 - s) with the third letter k after ("post") or before
    ("pre") it, and six facet diagonals (k, a), (i, 1), (j, 1), (k, 1 - a)."""
    patches = []
    for i, j, k in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        patches.append(FacePatch("cube-edge", f"cube-edge-{i}{j}-post{k}", (i, j, i, k), (1, 0, -1, 0)))
        patches.append(FacePatch("cube-edge", f"cube-edge-{i}{j}-pre{k}", (k, i, j, i), (0, 1, 0, -1)))
    for i, j, k in ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2)):
        patches.append(FacePatch("diagonal-edge", f"diagonal-{i}{j}", (k, i, j, k), (1, 0, 0, -1)))
    return patches


def flat_triangles() -> list[FacePatch]:
    """Six facet triangles, one per cube facet, from two-block words: a
    {u, w} block times a {w, v} block, (u, a), (w, b), (u, 1 - a), (v, 1),
    (w, 1 - b), so u always precedes v."""
    perms = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 3, 2)]
    return [FacePatch("flat-triangle", f"flat-{u}{w}{v}", (u, w, u, v, w), (1, 2, -1, 0, -2)) for u, w, v in perms]


def _quadric(pattern, x) -> tuple[float, np.ndarray]:
    """Value and gradient at x of the quadric of pattern (i, j, k, i, j):
    P(i before j) + P(j before k) P(k before i) - 1."""
    i, j, k = pattern[:3]
    (a_ij, s_ij), (a_jk, s_jk), (a_ki, s_ki) = pair_axis(i, j), pair_axis(j, k), pair_axis(k, i)
    equation = precedence(x, i, j) + precedence(x, j, k) * precedence(x, k, i) - 1.0
    g = np.empty(3)
    g[a_ij] = s_ij
    g[a_jk] = s_jk * precedence(x, k, i)
    g[a_ki] = s_ki * precedence(x, j, k)
    return equation, g


def quadric_patches() -> list[FacePatch]:
    """Six quadric patches from the 4-switch words (i, a), (j, b), (k, 1),
    (i, 1 - a), (j, 1 - b).

    The cyclic patterns i j k i j give p + qr = 1 and its cyclic images;
    their reversals, which map x to 1 - x, give (1-p) + (1-q)(1-r) = 1 and
    its cyclic images.  Every sampled witness satisfies its equation
    exactly.
    """
    cyclic = [(i, j, 6 - i - j, i, j) for i, j in PQR_PAIRS]
    return [
        FacePatch("quadric", "quadric-" + "".join(map(str, p)), p, (1, 2, 0, -1, -2))
        for p in cyclic + [p[::-1] for p in cyclic]
    ]


SampledStratum = tuple[FacePatch, list[tuple[tuple[float, ...], Word, PqrPoint]]]


def sample_strata(resolution: int) -> list[SampledStratum]:
    """Every stratum with its `sample_grid(resolution)` rows: the six
    vertices, the twelve edge families, the six flat triangles and the six
    quadric patches, in that order.

    A table of more than MAX_SAMPLE_ROWS rows raises "resolution" before
    anything is sampled."""
    require_int("resolution", resolution, 2)
    patches = vertices() + edge_families() + flat_triangles() + quadric_patches()
    rows = sum(resolution**patch.dim for patch in patches)
    if rows > MAX_SAMPLE_ROWS:
        raise InvariantViolation("resolution", f"resolution {resolution} samples {rows} rows, over {MAX_SAMPLE_ROWS}")
    return [(patch, list(patch.sample_grid(resolution))) for patch in patches]


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


def _attainable_beyond(point: PqrPoint, direction: list[float]) -> bool:
    """Whether the point PROBE_EPS along `direction` is attainable: not if it
    leaves the unit cube by more than 1e-12, else iff `attainability.fit`,
    called through the module so that a wrapper of it sees every probe,
    attains its clip to the cube with PROBE_MAX_ARCS arcs, PROBE_STARTS
    starts and seed 0.  The point and its clip are c + PROBE_EPS d and
    min(max(c, 0), 1) in Python floats; errors of `fit` propagate."""
    x = [c + PROBE_EPS * v for c, v in zip((point.p, point.q, point.r), direction)]
    if any(c < -1e-12 or c > 1.0 + 1e-12 for c in x):
        return False
    target = PqrPoint(*(min(max(c, 0.0), 1.0) for c in x))
    return attainability.fit(target, max_arcs=PROBE_MAX_ARCS, n_starts=PROBE_STARTS, seed=0).status == "attained"


def trim_and_mesh(resolution: int) -> AtlasMesh:
    """Sample every stratum once (`sample_strata`, kept as `mesh.strata`),
    keep the certified boundary samples of the quadric patches and then the
    flat triangles, and triangulate them.

    A sample is boundary iff `_attainable_beyond` finds the point
    PROBE_EPS outward unattainable and the point PROBE_EPS inward
    attainable.  The inward probe runs only when the outward verdict is
    unattainable, since no other sample can be boundary, and a point that
    `attainability.closed_form_word` reaches is settled without a sweep.

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
    mesh = AtlasMesh(strata=sample_strata(resolution))
    vertex_index: dict[tuple[float, float, float], int] = {}

    def add_vertex(x: tuple[float, float, float]) -> int:
        key = tuple(round(v, 9) for v in x)
        if key not in vertex_index:
            vertex_index[key] = len(mesh.vertices)
            mesh.vertices.append(x)
        return vertex_index[key]

    def probed(patch: FacePatch, rows) -> list[bool]:
        normals = [(point, patch.outward(point.as_array()).tolist()) for _, _, point in rows]
        return [not _attainable_beyond(point, n) and _attainable_beyond(point, [-v for v in n]) for point, n in normals]

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
