"""Precomputed witness words: one short section word per cell of a grid
over the unit cube.

`fit` refines the table word nearest its target before any sweep when the
caller passes no hint, among the words short enough to pad within its
`max_arcs`.  The table is exact code only: a fixed seeded batch
of random canonical section words of 3 to MAX_ARCS arcs, each mapped to
its (p, q, r), and in every cell of a GRID^3 grid the word whose point
lies nearest the cell centre.  MAX_ARCS is 6 so that both zero-arc
paddings of the refinement fit under the default cap of 8 arcs.

The arrays are committed next to this module; regenerate them with

    python -m carnotreach.witness_table

A missing or malformed table raises; there is no fallback.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .words import InvariantViolation, Word

__all__ = ["GRID", "MAX_ARCS", "PATH", "WitnessTable", "build", "cell_of", "load", "nearest"]

GRID = 20
MAX_ARCS = 6
# random words drawn per length 3..MAX_ARCS
WORDS_PER_LENGTH = 7500
SEED = 7
PATH = Path(__file__).with_name("witness_table.npz")
FIELDS = ("letters", "durations", "points", "cells")

# the 27 cells around a cell, itself included
_NEIGHBOURS = np.array(np.meshgrid(*[(-1, 0, 1)] * 3, indexing="ij")).reshape(3, -1).T


@dataclass(frozen=True)
class WitnessTable:
    """Words as rows: letters (N, MAX_ARCS), 0 past the word's end;
    durations (N, MAX_ARCS); points (N, 3); cells (N,), each the flat
    index of the grid cell holding the row's point.  `index` maps a flat
    cell to its row, or -1 for an empty cell."""

    letters: np.ndarray
    durations: np.ndarray
    points: np.ndarray
    cells: np.ndarray
    index: np.ndarray

    def word(self, row: int) -> Word:
        letters, durations = self.letters[row].tolist(), self.durations[row].tolist()
        return Word(tuple((l, t) for l, t in zip(letters, durations) if l))


def cell_of(points: np.ndarray) -> np.ndarray:
    """(..., 3) grid coordinates of the cells holding the points; 1 falls in the last cell."""
    return np.minimum((np.asarray(points) * GRID).astype(np.int64), GRID - 1)


def _flat(cells: np.ndarray) -> np.ndarray:
    return np.ravel_multi_index(cells.T, (GRID,) * 3)


def build() -> dict[str, np.ndarray]:
    """The table arrays, deterministically: per length n in 3..MAX_ARCS,
    WORDS_PER_LENGTH uniform canonical patterns with flat-Dirichlet
    durations per letter, and per cell the word nearest the cell centre."""
    # imported here: attainability imports this module for `nearest`
    from .attainability import _letter_onehot, _pair_masks, _patterns_of_length, _renormalize

    rng = np.random.default_rng(SEED)
    letters, durations, points = [], [], []
    for n in range(3, MAX_ARCS + 1):
        patterns = np.array(_patterns_of_length(n))
        pat = patterns[rng.integers(len(patterns), size=WORDS_PER_LENGTH)]
        t = _renormalize(rng.gamma(1.0, size=(WORDS_PER_LENGTH, 1, n)), _letter_onehot(pat))[:, 0]
        points.append(np.einsum("pklm,pl,pm->pk", _pair_masks(pat), t, t))
        letters.append(np.pad(pat, ((0, 0), (0, MAX_ARCS - n))))
        durations.append(np.pad(t, ((0, 0), (0, MAX_ARCS - n))))
    letters, durations, points = (np.concatenate(a) for a in (letters, durations, points))
    grid_cells = cell_of(points)
    centre_sq = (((grid_cells + 0.5) / GRID - points) ** 2).sum(axis=1)
    cells = _flat(grid_cells)
    # by cell, then by distance to its centre: the first row of each cell wins
    order = np.lexsort((centre_sq, cells))
    _, first = np.unique(cells[order], return_index=True)
    keep = order[first]
    return {
        "letters": letters[keep].astype(np.int8),
        "durations": durations[keep],
        "points": points[keep],
        "cells": cells[keep].astype(np.int32),
    }


@lru_cache(maxsize=None)
def load() -> WitnessTable:
    """The committed table, read once; its arrays are read-only."""
    with np.load(PATH) as data:
        missing = [name for name in FIELDS if name not in data.files]
        if missing:
            raise InvariantViolation("witness-table", f"{PATH.name} lacks {missing}")
        letters, durations, points, cells = (data[name] for name in FIELDS)
    rows = len(cells)
    shapes = {
        "letters": (letters.shape, (rows, MAX_ARCS)),
        "durations": (durations.shape, (rows, MAX_ARCS)),
        "points": (points.shape, (rows, 3)),
    }
    bad = {name: got for name, (got, want) in shapes.items() if got != want}
    if bad or cells.ndim != 1 or not ((0 <= cells) & (cells < GRID**3)).all():
        raise InvariantViolation("witness-table", f"{PATH.name} is malformed: shapes {bad}, cells {cells.shape}")
    index = np.full(GRID**3, -1)
    index[cells] = np.arange(rows)
    for array in (letters, durations, points, cells, index):
        array.flags.writeable = False
    return WitnessTable(letters, durations, points, cells, index)


def nearest(x: np.ndarray, max_arcs: int) -> Word | None:
    """The table word whose point lies nearest x among the 27 cells around
    x's cell, of those with at most max_arcs - 1 arcs, so that padding it
    with one zero-duration arc stays within max_arcs; None when there is no
    such word."""
    table = load()
    around = cell_of(x) + _NEIGHBOURS
    around = around[((around >= 0) & (around < GRID)).all(axis=1)]
    rows = table.index[_flat(around)]
    rows = rows[rows >= 0]
    rows = rows[(table.letters[rows] > 0).sum(axis=1) < max_arcs]
    if not rows.size:
        return None
    return table.word(int(rows[np.argmin(((table.points[rows] - x) ** 2).sum(axis=1))]))


if __name__ == "__main__":
    np.savez(PATH, **build())
    print(f"wrote {PATH}")
