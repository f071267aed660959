import numpy as np
import pytest

from carnotreach import witness_table
from carnotreach.words import SECTION_TOL, InvariantViolation, canonicalize, pqr


def test_build_reproduces_the_committed_arrays():
    table = witness_table.load()
    built = witness_table.build()
    assert sorted(built) == sorted(witness_table.FIELDS)
    for name in witness_table.FIELDS:
        committed = getattr(table, name)
        assert built[name].dtype == committed.dtype, name
        assert np.array_equal(built[name], committed), name


def test_every_row_is_a_canonical_section_word_in_its_own_cell():
    table = witness_table.load()
    assert len(np.unique(table.cells)) == len(table.cells) > 3000
    flat_cells = np.ravel_multi_index(witness_table.cell_of(table.points).T, (witness_table.GRID,) * 3)
    assert np.array_equal(flat_cells, table.cells)
    for row in range(len(table.cells)):
        letters = table.letters[row]
        n = int((letters > 0).sum())
        # letters fill a prefix; the padding is zero in both arrays
        assert 3 <= n <= witness_table.MAX_ARCS
        assert (letters[n:] == 0).all() and (table.durations[row, n:] == 0.0).all()
        w = table.word(row)
        assert len(w.arcs) == n
        assert canonicalize(w) == w
        assert all(abs(total - 1.0) <= SECTION_TOL for total in w.letter_totals().values())
        assert np.abs(pqr(w).as_array() - table.points[row]).max() <= 1e-12


def test_nearest_searches_the_27_cells_around_the_target():
    table = witness_table.load()
    grid_cells = witness_table.cell_of(table.points)
    rng = np.random.default_rng(4)
    found = 0
    for x in rng.uniform(0.0, 1.0, size=(300, 3)):
        w = witness_table.nearest(x, 8)
        around = np.abs(grid_cells - witness_table.cell_of(x)).max(axis=1) <= 1
        if not around.any():
            assert w is None
            continue
        found += 1
        best = np.sqrt(((table.points[around] - x) ** 2).sum(axis=1)).min()
        assert np.linalg.norm(pqr(w).as_array() - x) <= best + 1e-12
    assert found > 150
    # no word lies near the excluded corner (1, 1, 1)
    assert witness_table.nearest(np.ones(3), 8) is None


def test_nearest_skips_words_too_long_to_pad():
    table = witness_table.load()
    arcs = (table.letters > 0).sum(axis=1)
    rng = np.random.default_rng(6)
    found = 0
    for x in rng.uniform(0.0, 1.0, size=(200, 3)):
        around = np.abs(witness_table.cell_of(table.points) - witness_table.cell_of(x)).max(axis=1) <= 1
        for max_arcs in (4, 5, 6, 7):
            w = witness_table.nearest(x, max_arcs)
            eligible = around & (arcs < max_arcs)
            if not eligible.any():
                assert w is None
                continue
            found += 1
            assert len(w.arcs) <= max_arcs - 1
            best = np.sqrt(((table.points[eligible] - x) ** 2).sum(axis=1)).min()
            assert np.linalg.norm(pqr(w).as_array() - x) <= best + 1e-12
    assert found > 300
    # every table word has at most MAX_ARCS arcs, so from MAX_ARCS + 1 on nothing is skipped
    x = table.points[0]
    for max_arcs in (witness_table.MAX_ARCS + 1, 8, 10):
        assert witness_table.nearest(x, max_arcs) == table.word(0)
    # three arcs cannot be padded within max_arcs 3
    assert witness_table.nearest(x, 3) is None


def test_load_arrays_are_read_only():
    table = witness_table.load()
    with pytest.raises(ValueError):
        table.points[0, 0] = 0.5


@pytest.mark.parametrize("broken", ["missing", "no-cells", "short-points"])
def test_a_missing_or_malformed_table_raises(tmp_path, monkeypatch, broken):
    arrays = witness_table.build()
    path = tmp_path / "table.npz"
    if broken == "no-cells":
        del arrays["cells"]
    if broken == "short-points":
        arrays["points"] = arrays["points"][:-1]
    if broken != "missing":
        np.savez(path, **arrays)
    monkeypatch.setattr(witness_table, "PATH", path)
    # the uncached loader, so the committed table stays cached for other tests
    with pytest.raises(FileNotFoundError if broken == "missing" else InvariantViolation):
        witness_table.load.__wrapped__()
