import numpy as np

from fsjunta import TruthTable, _kernels

from reference import naive_best_junta_errors, naive_cell_sums


def test_numpy_butterfly_is_an_involution_up_to_scale():
    rng = np.random.default_rng(0)
    a = rng.integers(-5, 6, size=256).astype(np.int64)
    twice = _kernels.wht_inplace(_kernels.wht_inplace(a.copy()))
    assert np.array_equal(twice, a * 256)


def test_cell_sums_match_the_gather_reference():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        t = int(rng.integers(0, n + 1))
        positions = np.sort(rng.choice(n, size=t, replace=False)).astype(np.int64)
        values = rng.integers(-3, 4, size=1 << n)
        assert np.array_equal(_kernels.cell_sums(values, positions),
                              naive_cell_sums(values, positions))


def test_numpy_junta_errors_match_the_naive_count():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        t = int(rng.integers(0, n + 1))
        positions = np.sort(rng.choice(n, size=t, replace=False)).astype(np.int64)
        table = TruthTable(n, 2 * rng.integers(0, 2, size=1 << n) - 1)
        assert (_kernels.junta_errors(table.values, positions)
                == naive_best_junta_errors(table, positions))


def test_backend_name_is_consistent():
    assert _kernels.backend() == "numpy"


def _decoded(cells, keep):
    return [bytes(cells[keep[:, j], j]).decode() for j in range(cells.shape[1])]


def test_decimal_cells_spell_str_of_each_value():
    edges = [0, 1, 9, 10, 99, 100, 101, 999_999, 10**18, 2**63 - 1, 10**19 - 1,
             10**19, 2**64 - 1]
    draw = np.random.default_rng(8).integers(0, 2**64 - 1, size=500,
                                             dtype=np.uint64, endpoint=True)
    for values in (np.array(edges, dtype=np.uint64), draw,
                   np.array([0, 0, 0]), np.array([7]), np.arange(12, dtype=np.int64)):
        cells, keep = _kernels.decimal_cells(values)
        assert cells.dtype == np.uint8 and cells.shape == keep.shape
        assert cells.shape[1] == values.size
        assert _decoded(cells, keep) == [str(int(v)) for v in values]
    cells, keep = _kernels.decimal_cells(np.array([], dtype=np.int64))
    assert cells.shape == keep.shape == (1, 0)
