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
