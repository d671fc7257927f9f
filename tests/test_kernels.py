import os
import subprocess
import sys

import numpy as np
import pytest

from fsjunta import TruthTable, _kernels

from reference import naive_best_junta_errors, naive_cell_sums


def test_numpy_butterfly_is_an_involution_up_to_scale():
    rng = np.random.default_rng(0)
    a = rng.integers(-5, 6, size=256).astype(np.int64)
    twice = _kernels.wht_numpy(_kernels.wht_numpy(a.copy()))
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
        assert (_kernels.junta_errors_numpy(table.values, positions)
                == naive_best_junta_errors(table, positions))


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba backend inactive")
def test_backends_are_bit_identical():
    rng = np.random.default_rng(1)
    for n in (1, 4, 8, 12):
        a = rng.integers(-(1 << 20), 1 << 20, size=1 << n).astype(np.int64)
        assert np.array_equal(_kernels.wht_numba(a.copy()),
                              _kernels.wht_numpy(a.copy()))

    values = (2 * rng.integers(0, 2, size=1 << 10) - 1).astype(np.int8)
    for _ in range(20):
        t = int(rng.integers(0, 5))
        positions = np.sort(rng.choice(10, size=t, replace=False)).astype(np.int64)
        assert (_kernels.junta_errors_numba(values, positions)
                == _kernels.junta_errors_numpy(values, positions))


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, FSJUNTA_NO_NUMBA="1")
    probe = ("import fsjunta._kernels as k; "
             "print(k.backend(), k.wht_numba is None)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["numpy", "True"]


def test_backend_name_is_consistent():
    assert _kernels.backend() in ("numba", "numpy")
    assert (_kernels.backend() == "numba") == _kernels.HAVE_NUMBA
