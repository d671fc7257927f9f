import numpy as np
import pytest

from fsjunta import TruthTable, _kernels, inverse_wht, random_table, wht
from fsjunta.oracles import make_rng

from reference import butterfly_wht, naive_best_junta_errors, naive_cell_sums


def _python_int_wht(values) -> list[int]:
    """sum_x a[x] (-1)^|S & x| for every S, in Python ints."""
    a = [int(v) for v in values]
    return [sum(v if (s & x).bit_count() % 2 == 0 else -v for x, v in enumerate(a))
            for s in range(len(a))]


def _largest_exact(n: int) -> int:
    """The largest max|a| for which max|a| * 2^n stays below 2^53."""
    return (1 << (53 - n)) - 1


def test_wht_is_an_involution_up_to_scale():
    rng = np.random.default_rng(0)
    a = rng.integers(-5, 6, size=256).astype(np.int64)
    before = a.copy()
    twice = _kernels.wht(_kernels.wht(a))
    assert np.array_equal(twice, a * 256)
    assert np.array_equal(a, before)


def test_wht_matches_python_ints_up_to_the_exact_bound():
    rng = np.random.default_rng(11)
    for n in range(9):
        top = _largest_exact(n)
        # constant inputs push the empty-set sum to +-top * 2^n = +-(2^53 - 2^n)
        cases = [np.full(1 << n, top), np.full(1 << n, -top)]
        for _ in range(3):
            a = rng.integers(-top, top, size=1 << n, dtype=np.int64, endpoint=True)
            a[rng.integers(0, 1 << n)] = top * (1 if rng.integers(0, 2) else -1)
            cases.append(a)
        for a in cases:
            expected = _python_int_wht(a)
            before = a.copy()
            out = _kernels.wht(a)
            assert out.dtype == np.int64
            assert out.tolist() == expected
            assert np.array_equal(a, before)


def test_wht_refuses_inputs_at_the_exact_bound_without_touching_them():
    for n in range(9):
        for bad in (_largest_exact(n) + 1, -_largest_exact(n) - 1, -2**63, 2**63 - 1):
            a = np.arange(1 << n, dtype=np.int64)
            a[-1] = bad
            before = a.copy()
            with pytest.raises(OverflowError):
                _kernels.wht(a)
            assert np.array_equal(a, before)


def test_wht_matches_the_integer_butterfly_on_tables_and_round_trips():
    for n in range(1, 21):
        table = random_table(n, make_rng(0, "kernel-wht", n))
        expected = butterfly_wht(table.values.astype(np.int64))
        assert np.array_equal(_kernels.wht(table.values), expected)
        assert np.array_equal(_kernels.wht(table.values.astype(np.int64)),
                              expected)
        sp = wht(table)
        assert np.array_equal(sp.coeffs, expected)
        assert np.array_equal(inverse_wht(sp).values, table.values)
        doubled = butterfly_wht(expected.copy())
        assert np.array_equal(_kernels.wht(sp.coeffs), doubled)
        assert np.array_equal(doubled, table.values.astype(np.int64) << n)


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


def _decoded(cells):
    return [bytes(cells[:, j]).replace(b"\0", b"").decode()
            for j in range(cells.shape[1])]


def test_decimal_cells_spell_str_of_each_value():
    edges = [0, 1, 9, 10, 99, 100, 101, 999_999, 10**18, 2**63 - 1, 10**19 - 1,
             10**19, 2**64 - 1]
    draw = np.random.default_rng(8).integers(0, 2**64 - 1, size=500,
                                             dtype=np.uint64, endpoint=True)
    for values in (np.array(edges, dtype=np.uint64), draw,
                   np.array([0, 0, 0]), np.array([7]), np.arange(12, dtype=np.int64)):
        cells = _kernels.decimal_cells(values)
        assert cells.dtype == np.uint8
        assert cells.shape[1] == values.size
        assert _decoded(cells) == [str(int(v)) for v in values]
        # NUL bytes stand only in place of leading zeros.
        width = cells.shape[0]
        assert [bytes(cells[:, j]) for j in range(values.size)] == [
            str(int(v)).encode().rjust(width, b"\0") for v in values]
    assert _kernels.decimal_cells(np.array([], dtype=np.int64)).shape == (1, 0)
