import numpy as np
import pytest

from fsjunta import _kernels, random_table, wht
from fsjunta.oracles import make_rng

from reference import butterfly_wht


def _python_int_wht(values) -> list[int]:
    """sum_x a[x] (-1)^|S & x| for every S, in Python ints."""
    a = [int(v) for v in values]
    return [sum(v if (s & x).bit_count() % 2 == 0 else -v for x, v in enumerate(a))
            for s in range(len(a))]


def _python_int_butterfly(values) -> list[int]:
    """The butterfly on Python ints (an object array): exact at any size, in
    O(n 2^n) steps where :func:`_python_int_wht` takes O(4^n)."""
    return butterfly_wht(values.astype(object)).tolist()


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


def _edge_cases(n: int, peak: int, rng) -> list[np.ndarray]:
    """Inputs of length 2^n with max|a| = peak: both constants, and mixed
    signs with one entry at +-peak."""
    cases = [np.full(1 << n, peak), np.full(1 << n, -peak)]
    for _ in range(2):
        a = rng.integers(-peak, peak, size=1 << n, dtype=np.int64, endpoint=True)
        a[rng.integers(0, 1 << n)] = peak * (1 if rng.integers(0, 2) else -1)
        cases.append(a)
    return cases


@pytest.mark.parametrize("n, dtype", [(n, np.int64) for n in range(15)]
                         + [(18, np.int8)])
def test_wht_is_exact_on_both_sides_of_the_float32_bound(n, dtype):
    # max|a| * 2^n = 2^24 - 2^n, the largest that runs in float32, and
    # 2^24, the smallest that runs in float64; int8 holds both at n = 18.
    rng = np.random.default_rng(n)
    cases = []
    for peak in ((1 << (24 - n)) - 1, 1 << (24 - n)):
        cases += _edge_cases(n, peak, rng)
    if dtype is np.int64:
        # below 2^25 but past float32: an odd empty-set sum of 2^25 - 2^n - 1
        # (2^25 - 1 at n = 0), which float32 would round
        odd = np.full(1 << n, (1 << (25 - n)) - 1)
        if n:
            odd[0] -= 1
        cases.append(odd)
    for a in cases:
        a = a.astype(dtype)
        before = a.copy()
        out = _kernels.wht(a)
        assert out.dtype == np.int64
        assert out.tolist() == _python_int_butterfly(a)
        assert np.array_equal(a, before)


def test_wht_sums_past_float32_exactly():
    # max|a| * 2^n = 2^25, and the empty-set sum 2^25 - 1 is odd
    a = np.array([1 << 24, (1 << 24) - 1])
    assert _kernels.wht(a).tolist() == [(1 << 25) - 1, 1]


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
        doubled = butterfly_wht(expected.copy())
        assert np.array_equal(_kernels.wht(sp.coeffs), doubled)
        assert np.array_equal(doubled, table.values.astype(np.int64) << n)


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
    columns = [np.array(edges, dtype=np.uint64), draw,
               np.array([0, 0, 0]), np.array([7]), np.arange(12, dtype=np.int64)]
    rng = np.random.default_rng(9)
    for dtype in (np.int64, np.uint64):
        # the largest column read as uint32 and the smallest read as uint64
        columns += [np.array([top, 0, 9, 10**9], dtype=dtype)
                    for top in (2**32 - 1, 2**32)]
        # every width, odd ones ending the two-digit loop on a single digit
        for width in range(1, 21):
            low = 10 ** (width - 1) if width > 1 else 0
            high = min(10**width - 1, int(np.iinfo(dtype).max))
            if high >= low:
                picks = rng.integers(low, high, size=20, dtype=np.uint64,
                                     endpoint=True).tolist()
                columns.append(np.array([low, high, 0, 5, 10, 99, 100] + picks,
                                        dtype=dtype))
    for values in columns:
        cells = _kernels.decimal_cells(values)
        assert cells.dtype == np.uint8
        assert cells.shape[1] == values.size
        assert _decoded(cells) == [str(int(v)) for v in values]
        # NUL bytes stand only in place of leading zeros.
        width = cells.shape[0]
        assert [bytes(cells[:, j]) for j in range(values.size)] == [
            str(int(v)).encode().rjust(width, b"\0") for v in values]
    assert _kernels.decimal_cells(np.array([], dtype=np.int64)).shape == (1, 0)
