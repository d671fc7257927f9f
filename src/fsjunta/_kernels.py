"""Hot kernels in plain numpy: the Walsh-Hadamard transform and the
decimal digit encoder behind the CSV writer.

Every result is exact. The transform applies H_{2^n} as a Kronecker
product of Sylvester blocks of at most 64 x 64, one BLAS product per
block, in the narrowest float type that holds every partial sum: every
partial sum is an integer of magnitude at most ``max|a| * 2^n``, which
float32 holds exactly below 2^24 and float64 below 2^53, whatever order
BLAS adds in; the transform refuses any input at 2^53 or above. The digit
encoder works in uint32 (uint64 for a column whose largest value is 2^32 or
more) with its digits split in uint8.
``e2ebench/run.py`` times them end to end, inside the experiments that
use them.
"""
from __future__ import annotations

import numpy as np


#: Largest Hadamard block, as a power of two. A pass costs 2^b multiply-adds
#: per entry, so blocks are kept small; 2^4 to 2^7 time alike at n = 12..22
#: on a 2-vCPU VM, and 2^8 is slower at n = 16 and 22.
_BLOCK_BITS = 6
# Exact ranges: every integer of magnitude below 2^24 is a float32, and every
# one below 2^53 a float64.
_FLOAT32_LIMIT = 1 << 24
_FLOAT64_LIMIT = 1 << 53
_HADAMARD: dict[tuple[int, type], np.ndarray] = {}


def _hadamard(bits: int, dtype: type) -> np.ndarray:
    """The +-1 Sylvester matrix ``H[i, j] = (-1)^popcount(i & j)`` of order
    2^bits, as read-only ``dtype``, built on first use and cached."""
    block = _HADAMARD.get((bits, dtype))
    if block is None:
        block = np.ones((1, 1), dtype=dtype)
        for _ in range(bits):
            block = np.block([[block, block], [block, -block]])
        block.setflags(write=False)
        _HADAMARD[bits, dtype] = block
    return block


def wht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^n integer array, as a new
    int64 array: ``out[S] = sum_x (-1)^{popcount(S & x)} values[x]``,
    exactly. The input, in any integer dtype, is read and not modified;
    applying the transform twice multiplies it by 2^n.

    H_{2^n} is the Kronecker product of Sylvester blocks of at most 2^6, one
    per bit range, low bits first. The lowest block is one product on the
    right, ``x.reshape(-1, 2^b) @ H``; every higher block is one batched
    ``H @ x.reshape(-1, 2^b, 2^done)``, where ``done`` counts the bits below
    it, so the highest block is a batch of one: a single product on the
    left. Two float buffers take turns as the input and the output. The
    products run through BLAS and are exact: every partial sum, in whatever
    order BLAS adds, is an integer of magnitude at most
    ``max|values| * 2^n``. That bound is computed, in Python ints, before the
    data is touched: below 2^24 the products run in float32 (every +-1 table
    up to n = 23), below 2^53 in float64, and otherwise ``OverflowError``.
    """
    size = values.shape[0]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("the transform needs a length that is a power of two")
    bound = max(int(values.max()), -int(values.min())) << n
    if bound >= _FLOAT64_LIMIT:
        raise OverflowError(f"max|a| * 2^n = {bound} is not below 2^53, "
                            f"so float64 sums would not be exact")
    dtype = np.float32 if bound < _FLOAT32_LIMIT else np.float64
    parts = -(-n // _BLOCK_BITS)
    widths = [n // parts + (i < n % parts) for i in range(parts)]
    src = values.astype(dtype)
    dst = np.empty_like(src)
    done = 0
    for bits in widths:
        h = _hadamard(bits, dtype)
        if done == 0:
            np.matmul(src.reshape(-1, 1 << bits), h, out=dst.reshape(-1, 1 << bits))
        else:
            np.matmul(h, src.reshape(-1, 1 << bits, 1 << done),
                      out=dst.reshape(-1, 1 << bits, 1 << done))
        src, dst = dst, src
        done += bits
    return src.astype(np.int64)


def decimal_cells(values: np.ndarray) -> np.ndarray:
    """ASCII decimal digits of non-negative integers, one column per value.

    Returns a ``(width, N)`` uint8 matrix, with ``width`` the digit count of
    the largest value and each value right-aligned in its column: row
    ``width - 1 - p`` holds the ``10**p`` digit, or a NUL byte where the
    value is below ``10**p`` (a leading zero; the units row always holds a
    digit). Values are read as uint32 when the largest is below 2^32 and as
    uint64 otherwise, so any int64 or uint64 column of non-negative values
    is exact.
    """
    top = int(values.max()) if values.size else 0
    rest = values.astype(np.uint32 if top < 1 << 32 else np.uint64)
    width = len(str(top))
    digits = np.empty((width, rest.size), dtype=np.uint8)
    pair = np.empty(rest.size, dtype=np.uint8)
    tens = np.empty(rest.size, dtype=np.uint8)
    shown = np.ones(rest.size, dtype=np.uint8)
    for row in range(width - 1, -1, -2):
        # Rows row and row-1 hold the 10**p and 10**(p+1) digits, where rest
        # is values // 10**p. One wide division per two digits: pair is
        # rest - 100 * (rest // 100), and uint8 arithmetic wraps modulo 256,
        # so the low bytes of rest and of rest // 100 give it exactly; the
        # 0-99 pair is then split in uint8.
        np.copyto(pair, rest, casting="unsafe")
        np.floor_divide(rest, 100, out=rest)
        np.copyto(tens, rest, casting="unsafe")
        tens *= 100
        pair -= tens
        np.floor_divide(pair, 10, out=tens)
        units = digits[row]
        np.multiply(tens, 10, out=units)
        np.subtract(pair, units, out=units)
        units += ord("0")
        units *= shown
        if row == 0:
            break
        # The next pair's units row shows iff values // 10**(p+2), now rest,
        # is nonzero; this pair's tens row iff that or its own digit is.
        np.not_equal(rest, 0, out=shown)
        np.bitwise_or(tens, shown, out=pair)
        high = digits[row - 1]
        np.not_equal(pair, 0, out=high)
        tens += ord("0")
        high *= tens
    return digits


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
