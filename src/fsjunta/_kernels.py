"""Hot integer kernels in plain numpy: the spectral butterfly, the
fiber sums that are the adjoint of :func:`fsjunta.boolfn.lift`, the
subset majority-vote scan built on them, and the decimal digit encoder
behind the CSV writer.

Every kernel works in 64-bit integers (int64; the digit encoder in
uint64), so everything downstream is exact.
``e2ebench/run.py`` times them end to end, inside the experiments that
use them.
"""
from __future__ import annotations

import numpy as np


def wht_inplace(a: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly on a length-2^n int64 array.

    After the pass, ``a[S] = sum_x (-1)^{popcount(S & x)} a_in[x]``.
    Applying it twice multiplies the input by 2^n.
    """
    size = a.shape[0]
    h = 1
    while h < size:
        blocks = a.reshape(-1, 2 * h)
        lo = blocks[:, :h].copy()
        hi = blocks[:, h:]
        blocks[:, :h] = lo + hi
        blocks[:, h:] = lo - hi
        h <<= 1
    return a


def cell_sums(values: np.ndarray, positions) -> np.ndarray:
    """Sum a length-2^n table over each assignment's fiber.

    Entry ``a`` of the result is the sum of ``values[x]`` over the inputs
    ``x`` whose bits at the strictly increasing ``positions`` spell ``a``
    (bit ``t`` of ``a`` is bit ``positions[t]`` of ``x``). It is the adjoint
    of :func:`fsjunta.boolfn.lift`: on the ``(2,)*n`` layout, where variable
    ``i`` is axis ``n-1-i``, it sums out the axes of the other variables.
    """
    n = values.shape[0].bit_length() - 1
    kept = {n - 1 - int(p) for p in positions}
    dropped = [axis for axis in range(n) if axis not in kept]
    cube = values.astype(np.int64).reshape((2,) * n)
    # One axis at a time, outermost first: each sum then runs over long
    # contiguous blocks, about ten times faster than one multi-axis sum.
    for removed, axis in enumerate(dropped):
        cube = cube.sum(axis=axis - removed)
    return np.asarray(cube).reshape(-1)


def junta_errors(values: np.ndarray, positions: np.ndarray) -> int:
    """Disagreement count between ``values`` and its closest function that
    depends only on the variables listed in ``positions``.

    Per assignment to ``positions`` the closest function takes the majority
    value over the fiber, so the count is ``sum_cell min(#-1, #+1)``.
    """
    neg = cell_sums(values < 0, positions)
    fiber = values.shape[0] >> positions.shape[0]
    return int(np.minimum(neg, fiber - neg).sum())


def decimal_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII decimal digits of non-negative integers, one column per value.

    Returns a ``(width, N)`` uint8 matrix, with ``width`` the digit count of
    the largest value and each value right-aligned in its column, and the
    mask of the digits that are not leading zeros: row ``width - 1 - p``
    holds the ``10**p`` digit and is kept iff the value is ``>= 10**p``
    (the units row always). Values are read as uint64, so any int64 or
    uint64 column of non-negative values is exact.
    """
    rest = values.astype(np.uint64)
    width = len(str(int(rest.max()))) if rest.size else 1
    digits = np.empty((width, rest.size), dtype=np.uint8)
    keep = np.empty((width, rest.size), dtype=bool)
    low = np.empty(rest.size, dtype=np.uint8)
    for row in range(width - 1, -1, -1):
        # Row width-1-p: rest is values // 10**p, nonzero iff values >= 10**p.
        np.not_equal(rest, 0, out=keep[row])
        # One division per digit. The digit is rest - 10 * (rest // 10), and
        # uint8 arithmetic wraps modulo 256, so the low bytes of rest and of
        # rest // 10 give it exactly.
        np.copyto(digits[row], rest, casting="unsafe")
        np.floor_divide(rest, 10, out=rest)
        np.copyto(low, rest, casting="unsafe")
        low *= 10
        digits[row] -= low
    digits += ord("0")
    keep[width - 1] = True
    return digits, keep


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
