"""Hot integer kernels: numba-compiled loops with pure-numpy fallbacks.

The numba path is taken when numba imports cleanly and the environment
variable ``FSJUNTA_NO_NUMBA`` is unset (or set to ``0``/``false``/empty).
Both paths produce bit-identical int64 results, so everything downstream
is exact regardless of backend. ``benchmarks/bench_kernels.py`` compares
their throughput.
"""
from __future__ import annotations

import os

import numpy as np


def _numba_disabled_by_env() -> bool:
    raw = os.environ.get("FSJUNTA_NO_NUMBA", "")
    return raw.strip().lower() not in ("", "0", "false", "no")


NUMBA_DISABLED = _numba_disabled_by_env()

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via FSJUNTA_NO_NUMBA")
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:
    _njit = None
    HAVE_NUMBA = False


def wht_numpy(a: np.ndarray) -> np.ndarray:
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


def _wht_loop(a):  # pragma: no cover - exercised via the compiled wrapper
    size = a.shape[0]
    h = 1
    while h < size:
        step = 2 * h
        for start in range(0, size, step):
            for j in range(start, start + h):
                x = a[j]
                y = a[j + h]
                a[j] = x + y
                a[j + h] = x - y
        h *= 2
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


def junta_errors_numpy(values: np.ndarray, positions: np.ndarray) -> int:
    """Disagreement count between ``values`` and its closest function that
    depends only on the variables listed in ``positions``.

    Per assignment to ``positions`` the closest function takes the majority
    value over the fiber, so the count is ``sum_cell min(#-1, #+1)``.
    """
    neg = cell_sums(values < 0, positions)
    fiber = values.shape[0] >> positions.shape[0]
    return int(np.minimum(neg, fiber - neg).sum())


def _junta_errors_loop(values, positions):  # pragma: no cover - compiled
    total = values.shape[0]
    t = positions.shape[0]
    cells = 1 << t
    neg = np.zeros(cells, dtype=np.int64)
    for x in range(total):
        if values[x] < 0:
            c = 0
            for b in range(t):
                c |= ((x >> positions[b]) & 1) << b
            neg[c] += 1
    fiber = total >> t
    err = 0
    for c in range(cells):
        bad = neg[c]
        good = fiber - bad
        err += bad if bad < good else good
    return err


if HAVE_NUMBA:
    wht_numba = _njit(cache=True)(_wht_loop)
    junta_errors_numba = _njit(cache=True)(_junta_errors_loop)
    wht_inplace = wht_numba
    junta_errors = junta_errors_numba
else:
    wht_numba = None
    junta_errors_numba = None
    wht_inplace = wht_numpy
    junta_errors = junta_errors_numpy


def backend() -> str:
    """Name of the active kernel backend, ``numba`` or ``numpy``."""
    return "numba" if HAVE_NUMBA else "numpy"


def warmup() -> None:
    """Trigger JIT compilation on tiny inputs so later calls run hot."""
    wht_inplace(np.array([1, -1], dtype=np.int64))
    junta_errors(np.array([1, 1, -1, -1], dtype=np.int8),
                 np.array([0], dtype=np.int64))
