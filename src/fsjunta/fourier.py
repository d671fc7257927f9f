"""Exact integer Walsh-Hadamard spectra and spectral identities.

Coefficients are stored scaled by 2^n: ``coeffs[S] = sum_x f(x) chi_S(x)``
where ``chi_S`` is the parity of the variables in bitmask ``S``. With that
scaling every identity in this module is an integer equality; nothing here
needs a floating-point tolerance. For n <= 24 all magnitudes stay far
inside int64 (coefficients below 2^25, squares below 2^50). The transform
itself runs as BLAS products (see :mod:`fsjunta._kernels`), which are
exact: every partial sum is an integer below 2^24 in float32, or below
2^53 in float64, and those types hold every such integer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .boolfn import TruthTable, _adopt, _as_index, _as_integers, _check_n

# Chunk length for exact int64 sums of squares: 2^14 terms of at most 2^48
# each stay below 2^62, so no chunk can overflow before it is folded into
# an arbitrary-precision Python int.
_SUMSQ_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Integer-scaled Fourier coefficients of a Boolean function."""

    n: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_n(self.n)
        arr = _as_integers(self.coeffs)
        if arr.shape != (1 << self.n,):
            raise ValueError(
                f"spectrum for n={self.n} needs {1 << self.n} coefficients")
        arr = arr.astype(np.int64, copy=True)
        bound = 1 << self.n
        if arr.max() > bound or arr.min() < -bound:
            raise ValueError("coefficient magnitude exceeds 2^n")
        if np.bitwise_or.reduce(arr) & 1:
            # Each coefficient is a sum of 2^n terms of +-1, hence even.
            raise ValueError("coefficients of an n>=1 table are all even")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def _exact_sum_squares(arr: np.ndarray) -> int:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    total = 0
    for off in range(0, arr.size, _SUMSQ_CHUNK):
        chunk = arr[off:off + _SUMSQ_CHUNK]
        total += int(np.dot(chunk, chunk))
    return total


def wht(f: TruthTable) -> Spectrum:
    """Exact integer spectrum of a table, O(n 2^n) arithmetic.

    The int8 table goes straight into :func:`fsjunta._kernels.wht`: H_{2^n}
    applied as a Kronecker product of Sylvester blocks of at most 64 x 64,
    one BLAS product per block. Every partial sum is an integer of
    magnitude at most 2^n, so the products run in float32, exact below
    2^24, up to n = 23, and in float64, exact below 2^53, at n = 24. The
    new array is adopted as it is: a transform of a +-1 table has even
    coefficients of magnitude at most 2^n, which ``Spectrum(...)`` would
    check again.
    """
    return _adopt(Spectrum, n=f.n, coeffs=_kernels.wht(f.values))


def parseval_check(sp: Spectrum) -> bool:
    """True iff the squared coefficients sum to exactly 4^n."""
    return _exact_sum_squares(sp.coeffs) == 1 << (2 * sp.n)


def influence_spectral(sp: Spectrum, i: int) -> Fraction:
    """Spectral weight on subsets containing variable ``i``, exact."""
    if not 0 <= _as_index(i) < sp.n:
        raise IndexError(f"variable {i} out of range for n={sp.n}")
    # Masks with bit i set are the upper half of each block of 2^(i+1).
    with_bit = sp.coeffs.reshape(-1, 1 << (i + 1))[:, (1 << i):]
    return Fraction(_exact_sum_squares(with_bit.ravel()), 1 << (2 * sp.n))


def projection_values(f: TruthTable, subset: int) -> np.ndarray:
    """2^n times the projection of ``f`` onto coefficients inside ``subset``.

    Entry x equals ``sum_{S subset of T} coeffs[S] chi_S(x)``, an exact
    integer array (the scaled conditional mean of f given the variables
    in ``subset``). The second transform reads the masked coefficients,
    with partial sums at most 4^n <= 2^48.
    """
    if not 0 <= _as_index(subset) < (1 << f.n):
        raise ValueError("subset mask out of range")
    masks = np.arange(1 << f.n, dtype=np.int64)
    masked = np.where((masks | subset) == subset, wht(f).coeffs, 0)
    return _kernels.wht(masked)


def sign_projection(f: TruthTable, subset: int) -> TruthTable:
    """Sign of the projection of ``f`` onto ``subset``, with sign(0) := +1.

    The zero case never arises from the underlying identities; +1 (False)
    is fixed for determinism.
    """
    proj = projection_values(f, subset)
    return TruthTable(f.n, np.where(proj < 0, -1, 1).astype(np.int8))
