"""Exact Boolean functions on {-1,+1}^n stored as dense truth tables.

Conventions used throughout the package:

* ``-1`` means True and ``+1`` means False.
* Variables are 0-indexed.
* A point of {-1,+1}^n is encoded as a table index whose bit ``i`` equals
  ``(1 - x_i) / 2``, i.e. bit set means variable ``i`` is -1.
* Bit layout: a 2^n table reshaped in C order to ``(2,)*n`` has variable
  ``i`` on axis ``n-1-i``. :func:`lift` broadcasts a table over a subset of
  the variables to all ``n`` of them on that layout, and :func:`cell_sums`
  is its adjoint, summing out the other axes. On indices and masks,
  :func:`project_assignments` and its inverse :func:`deposit_assignments`
  move bits by one shift per run of consecutive positions. All four refuse
  positions that are not strictly increasing and non-negative (or, for
  tables, not below ``n``).

Tables are capped at ``N_MAX`` variables so every table and spectrum stays
dense and exact; larger ambient dimensions are served by the analytic
samplers in :mod:`fsjunta.oracles`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np


N_MAX = 24

#: Default cap on table reads for exhaustive subset scans.
DEFAULT_SCAN_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """An exhaustive scan would exceed its configured work budget."""


def _as_index(value) -> int:
    """``value`` as a Python int; ``TypeError`` unless it is an integer.
    ``operator.index`` alone would read ``True`` as 1, so a bool is refused
    first."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def mask_from_vars(variables: Iterable[int]) -> int:
    mask = 0
    for v in variables:
        mask |= 1 << _as_index(v)
    return mask


def vars_from_mask(mask: int) -> tuple[int, ...]:
    """The set bits of a non-negative mask, ascending. Walks the set bits
    only, so a wide mask with few of them is cheap."""
    m = _as_index(mask)
    if m < 0:
        raise ValueError("a subset mask must be non-negative")
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def union_mask(masks: np.ndarray) -> int:
    """Bitwise OR of a batch of subset masks (int64 or object array)."""
    return int(np.bitwise_or.reduce(masks, initial=0))


def _check_n(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"variable count must be in 1..{N_MAX}, got {n}")


def _indices(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def _positions(values: Iterable[int], n: int | None = None) -> tuple[int, ...]:
    """Variable positions as a tuple of ints: ``TypeError`` unless each is an
    integer, ``ValueError`` unless -1, the positions and ``n`` (if given)
    are strictly increasing."""
    pos = tuple(_as_index(v) for v in values)
    ends = () if n is None else (n,)
    if any(b <= a for a, b in zip((-1,) + pos, pos + ends)):
        raise ValueError(f"positions must strictly increase in 0..n-1: {pos}, n={n}")
    return pos


def _shift_runs(positions: Sequence[int]) -> dict[int, int]:
    """Each shift ``positions[t] - t`` mapped to the mask of the bits ``t``
    that move by it: one entry per run of consecutive positions. Positions
    are strictly increasing and non-negative exactly when no shift falls
    below the one before it or below 0, so that is checked as it goes."""
    runs: dict[int, int] = {}
    for t, p in enumerate(positions):
        shift = _as_index(p) - t
        if shift < next(reversed(runs), 0):  # the last key is the last shift
            raise ValueError(f"positions must strictly increase from 0: {positions}")
        runs[shift] = runs.get(shift, 0) | (1 << t)
    return runs


def project_assignments(indices: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Project table indices onto the given variable positions.

    Bit ``t`` of the result is the input's bit at ``positions[t]``, so the
    projected value indexes a table over just those variables. Positions
    must be strictly increasing, as for :func:`lift`; every run of
    consecutive positions moves with one shift and one mask.
    """
    proj = np.zeros(np.shape(indices), dtype=np.int64)
    for shift, mask in _shift_runs(positions).items():
        proj |= (indices >> shift) & mask
    return proj


def deposit_assignments(inner: np.ndarray, positions: Sequence[int],
                        dtype) -> np.ndarray:
    """The inverse of :func:`project_assignments`: bit ``t`` of each int64
    ``inner`` value moves to bit ``positions[t]`` of the result, as
    ``dtype`` (``object`` for positions past bit 62), one run at a time."""
    out = np.zeros(np.shape(inner), dtype=dtype)
    for shift, mask in _shift_runs(positions).items():
        out |= (inner & mask).astype(dtype, copy=False) << shift
    return out


def lift(values: np.ndarray, positions: Sequence[int], n: int) -> np.ndarray:
    """Read-only ``(2,)*n`` view of a table over ``positions`` as a function
    of all ``n`` variables.

    ``values[a]`` is the value at the assignment whose bit ``t`` is variable
    ``positions[t]``; ``positions`` must be strictly increasing. Variable
    ``i`` sits on axis ``n-1-i``, so ``.reshape(-1)`` gives the dense 2^n
    table in index order.
    """
    shape = [1] * n
    for p in _positions(positions, n):
        shape[n - 1 - p] = 2
    return np.broadcast_to(np.asarray(values).reshape(shape), (2,) * n)


def cell_sums(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Sum a length-2^n table over each assignment's fiber, in int64.

    Entry ``a`` of the result is the sum of ``values[x]`` over the inputs
    ``x`` whose bits at the strictly increasing ``positions`` spell ``a``
    (bit ``t`` of ``a`` is bit ``positions[t]`` of ``x``): the adjoint of
    :func:`lift`, summing out the other variables' axes.
    """
    n = values.shape[0].bit_length() - 1
    kept = {n - 1 - p for p in _positions(positions, n)}
    dropped = [axis for axis in range(n) if axis not in kept]
    cube = values.astype(np.int64).reshape((2,) * n)
    # One axis at a time, outermost first: each sum then runs over long
    # contiguous blocks, about ten times faster than one multi-axis sum.
    for removed, axis in enumerate(dropped):
        cube = cube.sum(axis=axis - removed)
    return np.asarray(cube).reshape(-1)


def junta_errors(values: np.ndarray, positions: tuple[int, ...]) -> int:
    """Disagreement count between ``values`` and its closest function of the
    variables at ``positions``: the majority vote over each assignment's
    fiber, so the count is ``sum_cell min(#-1, #+1)``."""
    neg = cell_sums(values < 0, positions)
    fiber = values.shape[0] >> len(positions)
    return int(np.minimum(neg, fiber - neg).sum())


@dataclass(frozen=True, eq=False)
class TruthTable:
    """A {-1,+1}-valued function on {-1,+1}^n as a dense 2^n table.

    ``values`` is stored as a read-only int8 array. The constructor checks
    and copies its input; :func:`random_table` adopts its fresh draw as it
    is.
    """

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_n(self.n)
        vals = _as_integers(self.values)
        if vals.shape != (1 << self.n,):
            raise ValueError(
                f"table for n={self.n} needs {1 << self.n} entries, got shape {vals.shape}")
        if not np.all(np.abs(vals) == 1):
            raise ValueError("table entries must all be -1 or +1")
        vals = vals.astype(np.int8, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def make_parity(n: int, subset: int) -> TruthTable:
    """Product of the variables in ``subset``; the empty product is +1."""
    _check_n(n)
    if not 0 <= _as_index(subset) < (1 << n):
        raise ValueError("subset mask out of range")
    parity = np.bitwise_count(np.uint64(subset) & _indices(n).astype(np.uint64))
    vals = (1 - 2 * (parity.astype(np.int8) & 1)).astype(np.int8)
    return TruthTable(n, vals)


@dataclass(frozen=True)
class JuntaSpec:
    """A function of ``n`` variables that reads only ``relevant`` ones.

    ``inner`` gives the behavior on those variables; position ``t`` of the
    inner table corresponds to ``relevant[t]``. The constructor checks its
    input; :func:`random_junta_spec` adopts what it draws as it is.
    """

    n: int
    relevant: tuple[int, ...]
    inner: TruthTable

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient variable count must be positive")
        rel = _positions(self.relevant, self.n)
        object.__setattr__(self, "relevant", rel)
        if len(rel) != self.inner.n:
            raise ValueError("inner table arity must match the relevant set size")

    @property
    def k(self) -> int:
        return len(self.relevant)


def as_junta(f: TruthTable | JuntaSpec) -> JuntaSpec:
    """A table as the junta on all of its variables; a spec as it is."""
    return f if isinstance(f, JuntaSpec) else JuntaSpec(f.n, range(f.n), f)


def make_junta(spec: JuntaSpec) -> TruthTable:
    _check_n(spec.n)
    return TruthTable(spec.n,
                      lift(spec.inner.values, spec.relevant, spec.n).reshape(-1))


def random_table(n: int, rng: np.random.Generator) -> TruthTable:
    """A uniform random table, adopted without the constructor's checks:
    gathering ``[-1, 1]`` at 2^n drawn bits gives a fresh int8 array of
    2^n entries, each -1 or +1."""
    _check_n(n)
    # 2b - 1 for each drawn bit b, gathered as int8: no int64 +-1 array is built.
    values = np.array([-1, 1], dtype=np.int8)[rng.integers(0, 2, size=1 << n)]
    return _adopt(TruthTable, n=n, values=values)


def random_junta_spec(n: int, k: int, rng: np.random.Generator) -> JuntaSpec:
    """A random k-junta on n variables, adopted without the constructor's
    checks: ``rng.choice(n, k, replace=False)``, sorted, gives k strictly
    increasing positions in 0..n-1, as plain ints by ``tolist``, and the
    inner table is on exactly k variables."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    relevant = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    return _adopt(JuntaSpec, n=n, relevant=relevant, inner=random_table(k, rng))


_DICTATOR = np.array([1, -1], dtype=np.int8)


def _addressing_table(r: int, n: int, slots, signs) -> TruthTable:
    """Table on n variables whose first r form an address; at address a it
    is ``signs[a]`` times non-address variable ``slots[a]`` (variable
    r + slots[a]).

    Address variable j is the address bit of weight 2^(r-1-j) and sits on
    axis n-1-j, so axis n-r+q carries bit q of the address.
    """
    _check_n(n)
    vals = np.empty((2,) * n, dtype=np.int8)
    for a, (slot, sign) in enumerate(zip(slots, signs)):
        vals[(...,) + tuple((a >> q) & 1 for q in range(r))] = lift(
            sign * _DICTATOR, [slot], n - r)
    return TruthTable(n, vals.reshape(-1))


def _as_integers(values) -> np.ndarray:
    """``values`` as an array; ``TypeError`` unless every element is an
    integer, since a cast to int64 would truncate a float and read a bool
    as 0 or 1 without a word. An integer ndarray passes on its dtype alone. A
    list or an object array is checked element by element, since numpy
    promotes a list mixing bools and ints to int64. An empty sequence,
    whose dtype numpy guesses as float64, is left to the shape checks."""
    arr = np.asarray(values)
    if not arr.size or (arr.dtype.kind in "iu" and isinstance(values, np.ndarray)):
        return arr
    if arr.dtype.kind not in "iuO":
        raise TypeError(f"expected integers, got an array of dtype {arr.dtype}")
    for value in np.asarray(values, dtype=object).flat:
        _as_index(value)
    return arr


def _frozen_int64(values) -> np.ndarray:
    arr = _as_integers(values).astype(np.int64)
    arr.setflags(write=False)
    return arr


def _check_instance_common(r: int, n: int, tau: np.ndarray, leaves: int) -> None:
    if r < 1:
        raise ValueError("need r >= 1")
    if tau.shape != (leaves,):
        raise ValueError(f"tau must list {leaves} variable slots")
    ordered = np.sort(tau)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("tau entries must be distinct")
    if ordered[0] < 0 or ordered[-1] >= n - r:
        raise ValueError("tau entries must index the non-address variables")


@dataclass(frozen=True, eq=False)
class RejectInstance:
    """Addressing over r address variables with all 2^r leaves wired to
    distinct non-address variables; far from every (r + 2^{r-1})-junta.

    ``tau`` is stored as a read-only int64 array. The constructor checks its
    input; :func:`sample_reject_instance` skips that check, because
    ``rng.choice(n - r, size=2^r, replace=False)`` returns exactly 2^r
    distinct int64 slots in ``0..n-r-1``, and it freezes that fresh array in
    place instead of copying it.
    """

    r: int
    n: int
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", _frozen_int64(self.tau))
        _check_instance_common(self.r, self.n, self.tau, 1 << self.r)


@dataclass(frozen=True, eq=False)
class AcceptInstance:
    """Addressing variant wiring leaf pairs (i, 2^r-1-i) to the same
    variable up to a per-pair sign, so only r + 2^{r-1} variables matter.

    ``tau`` and ``s`` are stored as read-only int64 arrays. The constructor
    checks its input; :func:`sample_accept_instance` skips that check,
    because its ``tau`` comes from ``rng.choice(..., replace=False)`` as for
    :class:`RejectInstance`, and its ``s`` is ``2 * b - 1`` for 2^{r-1} bits
    b in {0, 1}. It freezes both fresh arrays in place instead of copying
    them.
    """

    r: int
    n: int
    tau: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", _frozen_int64(self.tau))
        object.__setattr__(self, "s", _frozen_int64(self.s))
        _check_instance_common(self.r, self.n, self.tau, 1 << (self.r - 1))
        if self.s.shape != (1 << (self.r - 1),):
            raise ValueError("need one sign per wired leaf pair")
        if (np.abs(self.s) != 1).any():
            raise ValueError("signs must be -1 or +1")


def _adopt(cls, **fields):
    """A ``cls`` holding freshly built fields that meet its checks by
    construction: each array frozen in place, no field copied or checked.
    It skips the constructor, so every call names every field; one
    ``__dict__`` update is cheaper than ``object.__setattr__`` per field."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def sample_reject_instance(r: int, n: int, rng: np.random.Generator) -> RejectInstance:
    if r < 1:
        raise ValueError("need r >= 1")
    big_r = 1 << r
    if n - r < big_r:
        raise ValueError(f"need n >= r + 2^r = {r + big_r}")
    return _adopt(RejectInstance, r=r, n=n,
                  tau=rng.choice(n - r, size=big_r, replace=False))


def sample_accept_instance(r: int, n: int, rng: np.random.Generator) -> AcceptInstance:
    if r < 1:
        raise ValueError("need r >= 1")
    half = 1 << (r - 1)
    if n - r < half:
        raise ValueError(f"need n >= r + 2^(r-1) = {r + half}")
    tau = rng.choice(n - r, size=half, replace=False)
    return _adopt(AcceptInstance, r=r, n=n, tau=tau,
                  s=2 * rng.integers(0, 2, size=half) - 1)


def realize_reject(inst: RejectInstance) -> TruthTable:
    """Full truth table of a reject instance (variable r+j carries slot j).

    The first r variables form an address and the output is the variable
    wired to the addressed leaf: all address variables equal to -1 select
    the last leaf, ``tau[2^r - 1]``; all equal to +1 select the first,
    ``tau[0]``.
    """
    return _addressing_table(inst.r, inst.n, inst.tau,
                             np.ones(1 << inst.r, dtype=np.int64))


def realize_accept(inst: AcceptInstance) -> TruthTable:
    """Full truth table of an accept instance; leaf 2^r-1-i carries
    ``s[i]`` times the variable wired to leaf i."""
    half = 1 << (inst.r - 1)
    # Leaf a < half is pair a with sign +1; leaf 2^r-1-i is pair i with s[i].
    return _addressing_table(
        inst.r, inst.n, np.concatenate([inst.tau, inst.tau[::-1]]),
        np.concatenate([np.ones(half, dtype=np.int64), inst.s[::-1]]))


def distance(f: TruthTable, g: TruthTable) -> Fraction:
    """Fraction of inputs where the two tables disagree, exact."""
    if f.n != g.n:
        raise ValueError("tables must share the same variable count")
    return Fraction(int(np.count_nonzero(f.values != g.values)), 1 << f.n)


def influence_direct(f: TruthTable, i: int) -> Fraction:
    """Probability that flipping variable ``i`` changes the output, exact."""
    if not 0 <= _as_index(i) < f.n:
        raise IndexError(f"variable {i} out of range for n={f.n}")
    flipped = f.values[_indices(f.n) ^ (1 << i)]
    return Fraction(int(np.count_nonzero(f.values != flipped)), 1 << f.n)


def best_junta_on(f: TruthTable, subset: int) -> TruthTable:
    """Closest function to ``f`` among those depending only on ``subset``:
    the per-assignment majority vote, ties broken toward +1."""
    if not 0 <= _as_index(subset) < (1 << f.n):
        raise ValueError("subset mask out of range")
    positions = vars_from_mask(subset)
    neg = cell_sums(f.values < 0, positions)
    fiber = (1 << f.n) >> len(positions)
    majority = np.where(neg * 2 > fiber, -1, 1).astype(np.int8)
    return TruthTable(f.n, lift(majority, positions, f.n).reshape(-1))


def distance_to_best_junta_on(f: TruthTable, subset: int) -> Fraction:
    if not 0 <= _as_index(subset) < (1 << f.n):
        raise ValueError("subset mask out of range")
    err = junta_errors(f.values, vars_from_mask(subset))
    return Fraction(err, 1 << f.n)


def distance_to_k_junta(f: TruthTable, k: int,
                        budget: int = DEFAULT_SCAN_BUDGET) -> Fraction:
    """Distance from ``f`` to the closest function depending on at most
    ``k`` variables, by scanning every size-k subset."""
    if _as_index(k) < 0:
        raise ValueError("k must be non-negative")
    if k >= f.n:
        return Fraction(0)
    size = 1 << f.n
    work = math.comb(f.n, k) * size
    if work > budget:
        raise BudgetExceededError(
            f"scan needs {work} table reads, budget is {budget}")
    best = size
    for combo in combinations(range(f.n), k):
        err = junta_errors(f.values, combo)
        if err < best:
            best = err
            if best == 0:
                break
    return Fraction(best, size)
