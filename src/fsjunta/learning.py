"""Two-stage junta learner: spectral draws find the influential variables,
cheap uniform examples then fill in a table over them.

Stage 1 unions the subsets returned by ceil((10k/eps) ln(10k)) spectral
draws. With the influence threshold theta = eps/(10k) this makes
(1-theta)^N <= 1/(10k), so by a union bound every variable of influence at
least theta is found with probability at least 9/10; and every variable
returned is genuinely relevant, because subsets with nonzero weight only
contain relevant variables.

Stage 2 draws uniform labeled examples and records, for each assignment to
the found variables, the label of the first example projecting onto it. It
stops once at least a 1 - eps/3 fraction of assignments have been seen, or
at the example cap. Assignments never seen evaluate to -1 (True).

Examples are drawn in chunks, and every chunk is projected in one array
pass. The number of examples the stage needs is a coupon-collector count,
so the first chunk is that count's mean plus two standard deviations,
from closed forms, and most trials end inside it. Each next chunk is
twice the last, but none is longer than a quarter of the cells (at least
2^16) or ``DRAWS_MAX``, so a chunk's arrays stay in proportion to the
table it fills. The stage stops at the exact example where coverage is
reached or the cap is hit and ignores the rest of that chunk, so the
hypothesis and the reported example count equal those of drawing one
example at a time.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boolfn import (N_MAX, JuntaSpec, TruthTable, _adopt, _as_integers, _positions,
                     as_junta, lift, project_assignments)
from .oracles import DRAWS_MAX, ExOracle, FsOracle

#: Entry value marking a hypothesis cell that no example ever reached.
UNSEEN = 0

SUCCESS = "success"
STAGE_ONE_OVERFLOW = "stage1-overflow"
STAGE_TWO_TIMEOUT = "stage2-timeout"


@dataclass(frozen=True)
class Hypothesis:
    """A function determined by a variable list and a partial table.

    ``entries[a]`` is the recorded label for assignment ``a`` to ``vars``
    (bit t of ``a`` is the assignment bit of ``vars[t]``), or ``UNSEEN``.
    Unseen cells evaluate to -1 (True). The constructor checks and copies
    its input; :func:`learn_junta` adopts the hypothesis it fills as it is.
    """

    vars: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vars", _positions(self.vars))
        arr = _as_integers(self.entries)
        if arr.shape != (1 << len(self.vars),):
            raise ValueError("entry table must have one cell per assignment")
        if not np.all(np.isin(arr, (-1, UNSEEN, 1))):
            raise ValueError("entries must be -1, +1 or UNSEEN")
        arr = arr.astype(np.int8, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def _filled(self) -> np.ndarray:
        """Entries with unseen cells set to their value, -1."""
        return np.where(self.entries == UNSEEN, -1, self.entries).astype(np.int8)

    def to_text(self) -> str:
        head = "A=" + ",".join(str(v) for v in self.vars)
        body = "".join(
            "?" if e == UNSEEN else ("+" if e > 0 else "-") for e in self.entries)
        return f"{head}\n{body}\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypothesis":
        lines = text.strip().splitlines()
        if len(lines) != 2 or not lines[0].startswith("A="):
            raise ValueError("expected 'A=<indices>' then one row over +-?")
        spec = lines[0][2:].strip()
        variables = tuple(int(tok) for tok in spec.split(",")) if spec else ()
        row = lines[1].strip()
        if set(row) - {"+", "-", "?"}:
            raise ValueError("entry row may only contain '+', '-' and '?'")
        entries = np.fromiter(
            (UNSEEN if ch == "?" else (1 if ch == "+" else -1) for ch in row),
            dtype=np.int8, count=len(row))
        return cls(variables, entries)


@dataclass(frozen=True)
class LearnerReport:
    hypothesis: Hypothesis | None
    fs_calls: int
    ex_calls: int
    encountered_fraction: Fraction
    status: str


@functools.lru_cache(typed=True)
def coverage_target(cells: int, eps: float) -> int:
    """ceil((1 - eps/3) * cells), exact for the decimal ``eps``: the number
    of assignments stage 2 must see."""
    return math.ceil((1 - Fraction(str(eps)) / 3) * cells)


@functools.lru_cache
def _collector_moments(cells: int, needed: int) -> tuple[float, float]:
    """Mean and standard deviation of the number of uniform examples that
    see ``needed`` of ``cells`` assignments, in closed form.

    The count is a sum of geometrics with success x/cells for x = cells,
    cells - 1, ..., cells - needed + 1: mean sum cells/x and variance
    sum cells (cells - x)/x^2. Each sum is read as the integral of its term
    from low = cells - needed + 1/2, the midpoint rule backwards. The mean
    is never below ``needed`` (1/x is convex), so neither is the first
    chunk that :func:`learn_junta` sizes from these.
    """
    low = cells - needed + 0.5
    rho = cells / low
    mean = cells * math.log((cells + 0.5) / low)
    return mean, math.sqrt(cells * (rho - 1 - math.log(rho)))


def stage_one_draws(k: int, eps: float) -> int:
    return math.ceil((10 * k / eps) * math.log(10 * k))


def default_example_cap(k: int, eps: float) -> int:
    """ceil(8 * 2^k * ln(max(1/eps, e))): the example budget with an
    explicit constant; hitting it is reported, never silent."""
    return math.ceil(8 * (1 << k) * math.log(max(1 / eps, math.e)))


def find_influential(fs: FsOracle, k: int, eps: float) -> tuple[int, ...]:
    """Union of the subsets from ceil((10k/eps) ln(10k)) spectral draws."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    return fs.draw_exposed(stage_one_draws(k, eps))


def learn_junta(fs: FsOracle, ex: ExOracle, k: int, eps: float,
                max_ex_draws: int | None = None) -> LearnerReport:
    """Run both stages against a target promised to depend on at most k
    variables; see the module docstring for the procedure.

    Statuses: ``stage1-overflow`` if more than k variables were exposed
    (impossible under the promise), ``stage2-timeout`` if the example cap
    was reached before coverage, else ``success``.

    Stage 2 draws ``ex.draw_batch`` chunks of c, 2c, 4c, ... examples,
    where c is the mean plus two standard deviations of the examples
    needed (:func:`_collector_moments`), each cut to the cap's remainder,
    to a window of max(cells / 4, 2^16) and to ``DRAWS_MAX``, and finds
    each cell's first example in a chunk with one ``np.minimum.at``.
    In the chunk where coverage is reached it keeps the examples up to that
    one and ignores the others, so ``ex_calls`` counts the examples used,
    exactly as with one-at-a-time draws; ``ex.calls`` also counts the
    ignored rest of that chunk.

    The hypothesis is adopted without the constructor's checks: its
    variables are ``draw_exposed``'s ascending ints, and its entries a
    fresh int8 array of one cell per assignment, each 0 (``UNSEEN``) or an
    example's ±1 label.
    """
    before = fs.calls
    found = find_influential(fs, k, eps)
    fs_used = fs.calls - before
    if len(found) > k:
        return LearnerReport(None, fs_used, 0, Fraction(0), STAGE_ONE_OVERFLOW)

    cap = default_example_cap(k, eps) if max_ex_draws is None else max_ex_draws
    cells = 1 << len(found)
    needed = coverage_target(cells, eps)
    entries = np.zeros(cells, dtype=np.int8)
    seen = draws = 0
    mean, sd = _collector_moments(cells, needed)
    chunk = math.ceil(mean + 2 * sd)
    window = max(cells >> 2, 1 << 16)
    while seen < needed and draws < cap:
        m = min(chunk, cap - draws, window, DRAWS_MAX)
        xs, ys = ex.draw_batch(m)
        cell = project_assignments(xs, found)
        del xs
        # int32 indices: m <= DRAWS_MAX = 2^24
        first = np.full(cells, m, dtype=np.int32)
        np.minimum.at(first, cell, np.arange(m, dtype=np.int32))
        new = np.flatnonzero((first < m) & (entries == UNSEEN))
        if seen + new.size >= needed:
            stop = int(np.sort(first[new])[needed - seen - 1]) + 1
            new = new[first[new] < stop]
            m = stop
        entries[new] = ys[first[new]]
        seen += new.size
        draws += m
        chunk *= 2
    status = SUCCESS if seen >= needed else STAGE_TWO_TIMEOUT
    hypothesis = _adopt(Hypothesis, vars=found, entries=entries)
    return LearnerReport(hypothesis, fs_used, draws, Fraction(seen, cells), status)


def hypothesis_error(f: TruthTable | JuntaSpec, hypothesis: Hypothesis) -> Fraction:
    """Exact disagreement fraction between a target and a hypothesis.

    A junta target is scored on the union of its relevant variables and the
    hypothesis variables, never on all 2^n inputs: both functions depend
    only on that union, so every union point stands for equally many inputs
    and the fraction is exact. A table is the junta on all its variables.
    """
    spec = as_junta(f)
    _positions(hypothesis.vars, spec.n)  # refuses hypothesis variables beyond n
    union = sorted(set(spec.relevant) | set(hypothesis.vars))
    if len(union) > N_MAX:
        raise ValueError(
            f"scoring needs {len(union)} > {N_MAX} variables in the union")
    slot = {v: t for t, v in enumerate(union)}
    m = len(union)
    target = lift(spec.inner.values, [slot[v] for v in spec.relevant], m)
    predicted = lift(hypothesis._filled(), [slot[v] for v in hypothesis.vars], m)
    return Fraction(int(np.count_nonzero(predicted != target)), 1 << m)
