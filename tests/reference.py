"""Deliberately naive reference implementations used as independent oracles.

Everything here works straight from definitions (explicit products and
loops), never through the package's transform or kernel paths, so a test
comparing the two exercises genuinely independent routes.
"""
import bisect
import csv
import io
from fractions import Fraction
from itertools import accumulate

import numpy as np


def chi(subset: int, x: int) -> int:
    """Parity of the variables in ``subset`` at encoded input ``x``."""
    value = 1
    i = 0
    s = subset
    while s:
        if s & 1:
            value *= 1 - 2 * ((x >> i) & 1)
        s >>= 1
        i += 1
    return value


def naive_spectrum(table) -> np.ndarray:
    size = 1 << table.n
    out = np.zeros(size, dtype=np.int64)
    for subset in range(size):
        acc = 0
        for x in range(size):
            acc += int(table.values[x]) * chi(subset, x)
        out[subset] = acc
    return out


def naive_influence(table, i: int) -> Fraction:
    size = 1 << table.n
    flips = 0
    for x in range(size):
        if table.values[x] != table.values[x ^ (1 << i)]:
            flips += 1
    return Fraction(flips, size)


def naive_distance(f, g) -> Fraction:
    size = 1 << f.n
    diff = sum(1 for x in range(size) if f.values[x] != g.values[x])
    return Fraction(diff, size)


def naive_projection_value(table, subset: int, x: int) -> int:
    """2^n times the projection of f onto coefficients inside ``subset``."""
    spectrum = naive_spectrum(table)
    acc = 0
    for s in range(1 << table.n):
        if s & ~subset:
            continue
        acc += int(spectrum[s]) * chi(s, x)
    return acc


def naive_project(x: int, positions) -> int:
    """The assignment of ``x`` to ``positions``: bit t is x's bit at
    ``positions[t]``, read one bit at a time."""
    cell = 0
    for t, p in enumerate(positions):
        cell |= ((x >> p) & 1) << t
    return cell


def naive_stage_two(spec, rng, found, needed, cap):
    """The learner's stage 2 one example at a time, each drawn as a scalar
    ``rng.integers(0, 2^n)`` and projected bit by bit; returns (entries,
    cells seen, examples drawn)."""
    entries = np.zeros(1 << len(found), dtype=np.int8)
    seen = 0
    draws = 0
    while seen < needed and draws < cap:
        x = int(rng.integers(0, 1 << spec.n))
        y = int(spec.inner.values[naive_project(x, spec.relevant)])
        draws += 1
        cell = naive_project(x, found)
        if entries[cell] == 0:
            entries[cell] = y
            seen += 1
    return entries, seen, draws


def naive_best_junta_errors(table, positions) -> int:
    size = 1 << table.n
    cells: dict[int, list[int]] = {}
    for x in range(size):
        cells.setdefault(naive_project(x, positions), []).append(int(table.values[x]))
    errors = 0
    for values in cells.values():
        neg = sum(1 for v in values if v < 0)
        errors += min(neg, len(values) - neg)
    return errors


def naive_lift(values, positions, n) -> np.ndarray:
    """Dense 2^n table of a function given on ``positions``, by gathering
    each index's bits at those positions."""
    out = np.empty(1 << n, dtype=np.asarray(values).dtype)
    for x in range(1 << n):
        out[x] = values[naive_project(x, positions)]
    return out


def _naive_addressing(inst, value_at) -> np.ndarray:
    """Dense table of an addressing instance, 2^20 indices at a time:
    ``value_at(idx, addr)`` is the output at indices ``idx`` whose address
    is ``addr``. Address variable 0 is the most significant address bit."""
    size = 1 << inst.n
    out = np.empty(size, dtype=np.int8)
    for start in range(0, size, 1 << 20):
        idx = np.arange(start, min(start + (1 << 20), size), dtype=np.int64)
        addr = np.zeros(idx.shape, dtype=np.int64)
        for j in range(inst.r):
            addr |= ((idx >> j) & 1) << (inst.r - 1 - j)
        out[start:start + idx.size] = value_at(idx, addr)
    return out


def naive_realize_reject(inst) -> np.ndarray:
    """Dense table of a reject instance: at every index, read the address
    bits and then the bit of the variable wired to that leaf."""
    tau = np.asarray(inst.tau, dtype=np.int64)
    return _naive_addressing(
        inst, lambda idx, addr: 1 - 2 * ((idx >> (inst.r + tau[addr])) & 1))


def naive_realize_accept(inst) -> np.ndarray:
    """Dense table of an accept instance by the same bit gather; leaf
    2^r-1-i reads the variable of leaf i times ``s[i]``."""
    r = inst.r
    half = 1 << (r - 1)
    tau = np.asarray(inst.tau, dtype=np.int64)
    s = np.asarray(inst.s, dtype=np.int64)

    def value_at(idx, addr):
        pair = np.where(addr < half, addr, (1 << r) - 1 - addr)
        sign = np.where(addr < half, 1, s[pair])
        return sign * (1 - 2 * ((idx >> (r + tau[pair])) & 1))

    return _naive_addressing(inst, value_at)


def naive_cell_sums(values, positions) -> np.ndarray:
    """Per-assignment sums of a table over each assignment's fiber."""
    out = np.zeros(1 << len(positions), dtype=np.int64)
    for x in range(len(values)):
        out[naive_project(x, positions)] += int(values[x])
    return out


def naive_lift_mask(inner_mask: int, relevant) -> int:
    """Bit t of an inner subset mask moved to bit ``relevant[t]``, one bit
    at a time."""
    out = 0
    for t, p in enumerate(relevant):
        out |= ((inner_mask >> t) & 1) << p
    return out


def naive_spectral_batch(masks, weights, total, rng, m) -> np.ndarray:
    """m subset draws with probability ``weights[i] / total`` for
    ``masks[i]``: one uniform key below ``total`` per draw, all drawn as one
    int64 batch, each located on its own by bisection in the prefix sums."""
    cum = list(accumulate(int(w) for w in weights))
    keys = rng.integers(0, total, size=m, dtype=np.int64)
    idx = [bisect.bisect_right(cum, int(key)) for key in keys]
    return masks[np.array(idx, dtype=np.intp)]


def two_call_reject_transcript(inst, rng, m):
    """Reject transcript with the leaves and the address masks drawn by two
    separate calls of m."""
    leaf = rng.integers(0, 1 << inst.r, size=m)
    x = rng.integers(0, 1 << inst.r, size=m, dtype=np.int64)
    return inst.tau[leaf], x


def two_call_accept_transcript(inst, rng, m):
    """Accept transcript with the leaves and the base masks drawn by two
    separate calls of m, the top address bit fixing each mask's parity."""
    half = 1 << (inst.r - 1)
    leaf = rng.integers(0, half, size=m)
    base = rng.integers(0, half, size=m, dtype=np.int64)
    want_odd = (inst.s[leaf] < 0).astype(np.int64)
    parity = np.array([bin(int(b)).count("1") & 1 for b in base], dtype=np.int64)
    return inst.tau[leaf], base | ((parity ^ want_odd) << (inst.r - 1))


def fresh_generator_rows(cfg, trials_table, derive_seed) -> list[dict]:
    """The rows of a trial kind without ``wall_ms``, from a loop that builds
    a fresh ``np.random.default_rng(derive_seed(...))`` for every arm and
    runs every trial: the harness loop before it re-seeded one generator.
    ``trials_table`` maps a kind to its (arms, trial function, summary)."""
    arms, trial_fn, _ = trials_table[cfg.kind]
    rows = []
    for trial in range(cfg.trials):
        for arm in arms:
            label = cfg.kind if arm is None else f"{cfg.kind}:{arm}"
            seed = derive_seed(cfg.seed, label, trial)
            row = {"trial": trial, "seed": seed}
            row.update(trial_fn(cfg, np.random.default_rng(seed), arm))
            rows.append(row)
    return rows


def naive_csv(columns, rows) -> bytes:
    """The bytes ``csv.DictWriter`` writes for ``rows`` under ``columns``;
    a row that is not a dict (a record) is read field by field."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row if isinstance(row, dict) else {c: row[c] for c in columns})
    return buf.getvalue().encode()


def unique_collision_features(slots, x_masks):
    """Collision features through numpy: distinct slots and distinct
    (slot, mask-size parity) keys counted with ``np.unique``."""
    slots = np.asarray(slots, dtype=np.int64)
    parity = np.bitwise_count(np.asarray(x_masks).astype(np.uint64)).astype(np.int64) & 1
    distinct = np.unique(slots).size
    pairs = np.unique(slots * 2 + parity).size
    return int(slots.size - distinct), bool(pairs > distinct)


def butterfly_wht(a: np.ndarray) -> np.ndarray:
    """The radix-2 Walsh-Hadamard butterfly on a length-2^n int64 array, in
    place, in integer arithmetic: one add and one subtract per pair, level
    by level."""
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
