"""Simulated information sources with exact distributions and call counting.

The paper's two information sources are provided for a target function f:

* spectral sampling (``FsOracle``): each call returns a variable subset S
  with probability exactly ``coeffs[S]^2 / 4^n``;
* uniform labeled examples (``ExOracle``): pairs (x, f(x)) with x uniform.

Because the squared coefficients of a table sum to exactly 4^n, a power of
two, subset sampling reduces to one unbiased uniform integer draw per call
plus a search over integer prefix sums; no draw is ever approximate.

For the addressing-based instance families the subset distribution is known
in closed form, so ``for_reject``/``for_accept`` sample it directly without
a truth table. That is what makes experiments at large ambient dimension
possible. A batch of subset masks (bit i set iff variable i is in S) is one
1-D array of dtype ``mask_dtype(n)``: int64 up to n = 62, else ``object``
holding exact Python ints. numpy's bit operators, indexing and reductions
act on both alike, so every sampler has one code path.

Every sampler keeps its masks in its own coordinates and moves them into
the n ambient variables only at the boundary. A junta's sampler holds
int64 masks over its k relevant variables plus the map to their ambient
indices; the other samplers' coordinates are the ambient ones.
``draw_batch`` lifts just the drawn masks (``boolfn.deposit_assignments``),
and ``draw_exposed``, the one call the tester, learner stage 1 and
scenario distinguisher make, ORs the draws where they are and maps only
the set bits of the union, so a junta's draws never build a wide mask.

A union ignores order and stops growing once it covers the sampler's
support. So the weight samplers (``from_spectrum``, ``from_table``,
``from_junta``) draw all m keys for ``draw_exposed`` but search only until
the union saturates: a prefix of 64 keys in draw order, then the rest,
sorted, only if that prefix has not reached the support.

A histogram ignores order too. ``draw_counts``, fs-dist's one call, sorts
the m keys in place and counts the draws on each support entry as a
difference of ranks: key u lands on entry j iff cum[j-1] <= u < cum[j],
so the keys below cum[j] are the draws on entries 0..j. One search of the
prefix sums among the keys gives every count, with no per-draw mask.
"""
from __future__ import annotations

import hashlib
from typing import Callable, Iterator

import numpy as np

from .boolfn import (
    AcceptInstance,
    JuntaSpec,
    RejectInstance,
    TruthTable,
    _as_index,
    as_junta,
    deposit_assignments,
    project_assignments,
    union_mask,
    vars_from_mask,
)
from .fourier import Spectrum, parseval_check, wht

# Masks over at most this many variables are batched as int64; wider ones
# as an object array of Python ints.
_MASK64_BITS = 62

#: Largest ambient n for uniform examples: x is one int64 draw below 2^n.
EX_N_MAX = 62

#: Largest number of draws one trial (one arm of a trial) may ask for, and
#: the largest chunk learner stage 2 draws at once. Every kind draws its
#: budget as one batch, so memory grows linearly with it. At 2^24 draws
#: one trial peaks at 0.55 GB (test-junta, learn-junta stage 1, fs-dist,
#: scenario) or 0.95 GB (lb-tv, lb-collision) and takes 1-8 s. A
#: learn-junta trial at k = 24 holds dense 2^24 tables beside a full
#: stage-2 chunk and peaks at 1.08 GB.
DRAWS_MAX = 1 << 24

# Draws a weight sampler's union searches before it checks for saturation.
_UNION_PREFIX = 64


def mask_dtype(n: int) -> np.dtype:
    """dtype of a batch of subset masks over n variables."""
    return np.dtype(np.int64 if n <= _MASK64_BITS else object)


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """Stable 64-bit stream seed from (master seed, label, index).

    Uses BLAKE2b over a fixed byte encoding, so the derivation is identical
    across platforms, processes and thread schedules.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master).to_bytes(8, "little", signed=True))
    h.update(label.encode("utf-8"))
    h.update(b"\x00")
    h.update(int(index).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def make_rng(master: int, label: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, label, index))


_U32 = 0xFFFFFFFF


def _hash_words(init: int, mult: int, count: int) -> np.ndarray:
    """A SeedSequence hash-constant sequence: ``init * mult^i`` mod 2^32
    for i < count, as a column. (By ``reshape``: making it with ``[:, None]``
    raised a small trial run's peak RSS by about 30 KB of numpy code.)"""
    words = [init]
    for _ in range(count - 1):
        words.append(words[-1] * mult & _U32)
    return np.array(words, dtype=np.int64).reshape(-1, 1)


# numpy's SeedSequence (pool size 4) as pcg64_states runs it. Its hash
# constants depend on no data: the pool hash (INIT_A, MULT_A) takes 16 of
# them, 4 to fill the pool and 3 for each of the 4 mixing rounds, and the
# output hash (INIT_B, MULT_B) takes 8, one per uint32 of the 4 uint64
# state words; each XORs with one and multiplies by the next.
_POOL_HASH = _hash_words(0x43B0D7E5, 0x931E8875, 17)
_OUT_HASH = _hash_words(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MIX_OTHERS = tuple(np.array([d for d in range(4) if d != s]) for s in range(4))
_POOL_CYCLE = np.array([0, 1, 2, 3, 0, 1, 2, 3])
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = words ^ xor
    words *= mult
    words &= _U32
    words ^= words >> 16
    return words


def pcg64_states(seeds: list[int]) -> Iterator[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` of each 64-bit
    seed, in order, hashed for the whole batch at once.

    ``default_rng(seed)`` hashes the seed's two 32-bit words, padded with
    zeros to a pool of 4, through SeedSequence and seeds PCG64 with the 4
    uint64 words that the pool generates. Here that hash runs as a few
    dozen numpy operations over a ``(4, len(seeds))`` array, and PCG64's
    seeding step, two 128-bit LCG steps, in Python ints as each state is
    taken. Assigning a state to a ``Generator(PCG64)``'s
    ``bit_generator.state`` gives the stream of a fresh
    ``default_rng(seed)``, at a fraction of its cost.

    The uint32 arithmetic runs in int64, the dtype the other layers compute
    in: a product wraps mod 2^64 and the mask keeps its low 32 bits.
    Unsigned bitwise ops, or a uint32 to int64 cast, would page in about
    64 KB of numpy code that the trial kinds never run otherwise, which
    shows in a small run's peak RSS.
    """
    packed = np.array(seeds, dtype=np.uint64).view(np.int64)
    pool = np.zeros((4, len(seeds)), dtype=np.int64)
    pool[0] = packed & _U32
    pool[1] = packed >> 32 & _U32
    pool = _hashmix(pool, _POOL_HASH[0:4], _POOL_HASH[1:5])
    for src, others in enumerate(_MIX_OTHERS):
        hashed = _hashmix(pool[src], _POOL_HASH[4 + 3 * src:7 + 3 * src],
                          _POOL_HASH[5 + 3 * src:8 + 3 * src])
        mixed = pool[others] * _MIX_L
        mixed -= hashed * _MIX_R
        mixed &= _U32
        mixed ^= mixed >> 16
        pool[others] = mixed
    out = _hashmix(pool[_POOL_CYCLE], _OUT_HASH[:8], _OUT_HASH[1:])
    # uint64 word k is uint32 words 2k (low) and 2k+1 (high). PCG64 takes
    # words 0-1 as its initial state and 2-3 as its stream, high word first.
    words = (out[0::2] | out[1::2] << 32).view(np.uint64)
    for state_hi, state_lo, seq_hi, seq_lo in words.T.tolist():
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        init = state_hi << 64 | state_lo
        yield {"bit_generator": "PCG64",
               "state": {"state": ((inc + init) * _PCG64_MULT + inc) & _MASK128,
                         "inc": inc},
               "has_uint32": 0, "uinteger": 0}


class FsOracleError(ValueError):
    """The oracle would not sample a probability distribution."""


class ExOracle:
    """Uniform labeled examples (x, f(x)) of a junta target.

    ``x`` is one uniform draw below 2^n and its label is read from the
    inner table at x's relevant bits, so no 2^n table is built and n may be
    up to ``EX_N_MAX``. A truth table is the junta on all of its variables.
    ``calls`` counts every example drawn, read or not.
    """

    def __init__(self, target: TruthTable | JuntaSpec, rng: np.random.Generator):
        self.spec = as_junta(target)
        if self.spec.n > EX_N_MAX:
            raise ValueError(
                f"uniform examples need n <= {EX_N_MAX}, got {self.spec.n}")
        self._rng = rng
        self.calls = 0

    def draw(self) -> tuple[int, int]:
        xs, ys = self.draw_batch(1)
        return int(xs[0]), int(ys[0])

    def draw_batch(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """m examples as (int64 inputs, int8 labels). A batch of m draws
        the same inputs, and leaves the generator in the same state, as m
        single draws."""
        xs = self._rng.integers(0, 1 << self.spec.n, size=m, dtype=np.int64)
        self.calls += m
        cells = project_assignments(xs, self.spec.relevant)
        return xs, self.spec.inner.values[cells]


def reject_transcript(inst: RejectInstance, rng: np.random.Generator,
                      m: int) -> tuple[np.ndarray, np.ndarray]:
    """m subset draws for a reject instance as (wired slot, address mask).

    The wired slot j means non-address variable j (full variable index
    r + j); the address mask is a subset of the r address variables. Every
    (leaf, address mask) pair is equally likely.
    """
    # One call draws the leaves, then the masks: the same stream as two calls
    # of m, since the bit generator keeps a spare 32-bit half between calls.
    draws = rng.integers(0, 1 << inst.r, size=2 * m, dtype=np.int64)
    leaf, x = draws[:m], draws[m:]
    return inst.tau[leaf], x


def accept_transcript(inst: AcceptInstance, rng: np.random.Generator,
                      m: int) -> tuple[np.ndarray, np.ndarray]:
    """m subset draws for an accept instance as (wired slot, address mask).

    For leaf pair i the address mask is uniform among subsets whose size
    parity is even when s[i] = +1 and odd when s[i] = -1; a slot therefore
    only ever appears with one parity.
    """
    r = inst.r
    draws = rng.integers(0, 1 << (r - 1), size=2 * m, dtype=np.int64)
    leaf, base = draws[:m], draws[m:]
    # The top address bit makes the mask's size parity odd exactly when
    # s[leaf] = -1; base is non-negative, so bitwise_count counts its bits.
    odd = np.bitwise_count(base) ^ (inst.s[leaf] < 0)
    x = base | (odd & 1).astype(np.int64) << (r - 1)
    return inst.tau[leaf], x


def masks_from_transcript(slots: np.ndarray, x_masks: np.ndarray, r: int,
                          n: int) -> np.ndarray:
    """Assemble full subset masks: address bits plus the wired variable."""
    dtype = mask_dtype(n)
    return x_masks.astype(dtype) | np.left_shift(1, (r + slots).astype(dtype))


def format_transcript(masks) -> str:
    """Transcript log: one ``fs<TAB><sorted variable list>`` line per draw."""
    return "".join("fs\t" + " ".join(str(v) for v in vars_from_mask(mask)) + "\n"
                   for mask in masks)


class FsOracle:
    """Subset sampler following the squared spectral weights of a target.

    Construct via the classmethods; every variant draws subsets with their
    exact probabilities and adds one to ``calls`` per draw.

    Draws never fail. Bshouty and Jackson's quantum procedure fails with a
    fixed probability p (1/2 for theirs) independently of its answer, so a
    failure leaves the law of the successful draws unchanged: m successful
    draws cost NegBin(m, p) quantum examples, with mean m / (1 - p).
    """

    # Always 0: draws never fail. The benchmark's tracer reads it.
    failure_prob = 0.0

    def __init__(self, n: int, sample_batch: Callable[[int], np.ndarray],
                 relevant: tuple[int, ...] | None = None,
                 sample_union: Callable[[int], int] | None = None,
                 sample_counts: Callable[[int], tuple] | None = None):
        """``sample_batch(m)`` draws m masks in the sampler's own
        coordinates: bit t is variable ``relevant[t]``, or variable t when
        ``relevant`` is None. ``sample_union(m)`` is the OR of the masks
        that ``sample_batch(m)`` would draw, from the same stream; by
        default it ORs that batch. ``sample_counts(m)``, which only the
        weight samplers have, is ``(support masks, weights, counts)`` of
        the masks that ``sample_batch(m)`` would draw, from the same
        stream."""
        self.n = n
        self.calls = 0
        self._sample_batch = sample_batch
        self._sample_union = sample_union or (lambda m: union_mask(sample_batch(m)))
        self._sample_counts = sample_counts
        self._relevant = relevant

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_spectrum(cls, sp: Spectrum, rng: np.random.Generator) -> "FsOracle":
        """Sampler for any integer spectrum whose squared coefficients sum
        to exactly 4^n; ``FsOracleError`` otherwise."""
        if not parseval_check(sp):
            raise FsOracleError("squared weights do not sum to 4^n; "
                                "not a valid sampling distribution")
        return cls._from_weights(sp, sp.n, None, rng)

    @classmethod
    def from_table(cls, table: TruthTable, rng: np.random.Generator) -> "FsOracle":
        return cls.from_spectrum(wht(table), rng)

    @classmethod
    def from_junta(cls, spec: JuntaSpec, rng: np.random.Generator) -> "FsOracle":
        """Sampler for a junta over any ambient n, via its inner spectrum.

        The lifted function's spectrum is the inner one with each inner
        position t moved to variable ``relevant[t]``, so sampling the inner
        subsets and remapping them is exact. The support stays as int64
        inner masks; only drawn masks are ever remapped. The inner spectrum
        is not checked against Parseval: it is the transform of a ±1 table,
        whose squared coefficients sum to exactly 4^k.
        """
        return cls._from_weights(wht(spec.inner), spec.n, spec.relevant, rng)

    @classmethod
    def for_parity(cls, n: int, subset: int,
                   rng: np.random.Generator) -> "FsOracle":
        """Point mass: a parity's sampler always answers its own subset.
        ``subset=0`` covers constant targets."""
        if not 0 <= _as_index(subset) < (1 << n):
            raise FsOracleError("parity subset out of range")
        dtype = mask_dtype(n)
        return cls(n, lambda m: np.full(m, subset, dtype=dtype))

    @classmethod
    def for_reject(cls, inst: RejectInstance,
                   rng: np.random.Generator) -> "FsOracle":
        return cls(inst.n, lambda m: masks_from_transcript(
            *reject_transcript(inst, rng, m), inst.r, inst.n))

    @classmethod
    def for_accept(cls, inst: AcceptInstance,
                   rng: np.random.Generator) -> "FsOracle":
        return cls(inst.n, lambda m: masks_from_transcript(
            *accept_transcript(inst, rng, m), inst.r, inst.n))

    @classmethod
    def _from_weights(cls, sp: Spectrum, n: int,
                      relevant: tuple[int, ...] | None,
                      rng: np.random.Generator) -> "FsOracle":
        """Sampler that draws subset S of ``sp`` with probability
        ``coeffs[S]^2 / 4^sp.n``, as an int64 mask over ``sp.n`` bits. Bit t
        of a mask is variable ``relevant[t]`` of the n; ``relevant=None``
        means bit t is variable t. The squared coefficients must sum to
        exactly 4^sp.n, which the callers ensure."""
        # Parseval bounds every prefix sum by 4^n, so none wraps.
        masks = np.flatnonzero(sp.coeffs)
        masks.setflags(write=False)  # draw_counts hands it out as it is
        cum = sp.coeffs[masks]
        np.square(cum, out=cum)
        np.cumsum(cum, out=cum)
        total = 1 << (2 * sp.n)

        def sample_batch(m: int):
            u = rng.integers(0, total, size=m, dtype=np.int64)
            return masks[np.searchsorted(cum, u, side="right")]

        support = None  # OR of every mask, formed by the first union draw

        def sample_union(m: int) -> int:
            # Every key is drawn, but only a prefix is searched, in draw
            # order; the rest is searched, sorted (a union ignores order),
            # only if the prefix has not reached the support. On a junta the
            # union usually saturates within a few dozen draws.
            nonlocal support
            if support is None:
                support = union_mask(masks)
            u = rng.integers(0, total, size=m, dtype=np.int64)
            head = u[:_UNION_PREFIX]
            union = union_mask(masks[np.searchsorted(cum, head, side="right")])
            if union != support and m > _UNION_PREFIX:
                rest = np.sort(u[_UNION_PREFIX:])
                union |= union_mask(masks[np.searchsorted(cum, rest, side="right")])
            return union

        def sample_counts(m: int):
            # Outputs before temporaries: allocated after the keys were
            # freed, they raised the n = 18 fs-dist run's peak RSS.
            weights = np.empty_like(cum)
            counts = np.empty_like(cum)
            keys = rng.integers(0, total, size=m, dtype=np.int64)
            keys.sort()
            # Key u lands on entry j iff cum[j-1] <= u < cum[j], so the keys
            # below cum[j] are those that land on entries 0..j.
            below = np.searchsorted(keys, cum, side="left")
            del keys
            for out, running in ((weights, cum), (counts, below)):
                out[0] = running[0]
                np.subtract(running[1:], running[:-1], out=out[1:])
            return masks, weights, counts

        return cls(n, sample_batch, relevant, sample_union, sample_counts)

    # -- drawing -----------------------------------------------------------

    def _ambient(self, masks: np.ndarray) -> np.ndarray:
        """Masks in the sampler's own coordinates moved to the n variables."""
        if self._relevant is None:
            return masks
        return deposit_assignments(masks, self._relevant, mask_dtype(self.n))

    def draw(self) -> int:
        self.calls += 1
        return int(self._ambient(self._sample_batch(1))[0])

    def draw_batch(self, m: int) -> np.ndarray:
        """m subset masks as a 1-D array of dtype ``mask_dtype(n)``."""
        if m < 0:
            raise ValueError("batch size must be non-negative")
        self.calls += m
        return self._ambient(self._sample_batch(m))

    def draw_counts(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """m subset draws, counted per mask of the sampler's support.

        Returns ``(masks, weights, counts)``: the support's masks ascending,
        as ``mask_dtype(n)``; their exact integer weights, the squared
        coefficients of the sampler's own spectrum, which sum to 4^k over
        its k bits; and how many of the m draws landed on each, as int64.
        It draws exactly the keys of ``draw_batch(m)``, from the same
        generator stream, and counts m calls; ``counts`` equals
        ``np.bincount(draw_batch(m))`` at the support's masks. The keys are
        sorted, and each count is a difference of ranks of prefix sums
        among them, so no per-draw mask is built. Only the weight samplers
        (``from_spectrum``, ``from_table``, ``from_junta``) count.
        """
        if self._sample_counts is None:
            raise TypeError("only a weight sampler counts its draws")
        if m < 0:
            raise ValueError("batch size must be non-negative")
        self.calls += m
        masks, weights, counts = self._sample_counts(m)
        return self._ambient(masks), weights, counts

    def draw_exposed(self, m: int) -> tuple[int, ...]:
        """The sorted variables of the union of m subset draws.

        Draws exactly what ``draw_batch(m)`` would, from the same generator
        stream, and counts m calls, but forms the union in the sampler's own
        coordinates and maps only its set bits to variables.
        """
        if m < 0:
            raise ValueError("batch size must be non-negative")
        self.calls += m
        exposed = vars_from_mask(self._sample_union(m))
        if self._relevant is None:
            return exposed
        return tuple(self._relevant[t] for t in exposed)
