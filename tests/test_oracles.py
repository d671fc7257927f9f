from collections import Counter

import numpy as np
import pytest

from fsjunta import oracles
from fsjunta import (
    AcceptInstance,
    ExOracle,
    FsOracle,
    FsOracleError,
    JuntaSpec,
    RejectInstance,
    Spectrum,
    TruthTable,
    chi_square_gof,
    derive_seed,
    make_junta,
    make_parity,
    make_rng,
    random_junta_spec,
    random_table,
    realize_accept,
    realize_reject,
    sample_accept_instance,
    sample_reject_instance,
    vars_from_mask,
    wht,
)
from fsjunta.boolfn import deposit_assignments, project_assignments, union_mask
from fsjunta.oracles import (
    EX_N_MAX,
    accept_transcript,
    format_transcript,
    mask_dtype,
    masks_from_transcript,
    pcg64_states,
    reject_transcript,
)
from reference import (
    naive_lift_mask,
    naive_spectral_batch,
    two_call_accept_transcript,
    two_call_reject_transcript,
)

AND2 = TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))

P_FLOOR = 1e-3  # goodness-of-fit significance used throughout


def gof_masks(draws, weights) -> float:
    observed = np.bincount(np.asarray(draws), minlength=weights.size)
    _, pvalue, _ = chi_square_gof(observed, weights)
    return pvalue


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "trial", 3) == derive_seed(7, "trial", 3)

    def test_distinct_streams(self):
        seeds = {derive_seed(7, "trial", i) for i in range(100)}
        seeds |= {derive_seed(7, "other", i) for i in range(100)}
        seeds |= {derive_seed(8, "trial", i) for i in range(100)}
        assert len(seeds) == 300

    def test_same_stream_same_draws(self):
        a = make_rng(1, "x", 0).integers(0, 1 << 30, size=50)
        b = make_rng(1, "x", 0).integers(0, 1 << 30, size=50)
        assert np.array_equal(a, b)


# The ends of each 32-bit word of a seed, and of the 64-bit range.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestPcg64States:
    def test_each_state_is_a_fresh_generators(self):
        seeds = EDGE_SEEDS + [derive_seed(master, label, i)
                              for master in (0, -1, 2**63 - 1)
                              for label in ("lb-tv:accept", "scenario:II")
                              for i in range(170)]
        assert len(seeds) >= 1000
        assert list(pcg64_states(seeds)) == [
            np.random.default_rng(seed).bit_generator.state for seed in seeds]

    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_small_batches(self, size):
        seeds = EDGE_SEEDS[:size]
        assert list(pcg64_states(seeds)) == [
            np.random.default_rng(seed).bit_generator.state for seed in seeds]

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [derive_seed(3, "x", 9)])
    def test_reseeding_in_place_gives_a_fresh_stream(self, seed):
        # three 32-bit draws leave the spare half of a 64-bit output behind;
        # the new state must drop it, as a fresh generator has none
        rng = np.random.default_rng(12345)
        rng.integers(0, 2, size=3)
        assert rng.bit_generator.state["has_uint32"] == 1
        (rng.bit_generator.state,) = pcg64_states([seed])

        def draws(gen):
            return (gen.integers(0, 2, size=3),
                    gen.integers(0, 1 << 40, size=5, dtype=np.int64),
                    gen.choice(100, size=5, replace=False), gen.random(4))

        for ours, fresh in zip(draws(rng), draws(np.random.default_rng(seed))):
            assert np.array_equal(ours, fresh)


class TestFsFromSpectrum:
    def test_parity_point_mass(self):
        fs = FsOracle.from_table(make_parity(4, 0b1010), make_rng(0, "pm"))
        assert all(fs.draw() == 0b1010 for _ in range(50))

    def test_and2_uniform_over_four_masks(self):
        fs = FsOracle.from_table(AND2, make_rng(0, "and2"))
        draws = fs.draw_batch(100_000)
        weights = wht(AND2).coeffs.astype(np.int64) ** 2
        assert gof_masks(draws, weights) > P_FLOOR

    def test_random_function_distribution(self):
        rng = make_rng(0, "rand6")
        f = random_table(6, rng)
        fs = FsOracle.from_table(f, rng)
        weights = wht(f).coeffs.astype(np.int64) ** 2
        assert gof_masks(fs.draw_batch(200_000), weights) > P_FLOOR

    def test_invalid_weights_rejected(self):
        coeffs = wht(AND2).coeffs.copy()
        coeffs[3] = 0
        with pytest.raises(FsOracleError):
            FsOracle.from_spectrum(Spectrum(2, coeffs), make_rng(0, "bad"))

    def test_empty_support_rejected(self):
        with pytest.raises(FsOracleError):
            FsOracle.from_spectrum(Spectrum(2, np.zeros(4, np.int64)),
                                   make_rng(0, "empty"))

    def test_squares_summing_past_int64_are_rejected(self):
        # 2^20 + 1 squares of 2^44 sum to 2^64 + 4^22, which an int64 prefix
        # sum wraps to exactly 4^22; the exact Parseval check refuses it.
        n = 22
        coeffs = np.zeros(1 << n, dtype=np.int64)
        coeffs[:(1 << 20) + 1] = 1 << n
        sp = Spectrum(n, coeffs)
        assert int(np.cumsum(coeffs ** 2)[-1]) == 1 << (2 * n)
        with pytest.raises(FsOracleError):
            FsOracle.from_spectrum(sp, make_rng(0, "wrap"))

    def test_batches_are_int64_masks(self):
        f = random_table(5, make_rng(0, "dtype"))
        for fs in (FsOracle.from_spectrum(wht(f), make_rng(1, "dtype")),
                   FsOracle.from_table(f, make_rng(2, "dtype"))):
            assert fs.draw_batch(0).dtype == np.int64
            assert fs.draw_batch(7).dtype == np.int64

    def test_counter_increments_per_draw(self):
        fs = FsOracle.from_table(AND2, make_rng(0, "ctr"))
        fs.draw()
        fs.draw_batch(9)
        assert fs.calls == 10

    def test_junta_lift_has_identical_support_and_weights(self):
        rng = make_rng(0, "lift")
        spec = random_junta_spec(12, 4, rng)
        table_weights = wht(make_junta(spec)).coeffs.astype(np.int64) ** 2
        inner_weights = wht(spec.inner).coeffs.astype(np.int64) ** 2

        # inner weights are scaled by 4^k, the ambient table's by 4^n
        scale = 1 << (2 * (spec.n - spec.k))
        lifted = {}
        for inner_mask in np.flatnonzero(inner_weights):
            outer = sum(((int(inner_mask) >> t) & 1) << p
                        for t, p in enumerate(spec.relevant))
            lifted[outer] = int(inner_weights[inner_mask]) * scale
        direct = {int(m): int(table_weights[m])
                  for m in np.flatnonzero(table_weights)}
        assert lifted == direct

    @pytest.mark.parametrize("k, n", [(1, 1), (4, 12), (8, 100), (12, 1024)])
    def test_junta_weights_sum_to_exactly_4_to_the_k(self, k, n):
        # from_junta samples the inner spectrum unchecked: a ±1 table's
        # squared coefficients sum to exactly 4^k, as from_spectrum checks
        for seed in range(10):
            rng = make_rng(seed, "parseval")
            fs = FsOracle.from_junta(random_junta_spec(n, k, rng), rng)
            _, weights, _ = fs.draw_counts(100)
            assert int(weights.sum()) == 4**k

    def test_junta_sampler_draws_within_support(self):
        rng = make_rng(1, "lift2")
        spec = random_junta_spec(20, 5, rng)
        fs = FsOracle.from_junta(spec, rng)
        relevant_mask = sum(1 << v for v in spec.relevant)
        draws = fs.draw_batch(10_000)
        assert np.all((draws | relevant_mask) == relevant_mask)


class TestClassicalOracles:
    def test_ex_labels_match_the_table(self):
        f = TruthTable(4, np.full(1 << 4, -1, np.int8))
        ex = ExOracle(f, make_rng(0, "ex"))
        assert all(ex.draw()[1] == -1 for _ in range(50))

    def test_ex_marginal_is_uniform(self):
        ex = ExOracle(make_parity(4, 0b1), make_rng(1, "exu"))
        xs, ys = ex.draw_batch(100_000)
        counts = np.bincount(xs, minlength=16)
        _, pvalue, _ = chi_square_gof(counts, np.ones(16))
        assert pvalue > P_FLOOR
        assert np.array_equal(ys, make_parity(4, 0b1).values[xs])

    def test_ex_from_junta_matches_the_dense_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            spec = random_junta_spec(int(rng.integers(4, 13)),
                                     int(rng.integers(1, 5)), rng)
            table_ex = ExOracle(make_junta(spec), make_rng(trial, "exj"))
            junta_ex = ExOracle(spec, make_rng(trial, "exj"))
            for _ in range(20):
                assert junta_ex.draw() == table_ex.draw()
            xs_table, ys_table = table_ex.draw_batch(500)
            xs_junta, ys_junta = junta_ex.draw_batch(500)
            assert np.array_equal(xs_junta, xs_table)
            assert np.array_equal(ys_junta, ys_table)
            assert ys_junta.dtype == ys_table.dtype
            assert junta_ex.calls == table_ex.calls == 520

    def test_ex_from_junta_beyond_the_table_cap(self):
        spec = JuntaSpec(EX_N_MAX, (3, 40, EX_N_MAX - 1), make_parity(3, 0b111))
        ex = ExOracle(spec, make_rng(0, "exbig"))
        xs, ys = ex.draw_batch(2000)
        bits = ((xs >> 3) ^ (xs >> 40) ^ (xs >> (EX_N_MAX - 1))) & 1
        assert np.array_equal(ys, 1 - 2 * bits)
        assert int(xs.max()) >= 1 << (EX_N_MAX - 2)
        x, y = ex.draw()
        assert y == 1 - 2 * (((x >> 3) ^ (x >> 40) ^ (x >> (EX_N_MAX - 1))) & 1)

    @pytest.mark.parametrize("n", [5, 20, 32, 33, EX_N_MAX])
    def test_ex_batches_draw_the_scalar_stream(self, n):
        # numpy draws below 2^n from 32-bit words up to n = 32 and from
        # 64-bit words past it; chunked stage 2 is exact because batches,
        # single draws and scalar integers read the same stream either way
        spec = JuntaSpec(n, (0, n - 1), make_parity(2, 0b11))
        rng = make_rng(3, "ex-stream")
        ex = ExOracle(spec, rng)
        batched = np.concatenate([ex.draw_batch(m)[0] for m in (10, 7, 20)])

        ref_rng = make_rng(3, "ex-stream")
        ref = ExOracle(spec, ref_rng)
        one_by_one = [ref.draw()[0] for _ in range(37)]
        scalar = make_rng(3, "ex-stream")
        assert batched.tolist() == one_by_one == [
            int(scalar.integers(0, 1 << n)) for _ in range(37)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state \
            == scalar.bit_generator.state
        assert ex.calls == ref.calls == 37

    def test_ex_rejects_an_ambient_n_past_int64(self):
        spec = JuntaSpec(EX_N_MAX + 1, (0,), make_parity(1, 1))
        with pytest.raises(ValueError):
            ExOracle(spec, make_rng(0, "exbad"))


class TestAnalyticReject:
    def test_slot_marginal_is_uniform(self):
        inst = sample_reject_instance(3, 20, make_rng(0, "rj"))
        slots, _ = reject_transcript(inst, make_rng(1, "rj"), 100_000)
        counts = np.bincount(slots, minlength=20 - 3)
        expected = np.zeros(17)
        expected[list(inst.tau)] = 1
        _, pvalue, _ = chi_square_gof(counts, expected)
        assert pvalue > P_FLOOR

    def test_address_parity_is_a_fair_coin(self):
        inst = sample_reject_instance(3, 20, make_rng(2, "rjp"))
        _, x_masks = reject_transcript(inst, make_rng(3, "rjp"), 100_000)
        parity = np.bitwise_count(x_masks.astype(np.uint64)).astype(int) & 1
        counts = np.bincount(parity, minlength=2)
        _, pvalue, _ = chi_square_gof(counts, np.ones(2))
        assert pvalue > P_FLOOR

    def test_matches_the_table_distribution(self):
        for r in (1, 2, 3):
            n = r + (1 << r)
            rng = make_rng(r, "rjeq")
            inst = sample_reject_instance(r, n, rng)
            weights = wht(realize_reject(inst)).coeffs.astype(np.int64) ** 2
            fs = FsOracle.for_reject(inst, rng)
            assert gof_masks(fs.draw_batch(100_000), weights) > P_FLOOR

    def test_single_draw_mask_layout(self):
        inst = RejectInstance(2, 6, (3, 0, 2, 1))
        mask = FsOracle.for_reject(inst, make_rng(0, "one")).draw()
        address_part = mask & 0b11
        slot_part = mask >> 2
        assert bin(slot_part).count("1") == 1
        assert 0 <= address_part < 4


class TestAnalyticAccept:
    def test_fixed_slot_has_fixed_parity(self):
        rng = make_rng(0, "ac")
        inst = sample_accept_instance(3, 20, rng)
        slots, x_masks = accept_transcript(inst, rng, 50_000)
        parity = np.bitwise_count(x_masks.astype(np.uint64)).astype(int) & 1
        for leaf, slot in enumerate(inst.tau):
            want = 0 if inst.s[leaf] == 1 else 1
            got = set(parity[slots == slot].tolist())
            assert got == {want}

    def test_slot_marginal_uniform_over_half_the_leaves(self):
        rng = make_rng(1, "acm")
        inst = sample_accept_instance(3, 20, rng)
        slots, _ = accept_transcript(inst, rng, 100_000)
        counts = np.bincount(slots, minlength=17)
        expected = np.zeros(17)
        expected[list(inst.tau)] = 1
        _, pvalue, _ = chi_square_gof(counts, expected)
        assert pvalue > P_FLOOR

    def test_matches_the_table_distribution(self):
        for r in (1, 2, 3, 4):
            n = r + (1 << (r - 1))
            rng = make_rng(r, "aceq")
            inst = sample_accept_instance(r, n, rng)
            weights = wht(realize_accept(inst)).coeffs.astype(np.int64) ** 2
            fs = FsOracle.for_accept(inst, rng)
            assert gof_masks(fs.draw_batch(100_000), weights) > P_FLOOR

    def test_single_draw_mask_layout(self):
        inst = AcceptInstance(2, 6, (1, 3), (1, -1))
        mask = FsOracle.for_accept(inst, make_rng(0, "aone")).draw()
        slot = (mask >> 2).bit_length() - 1
        assert slot in (1, 3)


class TestLargeAmbientDimension:
    def test_masks_beyond_int64_are_python_ints(self):
        rng = make_rng(0, "big")
        inst = sample_reject_instance(7, 1000, rng)
        fs = FsOracle.for_reject(inst, rng)
        masks = fs.draw_batch(100)
        assert isinstance(masks, np.ndarray)
        assert masks.shape == (100,) and masks.dtype == object
        for mask in masks:
            assert type(mask) is int
            slot_bits = mask >> 7
            assert bin(slot_bits).count("1") == 1

    def test_parity_oracle_scales_too(self):
        fs = FsOracle.for_parity(5000, 1 << 4999, make_rng(0, "hp"))
        assert fs.draw() == 1 << 4999

    @pytest.mark.parametrize("build", [
        lambda n, rng: FsOracle.from_junta(
            JuntaSpec(n, (0, 5, 33, 61), random_table(4, make_rng(0, "wide"))), rng),
        lambda n, rng: FsOracle.for_parity(n, 1 << 61 | 1 << 7, rng),
        lambda n, rng: FsOracle.for_reject(
            RejectInstance(3, n, (0, 57, 4, 9, 30, 1, 52, 2)), rng),
    ], ids=["from_junta", "for_parity", "for_reject"])
    def test_wide_ambient_n_draws_the_same_masks(self, build):
        # every variable of the target is at or below bit 62, so only the
        # dtype may differ between ambient n = 62 and n = 1024
        narrow = build(62, make_rng(1, "wide")).draw_batch(3000)
        wide = build(1024, make_rng(1, "wide")).draw_batch(3000)
        assert narrow.dtype == np.int64 and wide.dtype == object
        assert narrow.tolist() == wide.tolist()
        assert all(type(mask) is int for mask in wide)

    def test_parity_subset_is_an_integer_mask_in_range(self):
        for subset in (-1, 1 << 4):
            with pytest.raises(FsOracleError):
                FsOracle.for_parity(4, subset, make_rng(0, "bad"))
        with pytest.raises(TypeError):  # would draw variable 1
            FsOracle.for_parity(4, 2.7, make_rng(0, "bad"))
        with pytest.raises(TypeError):  # would draw variable 0
            FsOracle.for_parity(4, True, make_rng(0, "bad"))

    @pytest.mark.parametrize("n, dtype", [(20, np.int64), (62, np.int64),
                                          (63, object), (1024, object)])
    def test_parity_batch_has_the_mask_dtype(self, n, dtype):
        fs = FsOracle.for_parity(n, 1 << (n - 1), make_rng(0, "dtype"))
        masks = fs.draw_batch(50)
        assert masks.dtype == dtype and masks.shape == (50,)
        assert masks.tolist() == [1 << (n - 1)] * 50
        assert fs.draw_batch(0).dtype == dtype


# the top relevant variable is n - 1, so at n = 63 and 1024 some runs
# deposit past bit 62, into Python ints
LIFT_CASES = [(n, k) for n in (20, 62, 63, 1024) for k in (1, 7, 8, 9, 12, 24)
              if k <= n]


def spread_positions(n: int, k: int, rng) -> list[int]:
    """k sorted variables of n, the top one always n - 1."""
    return sorted(rng.choice(n - 1, size=k - 1, replace=False).tolist()) + [n - 1]


class TestMaskLift:
    @pytest.mark.parametrize("n, k", LIFT_CASES)
    def test_lift_matches_the_per_bit_reference(self, n, k):
        rng = make_rng(n, "lift-ref", k)
        relevant = spread_positions(n, k, rng)
        if k <= 12:
            inner = np.arange(1 << k, dtype=np.int64)
        else:
            inner = np.concatenate([[0, (1 << k) - 1],
                                    rng.integers(0, 1 << k, size=4000)])
        lifted = deposit_assignments(inner, relevant, mask_dtype(n))
        assert lifted.dtype == mask_dtype(n) and lifted.shape == inner.shape
        assert lifted.tolist() == [naive_lift_mask(int(m), relevant) for m in inner]
        if lifted.dtype == object:
            assert all(type(mask) is int for mask in lifted)
        else:
            assert project_assignments(lifted, relevant).tolist() == inner.tolist()

    @pytest.mark.parametrize("n, k", [(n, k) for n, k in LIFT_CASES if k <= 12])
    def test_junta_draws_are_the_lifted_inner_draws(self, n, k):
        # from_junta and the inner table's own sampler share the weights and
        # the stream, so draw i of one is draw i of the other, lifted
        rng = make_rng(n, "lift-draw", k)
        spec = JuntaSpec(n, spread_positions(n, k, rng), random_table(k, rng))
        wide = FsOracle.from_junta(spec, make_rng(0, "lift-draw")).draw_batch(2000)
        inner = FsOracle.from_table(spec.inner, make_rng(0, "lift-draw")).draw_batch(2000)
        assert wide.dtype == mask_dtype(n)
        assert wide.tolist() == [naive_lift_mask(int(m), spec.relevant) for m in inner]


class TestTranscriptPlumbing:
    def test_mask_assembly_matches_parts(self):
        slots = np.array([0, 3], dtype=np.int64)
        xs = np.array([0b101, 0b000], dtype=np.int64)
        masks = masks_from_transcript(slots, xs, 3, 10)
        assert list(masks) == [0b101 | (1 << 3), 1 << 6]

    def test_log_format(self):
        text = format_transcript([0b1011, 0])
        assert text == "fs\t0 1 3\nfs\t\n"

    def test_reproducible_transcripts(self):
        inst = sample_reject_instance(3, 30, make_rng(0, "rep"))
        a = reject_transcript(inst, make_rng(5, "rep"), 1000)
        b = reject_transcript(inst, make_rng(5, "rep"), 1000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("r", range(1, 13))
    @pytest.mark.parametrize("kind", ["reject", "accept"])
    def test_one_draw_is_the_two_call_stream(self, kind, r):
        """One call of 2m draws the leaves and masks that two calls of m
        draw, and leaves the generator where they leave it, also when odd
        sizes leave a spare 32-bit half in the bit generator."""
        sample, transcript, reference = {
            "reject": (sample_reject_instance, reject_transcript,
                       two_call_reject_transcript),
            "accept": (sample_accept_instance, accept_transcript,
                       two_call_accept_transcript)}[kind]
        inst = sample(r, r + (1 << r), make_rng(r, "one-draw"))
        for seed in range(10):
            got_rng, want_rng = make_rng(seed, "one-draw"), make_rng(seed, "one-draw")
            for m in range(7):
                got = transcript(inst, got_rng, m)
                want = reference(inst, want_rng, m)
                assert got[0].tolist() == want[0].tolist()
                assert got[1].tolist() == want[1].tolist()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert (got_rng.integers(0, 1 << r, size=3).tolist()
                    == want_rng.integers(0, 1 << r, size=3).tolist())


BATCH_SIZES = [0, 1, 2, 1300, 1 << 16]


def spectral_support(table):
    """The nonzero-weight subsets of a table and their squared coefficients."""
    weights = wht(table).coeffs.astype(np.int64) ** 2
    nonzero = np.flatnonzero(weights)
    return nonzero, weights[nonzero]


def junta_support(spec):
    """The inner support of a junta, lifted bit by bit to its ambient masks."""
    inner, weights = spectral_support(spec.inner)
    masks = np.array([naive_lift_mask(int(s), spec.relevant) for s in inner],
                     dtype=mask_dtype(spec.n))
    return masks, weights


class TestSortedKeySampling:
    """The batch sampler against one bisection per key, from equal seeds:
    the same masks in draw order, calls and final generator state."""

    @staticmethod
    def check(build, masks, weights, total, m, seed=0):
        rng = make_rng(seed, "sorted-key")
        fs = build(rng)
        want_rng = make_rng(seed, "sorted-key")
        want = naive_spectral_batch(masks, weights, total, want_rng, m)
        got = fs.draw_batch(m)
        assert got.dtype == want.dtype and got.shape == (m,)
        assert got.tolist() == want.tolist()
        assert fs.calls == m
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_and2_heavy_ties(self):
        # total 16 over 10^4 keys: every key value repeats hundreds of times
        # and keys equal to a prefix sum sit on a bin boundary
        masks, weights = spectral_support(AND2)
        self.check(lambda rng: FsOracle.from_table(AND2, rng),
                   masks, weights, 16, 10_000)

    @pytest.mark.parametrize("m", BATCH_SIZES)
    @pytest.mark.parametrize("n", range(6, 15))
    def test_random_tables(self, n, m):
        table = random_table(n, make_rng(n, "sorted-key-table"))
        masks, weights = spectral_support(table)
        self.check(lambda rng: FsOracle.from_table(table, rng),
                   masks, weights, 1 << (2 * n), m, seed=n)

    @pytest.mark.parametrize("m", BATCH_SIZES)
    def test_parity_point_mass(self, m):
        table = make_parity(8, 0b10110001)
        masks, weights = spectral_support(table)
        assert masks.tolist() == [0b10110001]
        self.check(lambda rng: FsOracle.from_table(table, rng),
                   masks, weights, 1 << 16, m)

    @pytest.mark.parametrize("m", BATCH_SIZES)
    @pytest.mark.parametrize("n", [20, 62, 1024])
    def test_junta(self, n, m):
        rng = make_rng(n, "sorted-key-junta")
        spec = JuntaSpec(n, spread_positions(n, 12, rng), random_table(12, rng))
        masks, weights = junta_support(spec)
        self.check(lambda rng: FsOracle.from_junta(spec, rng),
                   masks, weights, 1 << 24, m)

    @pytest.mark.parametrize("n", [10, 1024])
    def test_batch_is_a_sequence_of_draws(self, n):
        rng = make_rng(n, "sorted-key-seq")
        spec = JuntaSpec(n, spread_positions(n, 8, rng), random_table(8, rng))
        masks, weights = junta_support(spec)

        batch_rng, draw_rng, want_rng = (make_rng(0, "sorted-key-seq") for _ in range(3))
        batch = FsOracle.from_junta(spec, batch_rng).draw_batch(500)
        one_at_a_time = FsOracle.from_junta(spec, draw_rng)
        draws = [one_at_a_time.draw() for _ in range(500)]
        want = [int(naive_spectral_batch(masks, weights, 1 << 16, want_rng, 1)[0])
                for _ in range(500)]
        assert batch.dtype == mask_dtype(n)
        assert batch.tolist() == draws == want
        assert (batch_rng.bit_generator.state == draw_rng.bit_generator.state
                == want_rng.bit_generator.state)


def wide_junta(n: int) -> JuntaSpec:
    rng = make_rng(n, "exposed-junta")
    return JuntaSpec(n, spread_positions(n, 12, rng), random_table(12, rng))


def flipped_junta() -> TruthTable:
    """A 6-junta at n = 9 with three entries flipped, so variables 6-8 are
    relevant but rarely drawn: a union of 64 draws seldom holds them all."""
    spec = JuntaSpec(9, tuple(range(6)), random_table(6, make_rng(0, "exposed-flip")))
    values = make_junta(spec).values.copy()
    values[[5, 200, 400]] *= -1
    return TruthTable(9, values)


PREFIX = oracles._UNION_PREFIX

EXPOSED_BUILDERS = {
    "from_table": lambda rng: FsOracle.from_table(
        random_table(10, make_rng(0, "exposed-table")), rng),
    "from_table-flipped": lambda rng: FsOracle.from_table(flipped_junta(), rng),
    "from_spectrum": lambda rng: FsOracle.from_spectrum(
        wht(random_table(8, make_rng(0, "exposed-spectrum"))), rng),
    "from_junta-20": lambda rng: FsOracle.from_junta(wide_junta(20), rng),
    "from_junta-62": lambda rng: FsOracle.from_junta(wide_junta(62), rng),
    "from_junta-63": lambda rng: FsOracle.from_junta(wide_junta(63), rng),
    "from_junta-1024": lambda rng: FsOracle.from_junta(wide_junta(1024), rng),
    "for_parity": lambda rng: FsOracle.for_parity(1024, 1 | 1 << 63 | 1 << 1023, rng),
    "for_constant": lambda rng: FsOracle.for_parity(20, 0, rng),
    "for_reject": lambda rng: FsOracle.for_reject(
        sample_reject_instance(3, 1024, make_rng(0, "exposed-reject")), rng),
    "for_accept": lambda rng: FsOracle.for_accept(
        sample_accept_instance(4, 1024, make_rng(0, "exposed-accept")), rng),
}


CALL_BUILDERS = {**EXPOSED_BUILDERS, "ExOracle": lambda rng: ExOracle(
    random_table(6, make_rng(0, "calls-ex")), rng)}


class TestCallCounts:
    @pytest.mark.parametrize("name", CALL_BUILDERS)
    def test_each_oracle_counts_its_own_draws(self, name):
        rng = make_rng(5, "calls")
        oracle, other = CALL_BUILDERS[name](rng), CALL_BUILDERS[name](rng)
        assert oracle.calls == 0
        oracle.draw()
        want = 1
        for m in (0, 1, 7):
            oracle.draw_batch(m)
            want += m
            assert oracle.calls == want
            if not isinstance(oracle, ExOracle):
                oracle.draw_exposed(m)
                want += m
                assert oracle.calls == want
        # a second oracle on the same generator keeps its own count
        assert other.calls == 0
        other.draw_batch(3)
        assert (oracle.calls, other.calls) == (want, 3)


class TestDrawExposed:
    """``draw_exposed(m)`` against the union of ``draw_batch(m)`` from twin
    seeds: the same variables, calls and final generator state."""

    @pytest.mark.parametrize("m", [0, 1, 2, PREFIX - 1, PREFIX, PREFIX + 1, 1300])
    @pytest.mark.parametrize("name", EXPOSED_BUILDERS)
    def test_is_the_union_of_a_batch(self, name, m):
        got_rng, want_rng = make_rng(1, "exposed"), make_rng(1, "exposed")
        got_fs = EXPOSED_BUILDERS[name](got_rng)
        want_fs = EXPOSED_BUILDERS[name](want_rng)
        for _ in range(2):  # the second call starts mid-stream
            got = got_fs.draw_exposed(m)
            want = vars_from_mask(union_mask(want_fs.draw_batch(m)))
            assert got == want
            assert all(type(v) is int for v in got)
        assert got_fs.calls == want_fs.calls == 2 * m
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("name", EXPOSED_BUILDERS)
    def test_zero_draws_expose_nothing_and_negative_ones_raise(self, name):
        rng = make_rng(2, "exposed")
        fs = EXPOSED_BUILDERS[name](rng)
        state = rng.bit_generator.state
        assert fs.draw_exposed(0) == ()
        with pytest.raises(ValueError):
            fs.draw_exposed(-1)
        assert fs.calls == 0
        assert rng.bit_generator.state == state

    def test_wide_junta_lifts_only_what_draw_batch_returns(self, monkeypatch):
        lifted_sizes = []
        deposit = oracles.deposit_assignments

        def deposit_spy(inner, *args):
            lifted_sizes.append(len(inner))
            return deposit(inner, *args)

        monkeypatch.setattr(oracles, "deposit_assignments", deposit_spy)
        fs = FsOracle.from_junta(wide_junta(1024), make_rng(4, "exposed"))
        assert lifted_sizes == []
        assert len(fs.draw_exposed(1300)) <= 12
        assert lifted_sizes == []
        assert fs.draw_batch(1300).dtype == object
        assert type(fs.draw()) is int
        assert fs.draw_batch(7).dtype == object
        assert lifted_sizes == [1300, 1, 7]

    @staticmethod
    def spy_searches(monkeypatch):
        """Record the key counts that ``np.searchsorted`` and ``np.sort``
        are handed from now on."""
        searched, sorted_ = [], []
        search, sort = np.searchsorted, np.sort

        def search_spy(a, v, *args, **kwargs):
            searched.append(len(v))
            return search(a, v, *args, **kwargs)

        def sort_spy(a, *args, **kwargs):
            sorted_.append(len(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", search_spy)
        monkeypatch.setattr(np, "sort", sort_spy)
        return searched, sorted_

    def test_saturated_prefix_ends_the_search(self, monkeypatch):
        fs = FsOracle.from_junta(wide_junta(1024), make_rng(4, "exposed"))
        searched, sorted_ = self.spy_searches(monkeypatch)
        assert len(fs.draw_exposed(1300)) == 12
        assert searched == [PREFIX] and sorted_ == []
        assert fs.calls == 1300

    def test_unsaturated_prefix_searches_the_sorted_rest(self, monkeypatch):
        got_fs, prefix_fs = (FsOracle.from_table(flipped_junta(), make_rng(5, "exposed"))
                             for _ in range(2))
        searched, sorted_ = self.spy_searches(monkeypatch)
        got = got_fs.draw_exposed(1300)
        assert searched == [PREFIX, 1300 - PREFIX] and sorted_ == [1300 - PREFIX]
        # The prefix alone misses variables that the rest exposes.
        seen_early = vars_from_mask(union_mask(prefix_fs.draw_batch(PREFIX)))
        assert set(seen_early) < set(got) == set(range(9))


# fs-dist's four targets at the sizes the counting draw is checked on.
COUNT_TABLES = {
    "and2": lambda: AND2,
    "random-8": lambda: random_table(8, make_rng(8, "counts-table")),
    "random-16": lambda: random_table(16, make_rng(16, "counts-table")),
    "reject-2": lambda: realize_reject(
        sample_reject_instance(2, 6, make_rng(0, "counts-reject"))),
    "accept-2": lambda: realize_accept(
        sample_accept_instance(2, 4, make_rng(0, "counts-accept"))),
}


class TestDrawCounts:
    """``draw_counts(m)`` against ``np.bincount(draw_batch(m))`` from twin
    seeds: the same counts on the support, calls and final generator
    state."""

    @pytest.mark.parametrize("m", [0, 1, 5000])
    @pytest.mark.parametrize("name", COUNT_TABLES)
    def test_is_the_bincount_of_a_batch_on_the_support(self, name, m):
        table = COUNT_TABLES[name]()
        want_masks, want_weights = spectral_support(table)
        got_rng, want_rng = make_rng(6, "counts"), make_rng(6, "counts")
        got_fs = FsOracle.from_table(table, got_rng)
        want_fs = FsOracle.from_table(table, want_rng)
        for _ in range(2):  # the second call starts mid-stream
            masks, weights, counts = got_fs.draw_counts(m)
            dense = np.bincount(want_fs.draw_batch(m), minlength=1 << table.n)
            assert masks.dtype == weights.dtype == counts.dtype == np.int64
            assert np.all(masks[1:] > masks[:-1])
            assert masks.tolist() == want_masks.tolist()
            assert weights.tolist() == want_weights.tolist()
            assert int(weights.sum()) == 1 << (2 * table.n)
            assert counts.tolist() == dense[masks].tolist()
            assert int(counts.sum()) == int(dense.sum()) == m  # none off the support
        assert got_fs.calls == want_fs.calls == 2 * m
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n", [20, 1024])
    def test_a_junta_counts_on_its_ambient_masks(self, n):
        spec = wide_junta(n)
        want_masks, want_weights = junta_support(spec)
        got_rng, want_rng = make_rng(7, "counts"), make_rng(7, "counts")
        masks, weights, counts = FsOracle.from_junta(spec, got_rng).draw_counts(1300)
        tally = Counter(FsOracle.from_junta(spec, want_rng).draw_batch(1300).tolist())
        assert masks.dtype == mask_dtype(n)
        assert np.all(masks[1:] > masks[:-1])  # lifting keeps the order
        assert masks.tolist() == want_masks.tolist()
        assert weights.tolist() == want_weights.tolist()
        assert counts.tolist() == [tally[mask] for mask in masks.tolist()]
        assert int(counts.sum()) == 1300
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("name", COUNT_TABLES)
    def test_negative_m_raises_before_any_draw(self, name):
        rng = make_rng(8, "counts")
        fs = FsOracle.from_table(COUNT_TABLES[name](), rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            fs.draw_counts(-1)
        assert fs.calls == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("name", ["for_parity", "for_reject", "for_accept"])
    def test_only_weight_samplers_count(self, name):
        rng = make_rng(9, "counts")
        fs = EXPOSED_BUILDERS[name](rng)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            fs.draw_counts(5)
        assert fs.calls == 0
        assert rng.bit_generator.state == state
