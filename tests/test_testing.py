import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fsjunta import (
    FsOracle,
    TruthTable,
    chi_square_gof,
    influence_direct,
    influence_spectral,
    junta_test,
    make_rng,
    random_junta_spec,
    sample_accept_instance,
    sample_reject_instance,
    sample_scenario,
    scenario_distinguisher,
    wht,
)
from fsjunta.oracles import accept_transcript, reject_transcript
from fsjunta.testing import (
    ACCEPT,
    REJECT,
    SCENARIO_I,
    SCENARIO_II,
    collision_features,
    collision_guess,
    histogram_tv,
    junta_test_draws,
)
from reference import unique_collision_features


def fresh_transcript(source, r, n, rng, m):
    """m draws from a fresh instance of the ``source`` family: the sampler,
    then the transcript, on one generator, as the harness draws them."""
    if source == ACCEPT:
        return accept_transcript(sample_accept_instance(r, n, rng), rng, m)
    return reject_transcript(sample_reject_instance(r, n, rng), rng, m)


def feature_tv(source_a, source_b, r, n, m, trials, rng):
    """Plug-in TV of the two families' collision-feature histograms. Each
    trial draws a transcript of ``source_a``, then one of ``source_b``."""
    hist_a, hist_b = Counter(), Counter()
    for _ in range(trials):
        hist_a[collision_features(*fresh_transcript(source_a, r, n, rng, m))] += 1
        hist_b[collision_features(*fresh_transcript(source_b, r, n, rng, m))] += 1
    return histogram_tv(hist_a, hist_b, trials)


class TestJuntaTest:
    def test_accepts_every_junta_with_exact_query_count(self):
        rng = make_rng(0, "complete")
        for trial in range(30):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k + 1, 17))
            spec = random_junta_spec(n, k, rng)
            fs = FsOracle.from_junta(spec, rng)
            verdict = junta_test(fs, k, 0.1)
            assert verdict.decision == ACCEPT
            assert verdict.queries_used == math.ceil(10 * (k + 1) / 0.1)
            assert fs.calls == verdict.queries_used
            assert verdict.exposed <= set(spec.relevant)

    def test_draw_count_is_exact_for_decimal_eps(self):
        # 10 * 29 / 0.29 is 1000.0000000000001 in floating point
        fs = FsOracle.for_parity(30, 0, make_rng(0, "exact"))
        assert junta_test(fs, 28, 0.29).queries_used == 1000
        fs = FsOracle.for_parity(1024, 0, make_rng(0, "exact"))
        assert junta_test(fs, 12, 0.1).queries_used == 1300
        # an equal but exact binary eps has its own cache entry and count
        assert junta_test_draws(28, Fraction(0.29)) == 1001

    def test_exposed_variables_are_plain_ints(self):
        rng = make_rng(0, "plain")
        for _ in range(5):
            fs = FsOracle.from_junta(random_junta_spec(1024, 12, rng), rng)
            exposed = junta_test(fs, 12, 0.1).exposed
            assert exposed and all(type(v) is int for v in exposed)

    def test_rejects_a_parity_on_k_plus_one_variables(self):
        # the sampler is a point mass, so one draw already exposes k+1
        for k in (1, 3, 6):
            fs = FsOracle.for_parity(16, (1 << (k + 1)) - 1, make_rng(k, "par"))
            verdict = junta_test(fs, k, 0.5)
            assert verdict.decision == REJECT
            assert len(verdict.exposed) == k + 1

    def test_rejects_reject_instances_far_from_juntas(self):
        rng = make_rng(1, "sound")
        rejections = 0
        for trial in range(50):
            inst = sample_reject_instance(2, 6, rng)
            fs = FsOracle.for_reject(inst, rng)
            verdict = junta_test(fs, 4, 0.1)
            rejections += verdict.decision == REJECT
        assert rejections >= 45

    def test_parameter_validation(self):
        fs = FsOracle.for_parity(4, 0b1, make_rng(0, "v"))
        with pytest.raises(ValueError):
            junta_test(fs, -1, 0.1)
        with pytest.raises(ValueError):
            junta_test(fs, 2, 0.0)

    def test_constant_function_always_accepted_even_at_k_zero(self):
        fs = FsOracle.from_table(TruthTable(4, np.full(1 << 4, -1, np.int8)),
                                 make_rng(0, "c"))
        assert junta_test(fs, 0, 0.1).decision == ACCEPT


class TestScenarios:
    def test_scenario_one_reads_exactly_the_first_k_plus_one(self):
        spec = sample_scenario(SCENARIO_I, 5, 12, make_rng(0, "s1"))
        assert (spec.n, spec.relevant, spec.inner.n) == (12, tuple(range(6)), 6)
        assert all(influence_direct(spec.inner, i) > 0 for i in range(6))

    def test_scenario_two_ignores_its_dropped_variable(self):
        for seed in range(10):
            spec = sample_scenario(SCENARIO_II, 5, 12, make_rng(seed, "s2"))
            assert spec.relevant == tuple(range(6))
            zero = [i for i in range(6) if influence_direct(spec.inner, i) == 0]
            assert len(zero) == 1

    def test_scenario_one_variables_all_carry_heavy_weight(self):
        # for moderately large k a random table gives every variable
        # spectral weight above 1/3 essentially always
        found = 0
        for seed in range(10):
            spec = sample_scenario(SCENARIO_I, 10, 20, make_rng(seed, "s3"))
            sp = wht(spec.inner)
            for i in range(11):
                found += influence_spectral(sp, i) > 0.334
        assert found == 110

    def test_distinguisher_never_mistakes_scenario_two(self):
        rng = make_rng(0, "d2")
        for trial in range(40):
            fs = FsOracle.from_junta(sample_scenario(SCENARIO_II, 6, 20, rng), rng)
            assert scenario_distinguisher(fs, 6) == SCENARIO_II

    def test_distinguisher_catches_scenario_one_whp(self):
        rng = make_rng(1, "d1")
        hits = 0
        for trial in range(50):
            fs = FsOracle.from_junta(sample_scenario(SCENARIO_I, 8, 20, rng), rng)
            hits += scenario_distinguisher(fs, 8) == SCENARIO_I
        assert hits >= 45

    def test_draw_count_follows_the_log_rule(self):
        fs = FsOracle.for_parity(20, 0b1, make_rng(0, "dc"))
        scenario_distinguisher(fs, 14, c=8)
        assert fs.calls == math.ceil(8 * math.log2(16))

    def test_degenerate_constant_guesses_scenario_two(self):
        fs = FsOracle.from_table(TruthTable(4, np.full(1 << 4, 1, np.int8)),
                                 make_rng(0, "dg"))
        assert scenario_distinguisher(fs, 2) == SCENARIO_II

    def test_bad_scenario_name(self):
        with pytest.raises(ValueError):
            sample_scenario("III", 3, 8, make_rng(0, "bad"))


class TestCollisionFeatures:
    def test_counts_repeats_and_flags_mixed_parity(self):
        slots = np.array([4, 7, 4, 9, 4])
        masks = np.array([0b11, 0b1, 0b11, 0b0, 0b111])
        collisions, inconsistent = collision_features(slots, masks)
        assert collisions == 2
        assert inconsistent  # slot 4 appeared with even and odd masks

    def test_consistent_collisions_do_not_flag(self):
        slots = np.array([4, 4, 9])
        masks = np.array([0b11, 0b00, 0b1])
        assert collision_features(slots, masks) == (1, False)

    def test_no_collisions(self):
        slots = np.array([1, 2, 3])
        masks = np.array([0b1, 0b1, 0b1])
        assert collision_features(slots, masks) == (0, False)

    def test_sets_match_the_unique_formula_on_random_transcripts(self):
        rng = make_rng(0, "features")
        flagged = 0
        for trial in range(500):
            r = int(rng.integers(1, 6))
            m = 1 if trial % 10 == 0 else int(rng.integers(1, 25))
            source = ACCEPT if trial % 2 else REJECT
            slots, masks = fresh_transcript(source, r, r + (1 << r), rng, m)
            if trial % 7 == 0:
                slots = np.full(m, slots[0])
            got = collision_features(slots, masks)
            assert got == unique_collision_features(slots, masks)
            assert type(got[0]) is int and type(got[1]) is bool
            flagged += got[1]
        assert 0 < flagged < 500


class TestCollisionDistinguisher:
    def test_accept_sources_never_rejected(self):
        # inconsistent parity has probability exactly zero under accept
        rng = make_rng(0, "cda")
        for trial in range(200):
            slots, masks = fresh_transcript(ACCEPT, 4, 40, rng, 30)
            assert collision_guess(collision_features(slots, masks)[1]) == ACCEPT

    def test_fixed_accept_instance_also_safe(self):
        rng = make_rng(1, "cdf")
        inst = sample_accept_instance(4, 40, rng)
        for trial in range(100):
            slots, masks = accept_transcript(inst, rng, 30)
            assert collision_guess(collision_features(slots, masks)[1]) == ACCEPT

    def test_reject_sources_caught_once_collisions_are_plentiful(self):
        rng = make_rng(2, "cdr")
        hits = 0
        for _ in range(100):
            slots, masks = fresh_transcript(REJECT, 7, 200, rng, 60)
            hits += collision_guess(collision_features(slots, masks)[1]) == REJECT
        assert hits >= 90

    def test_repeated_slot_parity_mismatch_is_a_coin_flip_on_reject(self):
        rng = make_rng(3, "coin")
        inst = sample_reject_instance(3, 20, rng)
        mismatches = 0
        pairs = 0
        for _ in range(2000):
            slots, masks = reject_transcript(inst, rng, 2)
            if slots[0] == slots[1]:
                pairs += 1
                parity = np.bitwise_count(masks.astype(np.uint64)) & 1
                mismatches += parity[0] != parity[1]
        assert pairs > 150
        assert 0.35 < mismatches / pairs < 0.65


class TestFreshVariableUniformity:
    def test_first_occurrence_address_masks_are_uniform_under_both(self):
        # conditioned on a slot being new, the address subset is uniform
        # over all 2^r subsets for either family
        r, n, per_transcript = 3, 16, 8
        for label, source in (("rj", REJECT), ("ac", ACCEPT)):
            rng = make_rng(0, f"fresh-{label}")
            counts = np.zeros(1 << r, dtype=np.int64)
            collected = 0
            while collected < 100_000:
                slots, masks = fresh_transcript(source, r, n, rng, per_transcript)
                _, first = np.unique(slots, return_index=True)
                picked = masks[first]
                counts += np.bincount(picked, minlength=1 << r)
                collected += picked.size
            _, pvalue, _ = chi_square_gof(counts, np.ones(1 << r))
            assert pvalue > 1e-3, label


class TestTvEstimate:
    def test_identical_sources_estimate_near_zero(self):
        rng = make_rng(0, "tv0")
        estimate = feature_tv(REJECT, REJECT, 5, 64, 10, 4000, rng)
        assert estimate <= 0.05

    def test_distinguishable_at_large_transcript_length(self):
        rng = make_rng(1, "tv1")
        estimate = feature_tv(ACCEPT, REJECT, 7, 200, 60, 400, rng)
        assert estimate >= 1 / 3

    def test_nearly_flat_at_tiny_transcript_length(self):
        rng = make_rng(2, "tv2")
        estimate = feature_tv(ACCEPT, REJECT, 7, 200, 3, 2000, rng)
        assert estimate <= 0.1

    def test_estimate_is_within_the_unit_interval(self):
        rng = make_rng(3, "tv3")
        estimate = feature_tv(ACCEPT, REJECT, 3, 16, 40, 500, rng)
        assert 0.0 <= estimate <= 1.0

    def test_histogram_distance_is_exact(self):
        a = Counter({(0, 0): 3, (1, 0): 1})
        b = Counter({(0, 0): 1, (1, 1): 3})
        assert histogram_tv(a, b, 4) == 0.75
        assert histogram_tv(a, a, 4) == 0.0
        assert histogram_tv(Counter({"x": 2}), Counter({"y": 2}), 2) == 1.0
