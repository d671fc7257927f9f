"""Acceptance suite: every guaranteed behavior at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``-v -s`` to see
them live) and also enforces its wall-clock limit. Tolerances are pinned
here, not configurable.
"""
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from fsjunta import (
    ExOracle,
    FsOracle,
    TruthTable,
    chi_square_gof,
    distance,
    distance_to_best_junta_on,
    hypothesis_error,
    influence_direct,
    influence_spectral,
    junta_test,
    learn_junta,
    make_junta,
    make_rng,
    mask_from_vars,
    parseval_check,
    projection_values,
    random_junta_spec,
    random_table,
    realize_accept,
    realize_reject,
    sample_accept_instance,
    sample_reject_instance,
    sample_scenario,
    scenario_distinguisher,
    sign_projection,
    wht,
)
from fsjunta.learning import SUCCESS, default_example_cap, stage_one_draws
from fsjunta.oracles import accept_transcript, reject_transcript
from fsjunta.testing import (ACCEPT, REJECT, SCENARIO_I, SCENARIO_II, collision_features,
                             collision_guess, histogram_tv)

P_FLOOR = 1e-3


def _report(num, name, ok, elapsed, limit, detail):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): "
            f"{detail} [{elapsed:.1f}s, limit {limit}s]")
    print(line)
    assert ok, line


def _gof_pvalue(draws, weights):
    observed = np.bincount(np.asarray(draws), minlength=weights.size)
    _, pvalue, _ = chi_square_gof(observed, weights)
    return pvalue


def test_criterion_01_exact_parseval():
    limit, t0 = 10, time.perf_counter()
    rng = make_rng(101, "parseval")
    failures = 0
    for i in range(1000):
        n = (i % 12) + 1
        if not parseval_check(wht(random_table(n, rng))):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(1, "exact parseval", failures == 0 and elapsed < limit, elapsed,
            limit, f"1000 spectra over n=1..12, failures={failures}")


def test_criterion_02_influence_identity():
    limit, t0 = 10, time.perf_counter()
    rng = make_rng(102, "influence")
    mismatches = 0
    for i in range(200):
        n = (i % 10) + 1
        f = random_table(n, rng)
        sp = wht(f)
        for v in range(n):
            if influence_direct(f, v) != influence_spectral(sp, v):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(2, "influence identity", mismatches == 0 and elapsed < limit,
            elapsed, limit, f"200 functions, all variables, mismatches={mismatches}")


def test_criterion_03_fs_distribution_exactness():
    limit, t0 = 60, time.perf_counter()
    rng = make_rng(103, "fsdist")
    detail = []
    ok = True

    and2 = TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))
    cases = [
        ("and2", and2),
        ("random-n6", random_table(6, rng)),
        ("reject-r2", realize_reject(sample_reject_instance(2, 6, rng))),
    ]
    for name, table in cases:
        weights = wht(table).coeffs.astype(np.int64) ** 2
        fs = FsOracle.from_table(table, rng)
        pvalue = _gof_pvalue(fs.draw_batch(1_000_000), weights)
        detail.append(f"{name} p={pvalue:.3f}")
        ok &= pvalue >= P_FLOOR

    # analytic samplers against the exact table spectra, up to the largest
    # table-realizable r (reject needs r+2^r variables, accept r+2^(r-1))
    for r in (1, 2, 3, 4):
        inst = sample_reject_instance(r, r + (1 << r), rng)
        weights = wht(realize_reject(inst)).coeffs.astype(np.int64) ** 2
        pvalue = _gof_pvalue(
            FsOracle.for_reject(inst, rng).draw_batch(200_000), weights)
        detail.append(f"rj{r} p={pvalue:.3f}")
        ok &= pvalue >= P_FLOOR
    for r in (1, 2, 3, 4, 5):
        inst = sample_accept_instance(r, r + (1 << (r - 1)), rng)
        weights = wht(realize_accept(inst)).coeffs.astype(np.int64) ** 2
        pvalue = _gof_pvalue(
            FsOracle.for_accept(inst, rng).draw_batch(200_000), weights)
        detail.append(f"ac{r} p={pvalue:.3f}")
        ok &= pvalue >= P_FLOOR

    elapsed = time.perf_counter() - t0
    _report(3, "fs distribution exactness", ok and elapsed < limit, elapsed,
            limit, "; ".join(detail))


def test_criterion_04_hard_instance_coefficients():
    limit, t0 = 5, time.perf_counter()
    rng = make_rng(104, "coeffs")
    ok = True
    detail = []
    for r in (1, 2, 3):
        n = r + (1 << r)
        inst = sample_reject_instance(r, n, rng)
        weights = wht(realize_reject(inst)).coeffs.astype(np.int64) ** 2
        nonzero = weights[weights > 0]
        want = (1 << (2 * n)) >> (2 * r)
        flat = set(nonzero.tolist()) == {want}
        count = nonzero.size == 1 << (2 * r)
        ok &= flat and count
        detail.append(f"rj{r}:{nonzero.size}x{want}")

        n = r + (1 << (r - 1))
        inst = sample_accept_instance(r, n, rng)
        weights = wht(realize_accept(inst)).coeffs.astype(np.int64) ** 2
        nonzero = weights[weights > 0]
        want = (1 << (2 * n)) >> (2 * r - 2)
        flat = set(nonzero.tolist()) == {want}
        # one coefficient per wired slot and per matching-parity subset:
        # 2^(r-1) slots times 2^(r-1) subsets
        count = nonzero.size == 1 << (2 * r - 2)
        ok &= flat and count
        detail.append(f"ac{r}:{nonzero.size}x{want}")
    elapsed = time.perf_counter() - t0
    _report(4, "hard-instance coefficients", ok and elapsed < limit, elapsed,
            limit, " ".join(detail))


def test_criterion_05_tester_completeness():
    limit, t0 = 30, time.perf_counter()
    rng = make_rng(105, "complete")
    eps = 0.1
    accepts = 0
    query_ok = True
    runs = 0
    for i in range(50):
        k = (i % 8) + 1
        n = int(rng.integers(k, 17))
        spec = random_junta_spec(n, k, rng)
        expected_queries = math.ceil(10 * (k + 1) / eps)
        for _ in range(20):
            fs = FsOracle.from_junta(spec, rng)
            verdict = junta_test(fs, k, eps)
            runs += 1
            accepts += verdict.decision == ACCEPT
            query_ok &= (verdict.queries_used == expected_queries
                         == fs.calls)
    elapsed = time.perf_counter() - t0
    ok = accepts == runs == 1000 and query_ok and elapsed < limit
    _report(5, "tester completeness", ok, elapsed, limit,
            f"accepts={accepts}/{runs}, query counts exact={query_ok}")


def test_criterion_06_tester_soundness():
    limit, t0 = 60, time.perf_counter()
    rng = make_rng(106, "sound")
    eps, trials = 0.1, 300
    r = 5
    k = r + (1 << (r - 1))  # 21: the size for which the accept family is a junta
    n = 60

    reject_hits = 0
    for _ in range(trials):
        inst = sample_reject_instance(r, n, rng)
        fs = FsOracle.for_reject(inst, rng)
        reject_hits += junta_test(fs, k, eps).decision == REJECT
    reject_rate = reject_hits / trials

    parity_hits = 0
    for _ in range(trials):
        chosen = rng.choice(n, size=k + 1, replace=False)
        fs = FsOracle.for_parity(n, mask_from_vars(chosen), rng)
        parity_hits += junta_test(fs, k, eps).decision == REJECT
    parity_rate = parity_hits / trials

    elapsed = time.perf_counter() - t0
    ok = reject_rate >= 2 / 3 and parity_rate >= 2 / 3 and elapsed < limit
    _report(6, "tester soundness", ok, elapsed, limit,
            f"reject-family rate={reject_rate:.3f}, "
            f"(k+1)-parity rate={parity_rate:.3f} (contract 2/3)")


def test_criterion_07_scenario_distinguisher():
    limit, t0 = 60, time.perf_counter()
    k, c, trials = 14, 8.0, 200
    n = 64
    hits = {SCENARIO_I: 0, SCENARIO_II: 0}
    for which in (SCENARIO_I, SCENARIO_II):
        rng = make_rng(107, f"scenario-{which}")
        for _ in range(trials):
            fs = FsOracle.from_junta(sample_scenario(which, k, n, rng), rng)
            hits[which] += scenario_distinguisher(fs, k, c) == which
    rate_one = hits[SCENARIO_I] / trials
    rate_two = hits[SCENARIO_II] / trials
    elapsed = time.perf_counter() - t0
    ok = rate_one >= 0.9 and rate_two == 1.0 and elapsed < limit
    _report(7, "scenario distinguisher", ok, elapsed, limit,
            f"scenario-I rate={rate_one:.3f} (>=0.9), "
            f"scenario-II rate={rate_two:.3f} (=1.0)")


def test_criterion_08_indistinguishable_at_small_length():
    limit, t0 = 60, time.perf_counter()
    r, n, num_draws, trials = 9, 1024, 3, 10_000
    rng = make_rng(108, "tv-small")

    # hard-zero side condition: accept transcripts can never show a slot
    # with both size parities
    inconsistent_accepts = 0
    hist = {ACCEPT: Counter(), REJECT: Counter()}
    for _ in range(trials):
        fa = collision_features(*accept_transcript(
            sample_accept_instance(r, n, rng), rng, num_draws))
        fb = collision_features(*reject_transcript(
            sample_reject_instance(r, n, rng), rng, num_draws))
        inconsistent_accepts += fa[1]
        hist[ACCEPT][fa] += 1
        hist[REJECT][fb] += 1
    estimate = histogram_tv(hist[ACCEPT], hist[REJECT], trials)

    elapsed = time.perf_counter() - t0
    ok = estimate <= 0.1 and inconsistent_accepts == 0 and elapsed < limit
    _report(8, "small-length indistinguishability", ok, elapsed, limit,
            f"tv lower bound={estimate:.4f} (<=0.1), "
            f"accept inconsistencies={inconsistent_accepts} (hard 0)")


def test_criterion_09_collision_distinguisher_at_large_length():
    limit, t0 = 30, time.perf_counter()
    r, n, num_draws, trials = 7, 200, 60, 500
    rng = make_rng(109, "collision")
    correct = 0
    for _ in range(trials):
        _, inconsistent = collision_features(*accept_transcript(
            sample_accept_instance(r, n, rng), rng, num_draws))
        correct += collision_guess(inconsistent) == ACCEPT
    for _ in range(trials):
        _, inconsistent = collision_features(*reject_transcript(
            sample_reject_instance(r, n, rng), rng, num_draws))
        correct += collision_guess(inconsistent) == REJECT
    rate = correct / (2 * trials)
    elapsed = time.perf_counter() - t0
    ok = rate >= 2 / 3 and elapsed < limit
    _report(9, "collision distinguisher", ok, elapsed, limit,
            f"overall success={rate:.3f} over {2 * trials} trials (>=2/3)")


def test_criterion_10_learner_end_to_end():
    limit, t0 = 120, time.perf_counter()
    k, n, eps, trials = 8, 20, 0.1, 100
    rng = make_rng(110, "learner")
    expected_fs = stage_one_draws(k, eps)     # ceil((10k/eps) ln(10k))
    ex_cap = default_example_cap(k, eps)      # ceil(8 * 2^8 * ln 10)
    fs_exact = True
    within_eps = 0
    within_cap = 0
    for _ in range(trials):
        spec = random_junta_spec(n, k, rng)
        table = make_junta(spec)
        fs = FsOracle.from_junta(spec, rng)
        ex = ExOracle(table, rng)
        report = learn_junta(fs, ex, k, eps)
        fs_exact &= report.fs_calls == expected_fs
        # completed (not timed out) within the stated example budget
        within_cap += report.status == SUCCESS and report.ex_calls <= ex_cap
        if report.hypothesis is not None:
            within_eps += hypothesis_error(table, report.hypothesis) <= Fraction(1, 10)
    elapsed = time.perf_counter() - t0
    ok = (fs_exact and within_eps >= (2 / 3) * trials
          and within_cap >= 0.9 * trials and elapsed < limit)
    _report(10, "learner end-to-end", ok, elapsed, limit,
            f"error<=0.1 in {within_eps}/{trials} (>=2/3), "
            f"fs_calls=={expected_fs} always={fs_exact}, "
            f"done within ex_calls<={ex_cap} in {within_cap}/{trials} (>=90%)")


def test_criterion_11_projection_oracle_agreement():
    limit, t0 = 30, time.perf_counter()
    rng = make_rng(111, "projection")
    inequality_ok = True
    agreement_ok = True
    nowhere_zero_cases = 0
    for i in range(100):
        n = (i % 7) + 2
        f = random_table(n, rng)
        sp = wht(f)
        total = 1 << (2 * n)
        for _ in range(20):
            subset = int(rng.integers(0, 1 << n))
            inside = sum(int(sp.coeffs[s]) ** 2 for s in range(1 << n)
                         if not (s & ~subset))
            outside = Fraction(total - inside, total)
            inequality_ok &= distance(f, sign_projection(f, subset)) <= outside
            if np.all(projection_values(f, subset) != 0):
                nowhere_zero_cases += 1
                agreement_ok &= (
                    distance_to_best_junta_on(f, subset)
                    == distance(f, sign_projection(f, subset)))
    elapsed = time.perf_counter() - t0
    ok = (inequality_ok and agreement_ok and nowhere_zero_cases > 50
          and elapsed < limit)
    _report(11, "projection oracle agreement", ok, elapsed, limit,
            f"inequality held on 2000 subsets={inequality_ok}, "
            f"vote agreement on {nowhere_zero_cases} nowhere-zero cases="
            f"{agreement_ok}")
