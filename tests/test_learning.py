import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fsjunta import (
    ExOracle,
    FsOracle,
    Hypothesis,
    JuntaSpec,
    N_MAX,
    TruthTable,
    find_influential,
    hypothesis_error,
    influence_direct,
    learn_junta,
    make_junta,
    make_parity,
    make_rng,
    random_junta_spec,
)
from fsjunta.boolfn import as_junta
from fsjunta.learning import (
    STAGE_ONE_OVERFLOW,
    STAGE_TWO_TIMEOUT,
    SUCCESS,
    UNSEEN,
    _collector_moments,
    coverage_target,
    default_example_cap,
    stage_one_draws,
)

from reference import naive_stage_two

AND2 = TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))


def first_chunk(cells, needed):
    mean, sd = _collector_moments(cells, needed)
    return math.ceil(mean + 2 * sd)


class SpyEx(ExOracle):
    """An ExOracle that records the size of every batch it draws."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sizes = []

    def draw_batch(self, m):
        self.sizes.append(m)
        return super().draw_batch(m)


class ScriptedEx:
    """Replays a fixed example sequence; stands in for ExOracle in tests.

    A batch may run past the end of the script; it is then padded with
    copies of the last example, which the learner must not use, so a test
    checks that the examples it reports stay within the script.
    """

    def __init__(self, examples):
        self.examples = list(examples)
        self.cursor = 0

    def draw_batch(self, m):
        served = self.examples[self.cursor:self.cursor + m]
        served += [self.examples[-1]] * (m - len(served))
        self.cursor += m
        xs, ys = zip(*served)
        return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int8)


class TestFindInfluential:
    def test_constant_target_yields_nothing(self):
        fs = FsOracle.from_table(TruthTable(6, np.full(1 << 6, 1, np.int8)),
                                 make_rng(0, "c"))
        assert find_influential(fs, 3, 0.1) == ()

    def test_two_variable_parity_found_exactly(self):
        fs = FsOracle.for_parity(8, 0b11, make_rng(0, "p"))
        assert find_influential(fs, 2, 0.1) == (0, 1)

    def test_draw_count_formula(self):
        fs = FsOracle.for_parity(8, 0b1, make_rng(0, "q"))
        find_influential(fs, 6, 0.25)
        assert fs.calls == math.ceil((10 * 6 / 0.25) * math.log(60))

    def test_heavy_variables_recovered_whp(self):
        rng = make_rng(1, "heavy")
        eps = 0.1
        hits = 0
        for trial in range(200):
            spec = random_junta_spec(20, 6, rng)
            f = make_junta(spec)
            fs = FsOracle.from_junta(spec, rng)
            found = set(find_influential(fs, 6, eps))
            heavy = {i for i in spec.relevant
                     if influence_direct(f, i) >= Fraction(1, 600)}
            hits += heavy <= found
        assert hits >= 180

    def test_every_returned_variable_is_relevant(self):
        rng = make_rng(2, "sound")
        for trial in range(30):
            spec = random_junta_spec(16, 5, rng)
            f = make_junta(spec)
            fs = FsOracle.from_junta(spec, rng)
            for v in find_influential(fs, 5, 0.2):
                assert influence_direct(f, v) > 0

    def test_parameter_validation(self):
        fs = FsOracle.for_parity(4, 0b1, make_rng(0, "v"))
        with pytest.raises(ValueError):
            find_influential(fs, 0, 0.1)
        with pytest.raises(ValueError):
            find_influential(fs, 2, 1.5)


class TestLearnJunta:
    def test_two_variable_parity_learned_exactly(self):
        table = make_parity(10, 0b11)
        fs = FsOracle.for_parity(10, 0b11, make_rng(0, "fs"))
        ex = ExOracle(table, make_rng(0, "ex"))
        report = learn_junta(fs, ex, 2, 0.1)
        assert report.status == SUCCESS
        assert report.hypothesis.vars == (0, 1)
        assert not np.any(report.hypothesis.entries == UNSEEN)
        assert hypothesis_error(table, report.hypothesis) == 0
        assert report.fs_calls == stage_one_draws(2, 0.1)
        assert report.ex_calls <= ex.calls

    def test_constant_true_target(self):
        table = TruthTable(8, np.full(1 << 8, -1, np.int8))
        fs = FsOracle.from_table(table, make_rng(1, "fs"))
        ex = ExOracle(table, make_rng(1, "ex"))
        report = learn_junta(fs, ex, 3, 0.1)
        assert report.status == SUCCESS
        assert report.hypothesis.vars == ()
        assert report.ex_calls == 1
        assert report.hypothesis.entries.tolist() == [-1]
        assert hypothesis_error(table, report.hypothesis) == 0

    def test_random_juntas_end_to_end(self):
        rng = make_rng(2, "e2e")
        good = 0
        for trial in range(15):
            spec = random_junta_spec(16, 6, rng)
            table = make_junta(spec)
            fs = FsOracle.from_junta(spec, rng)
            ex = ExOracle(table, rng)
            report = learn_junta(fs, ex, 6, 0.1)
            assert report.fs_calls == stage_one_draws(6, 0.1)
            assert report.ex_calls <= default_example_cap(6, 0.1)
            if report.status == SUCCESS:
                assert report.encountered_fraction >= 1 - Fraction(1, 30)
                good += hypothesis_error(table, report.hypothesis) <= Fraction(1, 10)
        assert good >= 10

    def test_stage_one_overflow_when_the_promise_is_false(self):
        # a 3-variable parity exposes 3 variables with the first draw
        table = make_parity(6, 0b111)
        fs = FsOracle.for_parity(6, 0b111, make_rng(3, "fs"))
        ex = ExOracle(table, make_rng(3, "ex"))
        report = learn_junta(fs, ex, 2, 0.1)
        assert report.status == STAGE_ONE_OVERFLOW
        assert report.hypothesis is None
        assert report.ex_calls == 0
        assert report.encountered_fraction == 0

    def test_stage_two_timeout_is_reported(self):
        table = make_parity(8, 0b1100)
        fs = FsOracle.for_parity(8, 0b1100, make_rng(4, "fs"))
        ex = ExOracle(table, make_rng(4, "ex"))
        report = learn_junta(fs, ex, 2, 0.1, max_ex_draws=2)
        assert report.status == STAGE_TWO_TIMEOUT
        assert report.ex_calls == 2
        assert report.encountered_fraction < 1 - Fraction(1, 30)
        # the partial hypothesis still evaluates (unseen cells read -1)
        assert hypothesis_error(table, report.hypothesis) <= 1

    def test_first_seen_wins_and_later_duplicates_never_matter(self):
        table = make_parity(6, 0b11)
        fs = FsOracle.for_parity(6, 0b11, make_rng(5, "fs"))
        recording = ExOracle(table, make_rng(5, "ex"))
        base = learn_junta(fs, recording, 2, 0.1)

        # replay the identical stream with duplicates injected after the
        # first occurrence of each projected assignment
        replay_stream = []
        seen_cells = set()
        rng = make_rng(5, "ex")
        for _ in range(base.ex_calls):
            x = int(rng.integers(0, 64))
            example = (x, int(table.values[x]))
            replay_stream.append(example)
            cell = x & 0b11
            if cell in seen_cells:
                continue
            seen_cells.add(cell)
            replay_stream.append(example)  # duplicate of a seen cell
        scripted = ScriptedEx(replay_stream)
        fs2 = FsOracle.for_parity(6, 0b11, make_rng(5, "fs"))
        again = learn_junta(fs2, scripted, 2, 0.1)
        assert again.ex_calls <= scripted.cursor
        assert again.ex_calls <= len(replay_stream)
        assert np.array_equal(again.hypothesis.entries, base.hypothesis.entries)
        assert again.hypothesis.vars == base.hypothesis.vars

    def test_error_bounded_by_unseen_mass_when_all_variables_found(self):
        # once every relevant variable is recovered, seen cells are exact,
        # so the error cannot exceed the unseen fraction
        rng = make_rng(7, "bound")
        checked = 0
        for trial in range(20):
            spec = random_junta_spec(14, 5, rng)
            table = make_junta(spec)
            fs = FsOracle.from_junta(spec, rng)
            ex = ExOracle(table, rng)
            report = learn_junta(fs, ex, 5, 0.1, max_ex_draws=40)
            if report.hypothesis is None:
                continue
            if set(report.hypothesis.vars) == set(spec.relevant):
                checked += 1
                assert (hypothesis_error(table, report.hypothesis)
                        <= 1 - report.encountered_fraction)
        assert checked >= 10

    def test_coverage_is_monotone_in_the_example_budget(self):
        table = make_junta(random_junta_spec(12, 5, make_rng(6, "t")))
        fractions = []
        for cap in (1, 4, 16, 64, 256):
            fs = FsOracle.from_table(table, make_rng(6, "fs"))
            ex = ExOracle(table, make_rng(6, "ex"))
            report = learn_junta(fs, ex, 5, 0.1, max_ex_draws=cap)
            fractions.append(report.encountered_fraction)
        assert fractions == sorted(fractions)


class TestChunkedStageTwo:
    """The chunked stage 2 against the one-at-a-time loop of
    ``reference.naive_stage_two``: equal tables, statuses and counts."""

    @staticmethod
    def run_both(spec, k, eps, seed, cap):
        rng = make_rng(seed, "stage2")
        fs = FsOracle.from_junta(spec, rng)
        ex = ExOracle(spec, rng)
        report = learn_junta(fs, ex, k, eps, cap)

        rng_ref = make_rng(seed, "stage2")
        fs_ref = FsOracle.from_junta(spec, rng_ref)
        found = find_influential(fs_ref, k, eps)
        cells = 1 << len(found)
        needed = coverage_target(cells, eps)
        budget = default_example_cap(k, eps) if cap is None else cap
        entries, seen, draws = naive_stage_two(spec, rng_ref, found, needed,
                                               budget)

        assert report.hypothesis.vars == found
        assert np.array_equal(report.hypothesis.entries, entries)
        assert report.status == (SUCCESS if seen >= needed else STAGE_TWO_TIMEOUT)
        assert report.ex_calls == draws
        assert report.encountered_fraction == Fraction(seen, cells)
        assert fs.calls == fs_ref.calls
        return report, needed

    def test_matches_the_scalar_loop(self):
        """220 seeds over junta sizes 0..10 and ambient n up to 62; caps
        None, 0, 1, below the coverage target, between it and the first
        chunk, past the first chunk, at the stop index and one past it."""
        rng = np.random.default_rng(71)
        caps = np.random.default_rng(72)
        for seed in range(220):
            size = seed % 11
            n = int(rng.choice([max(size, 1) + 2, 20, 32, 33, 62]))
            eps = float(rng.choice([0.1, 0.3, 0.6, 1.0]))
            if size == 0:
                sign = int(rng.choice([-1, 1]))
                spec = as_junta(TruthTable(6, np.full(1 << 6, sign, np.int8)))
            else:
                spec = random_junta_spec(n, size, rng)
            k = max(size, 1)
            report, needed = self.run_both(spec, k, eps, seed, None)
            if size == 0:
                assert report.hypothesis.vars == ()
                assert report.ex_calls == 1
            stop = report.ex_calls
            inside = int(rng.integers(1, needed)) if needed > 1 else 0
            first = first_chunk(1 << len(report.hypothesis.vars), needed)
            between = int(caps.integers(needed, first + 1))
            past = int(caps.integers(first + 1, 2 * first + 1))
            for cap in (0, 1, inside, between, past, stop, stop + 1):
                self.run_both(spec, k, eps, seed, cap)

    def test_no_chunk_goes_past_draws_max(self, monkeypatch):
        """With ``DRAWS_MAX`` set to 40, every batch stays at or under 40,
        and the report ends as uncapped."""

        def run(seed):
            rng = make_rng(seed, "capped")
            spec = random_junta_spec(20, 5, rng)
            fs = FsOracle.from_junta(spec, rng)
            ex = SpyEx(spec, rng)
            report = learn_junta(fs, ex, 5, 0.1)
            return report, ex.sizes

        uncapped = [run(seed) for seed in range(10)]
        monkeypatch.setattr("fsjunta.learning.DRAWS_MAX", 40)
        capped = [run(seed) for seed in range(10)]
        assert max(max(sizes) for _, sizes in uncapped) > 40
        for (report, _), (report2, sizes) in zip(uncapped, capped):
            assert max(sizes) <= 40
            assert (report2.status, report2.ex_calls, report2.fs_calls,
                    report2.encountered_fraction) == (
                report.status, report.ex_calls, report.fs_calls,
                report.encountered_fraction)
            assert report2.hypothesis.vars == report.hypothesis.vars
            assert np.array_equal(report2.hypothesis.entries,
                                  report.hypothesis.entries)

    @pytest.mark.parametrize("k", [18, 19])
    def test_no_chunk_goes_past_the_window(self, k):
        """From 2^18 cells on, every batch stays at or under a quarter of
        the cells, and the stage still stops inside its last batch."""
        rng = make_rng(k, "window")
        spec = random_junta_spec(k + 2, k, rng)
        fs = FsOracle.from_junta(spec, rng)
        ex = SpyEx(spec, rng)
        report = learn_junta(fs, ex, k, 0.1)
        assert report.status == SUCCESS
        assert len(report.hypothesis.vars) == k
        window = 1 << (k - 2)
        assert max(ex.sizes) == window
        # coverage is reached inside the last batch
        assert sum(ex.sizes[:-1]) < report.ex_calls <= sum(ex.sizes)

    def test_most_trials_end_inside_the_first_chunk(self):
        """At the benchmark config (k = 8, n = 20, eps = 0.1), 400 seeded
        trials draw at most 1.1 batches each, the first one sized from the
        collector moments; chunks that start at the coverage target took
        2.96."""
        batches = 0
        for seed in range(400):
            rng = make_rng(seed, "chunks")
            spec = random_junta_spec(20, 8, rng)
            fs = FsOracle.from_junta(spec, rng)
            ex = SpyEx(spec, rng)
            report = learn_junta(fs, ex, 8, 0.1)
            cells = 1 << len(report.hypothesis.vars)
            assert ex.sizes[0] == first_chunk(cells, coverage_target(cells, 0.1))
            batches += len(ex.sizes)
        assert batches <= 1.1 * 400


class TestCollectorMoments:
    @pytest.mark.parametrize("cells, needed, mean", [
        (256, 248, 872.06), (4096, 3960, 13932.80), (32, 29, 71.21)])
    def test_mean_within_two_permille_of_the_exact_sum(self, cells, needed, mean):
        exact = cells * sum(Fraction(1, cells - i) for i in range(needed))
        assert round(float(exact), 2) == mean
        assert _collector_moments(cells, needed)[0] == pytest.approx(mean, rel=0.002)

    def test_sd_within_one_percent_of_the_exact_sum(self):
        for cells, needed in ((32, 29), (256, 231), (256, 248), (4096, 3960)):
            var = sum(Fraction(cells * i, (cells - i) ** 2) for i in range(needed))
            assert _collector_moments(cells, needed)[1] == pytest.approx(
                math.sqrt(var), rel=0.01)

    def test_first_chunk_never_below_the_coverage_target(self):
        for log_cells in range(25):
            cells = 1 << log_cells
            for i in range(1, 101):
                needed = coverage_target(cells, i / 100)
                mean, _ = _collector_moments(cells, needed)
                assert mean >= needed
                assert first_chunk(cells, needed) >= needed


class TestCoverageTarget:
    def test_learn_benchmark_config(self):
        # k=8, eps=0.1: ceil((1 - 1/30) * 256) = ceil(247.47)
        assert coverage_target(256, 0.1) == 248

    def test_exact_when_the_product_is_an_integer(self):
        assert coverage_target(4, 0.75) == 3
        assert coverage_target(1024, 0.375) == 896
        assert coverage_target(10, 0.3) == 9
        # an equal but exact binary eps has its own cache entry and count
        assert coverage_target(10, Fraction(0.3)) == 10

    def test_matches_rational_arithmetic(self):
        for cells in (1, 2, 16, 256, 1 << 20):
            for eps in (0.01, 0.1, 0.29, 0.3, 0.5, 0.9, 1.0):
                exact = (1 - Fraction(str(eps)) / 3) * cells
                assert coverage_target(cells, eps) == math.ceil(exact)


class TestBudgets:
    def test_budgets_match_a_60_digit_evaluation(self):
        """stage_one_draws and default_example_cap against the formulas in
        60-digit decimals, for k = 1..24 and eps = 0.01, 0.02, ..., 1.00."""
        with localcontext() as ctx:
            ctx.prec = 60
            e = Decimal(1).exp()
            for k in range(1, 25):
                ln_10k = Decimal(10 * k).ln()
                for i in range(1, 101):
                    eps, exact_eps = i / 100, Decimal(i) / 100
                    draws = math.ceil(10 * k / exact_eps * ln_10k)
                    inv = 1 / exact_eps  # ln(max(inv, e)) is exactly 1 when inv <= e
                    cap = math.ceil(8 * 2**k * (inv.ln() if inv > e else 1))
                    assert stage_one_draws(k, eps) == draws, (k, eps)
                    assert default_example_cap(k, eps) == cap, (k, eps)


class TestSpecScoring:
    """hypothesis_error on a JuntaSpec scores on the union of the relevant
    and hypothesis variables; it must equal scoring the dense table."""

    @staticmethod
    def random_hypothesis(n, rng):
        t = int(rng.integers(0, min(n, 5) + 1))
        variables = sorted(int(v) for v in rng.choice(n, size=t, replace=False))
        entries = rng.choice([-1, UNSEEN, 1], size=1 << t).astype(np.int8)
        return Hypothesis(tuple(variables), entries)

    def test_matches_the_dense_table(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            spec = random_junta_spec(n, int(rng.integers(1, min(n, 6) + 1)), rng)
            h = self.random_hypothesis(n, rng)
            assert hypothesis_error(spec, h) == hypothesis_error(make_junta(spec), h)

    def test_hypotheses_outside_relevant_with_unseen_cells(self):
        rng = np.random.default_rng(32)
        spec = random_junta_spec(10, 3, rng)
        outside = sorted(set(range(10)) - set(spec.relevant))[:3]
        mixed = sorted(outside[:2] + [spec.relevant[0]])
        for variables in (outside, mixed):
            entries = rng.choice([-1, UNSEEN, 1], size=8).astype(np.int8)
            entries[0] = UNSEEN
            h = Hypothesis(tuple(variables), entries)
            assert hypothesis_error(spec, h) == hypothesis_error(make_junta(spec), h)

    def test_ambient_dimension_past_the_table_cap(self):
        spec = JuntaSpec(60, (5, 59), AND2)
        assert hypothesis_error(spec, Hypothesis((5, 59), AND2.values)) == 0
        assert hypothesis_error(spec, Hypothesis((7,), np.array([1, 1]))) == Fraction(1, 4)

    def test_union_past_the_table_cap_is_refused(self):
        spec = JuntaSpec(60, tuple(range(N_MAX)),
                         TruthTable(N_MAX, np.full(1 << N_MAX, 1, np.int8)))
        h = Hypothesis((N_MAX,), np.array([1, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            hypothesis_error(spec, h)

    def test_hypothesis_beyond_n_is_refused(self):
        spec = JuntaSpec(6, (0, 1), AND2)
        with pytest.raises(ValueError):
            hypothesis_error(spec, Hypothesis((6,), np.array([1, 1], dtype=np.int8)))


class TestHypothesis:
    @pytest.mark.parametrize("max_ex", [None, 5])
    def test_learned_hypothesis_equals_the_checked_one(self, max_ex):
        # learn_junta adopts the hypothesis it fills, unchecked; it must
        # equal the constructor's, with every field set, over full and
        # partial tables (a 5-example cap leaves cells UNSEEN)
        for seed in range(15):
            rng = make_rng(seed, "adopted")
            k = 1 + seed % 6
            spec = random_junta_spec(20 + 3 * seed, k, rng)
            constant = JuntaSpec(40, (0,), TruthTable(1, np.ones(2, dtype=np.int8)))
            targets = [(FsOracle.from_junta(spec, rng), spec),
                       (FsOracle.for_parity(40, 0, rng), constant)]  # vars ()
            for fs, target in targets:
                report = learn_junta(fs, ExOracle(target, rng), k, 0.1, max_ex)
                h = report.hypothesis
                checked = Hypothesis(h.vars, h.entries)
                assert vars(h).keys() == vars(checked).keys()
                assert h.vars == checked.vars
                assert type(h.vars) is tuple and all(type(v) is int for v in h.vars)
                assert all(a < b for a, b in zip(h.vars, h.vars[1:]))
                assert np.array_equal(h.entries, checked.entries)
                assert h.entries.dtype == np.int8 and h.entries.flags.writeable is False
                with pytest.raises(ValueError):
                    h.entries[0] = h.entries[0]

    def test_exact_reproduction_has_zero_error(self):
        entries = np.array([1, 1, 1, -1], dtype=np.int8)
        h = Hypothesis((0, 1), entries)
        assert hypothesis_error(AND2, h) == 0

    def test_empty_unseen_hypothesis_against_constant_false(self):
        h = Hypothesis((), np.array([UNSEEN], dtype=np.int8))
        assert hypothesis_error(TruthTable(3, np.full(1 << 3, 1, np.int8)), h) == 1

    def test_single_variable_all_true_against_and2(self):
        h = Hypothesis((0,), np.array([1, 1], dtype=np.int8))
        assert hypothesis_error(AND2, h) == Fraction(1, 4)

    def test_text_round_trip(self):
        h = Hypothesis((0, 3), np.array([1, UNSEEN, -1, 1], dtype=np.int8))
        assert h.to_text() == "A=0,3\n+?-+\n"
        again = Hypothesis.from_text(h.to_text())
        assert again.vars == (0, 3)
        assert np.array_equal(again.entries, h.entries)

    def test_empty_variable_list_serialization(self):
        h = Hypothesis((), np.array([-1], dtype=np.int8))
        assert Hypothesis.from_text(h.to_text()).vars == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypothesis((1, 0), np.array([1, 1, 1, 1], dtype=np.int8))
        with pytest.raises(ValueError):
            Hypothesis((0,), np.array([1, 2], dtype=np.int8))
        with pytest.raises(ValueError):  # would wrap to [-1, 1] as int8
            Hypothesis((0,), np.array([255, 257]))
        with pytest.raises(ValueError):
            Hypothesis((0,), np.array([1], dtype=np.int8))
        with pytest.raises(TypeError):  # would truncate to vars (0,)
            Hypothesis((0.7,), np.array([1, -1]))
        with pytest.raises(TypeError):  # would read as vars (1,)
            Hypothesis((True,), np.array([1, -1]))
        with pytest.raises(TypeError):  # False would read as UNSEEN
            Hypothesis((0,), np.array([True, False]))
        with pytest.raises(TypeError):  # would pass as +1 and -1
            Hypothesis((0,), np.array([1.0, -1.0]))
        assert Hypothesis(np.array([2]), np.array([1, -1])).vars == (2,)
        with pytest.raises(ValueError):
            hypothesis_error(AND2, Hypothesis((5,), np.array([1, 1], dtype=np.int8)))
