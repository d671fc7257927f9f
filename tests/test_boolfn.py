import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from fsjunta import (
    AcceptInstance,
    BudgetExceededError,
    Hypothesis,
    JuntaSpec,
    RejectInstance,
    TruthTable,
    best_junta_on,
    distance,
    distance_to_best_junta_on,
    distance_to_k_junta,
    influence_direct,
    lift,
    make_junta,
    make_parity,
    mask_from_vars,
    random_junta_spec,
    random_table,
    realize_accept,
    realize_reject,
    sample_accept_instance,
    sample_reject_instance,
    vars_from_mask,
)

from fsjunta.boolfn import (
    cell_sums,
    deposit_assignments,
    junta_errors,
    project_assignments,
    union_mask,
)

from reference import (
    naive_best_junta_errors,
    naive_cell_sums,
    naive_distance,
    naive_influence,
    naive_lift,
    naive_project,
    naive_realize_accept,
    naive_realize_reject,
)

AND2 = TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))


def identity_reject(r):
    """The addressing selector: leaf j wired to non-address variable j."""
    return realize_reject(RejectInstance(r, r + 2**r, range(2**r)))


def rand_tables(seed, count, n):
    rng = np.random.default_rng(seed)
    return [random_table(n, rng) for _ in range(count)]


class TestTruthTable:
    def test_constant_true_evaluates_to_minus_one_everywhere(self):
        f = TruthTable(3, np.full(1 << 3, -1, np.int8))
        for x in range(8):
            assert int(f.values[x]) == -1

    def test_single_variable_parity_n1(self):
        f = make_parity(1, 0b1)
        # index 1 encodes x_0 = -1
        assert int(f.values[1]) == -1
        assert int(f.values[0]) == 1

    def test_and2_all_four_inputs(self):
        # enumerate the definition: -1 iff both variables are -1
        for x in range(4):
            x0 = 1 - 2 * (x & 1)
            x1 = 1 - 2 * ((x >> 1) & 1)
            expected = -1 if (x0 == -1 and x1 == -1) else 1
            assert int(AND2.values[x]) == expected

    def test_rejects_non_pm1_entries(self):
        with pytest.raises(ValueError):
            TruthTable(1, np.array([1, 0], dtype=np.int8))
        with pytest.raises(TypeError):  # True would read as +1, i.e. False
            TruthTable(1, np.array([True, True]))
        with pytest.raises(TypeError):  # would pass as -1 and +1
            TruthTable(1, np.array([1.0, -1.0]))
        with pytest.raises(TypeError):  # promoted to int64 by numpy
            TruthTable(1, [1, True])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TruthTable(2, np.array([1, 1, 1], dtype=np.int8))

    def test_values_are_immutable(self):
        with pytest.raises(ValueError):
            AND2.values[0] = -1


class TestParity:
    def test_empty_subset_is_all_plus_one(self):
        f = make_parity(2, 0)
        assert np.array_equal(f.values, [1, 1, 1, 1])

    def test_full_subset_n2(self):
        f = make_parity(2, 0b11)
        assert np.array_equal(f.values, [1, -1, -1, 1])

    def test_value_flips_exactly_with_member_bit(self):
        f = make_parity(3, 0b010)
        for x in range(8):
            assert f.values[x] == -f.values[x ^ 0b010]
            assert f.values[x] == f.values[x ^ 0b101]

    def test_subset_mask_is_an_integer_in_range(self):
        for subset in (-1, 4):
            with pytest.raises(ValueError):
                make_parity(2, subset)
        with pytest.raises(TypeError):  # would be the parity of variable 1
            make_parity(2, 2.7)
        with pytest.raises(TypeError):  # would be the parity of variable 0
            make_parity(2, True)

    def test_mask_helpers_round_trip(self):
        assert vars_from_mask(mask_from_vars([0, 3, 7])) == (0, 3, 7)
        assert mask_from_vars(()) == 0
        assert vars_from_mask(0) == ()

    def test_mask_from_vars_takes_integers_only(self):
        assert mask_from_vars(np.array([1, 70], dtype=np.int64)) == (1 << 1) | (1 << 70)
        with pytest.raises(TypeError):  # would truncate to bit 1
            mask_from_vars([1.9])
        with pytest.raises(TypeError):  # would read as bit 1
            mask_from_vars([True])

    @pytest.mark.parametrize("bits", [(), (0,), (62,), (63,), (64,), (1023,),
                                      (0, 62, 63, 64, 1023), (5, 700, 701)])
    def test_vars_from_mask_walks_the_set_bits(self, bits):
        mask = mask_from_vars(bits)
        assert vars_from_mask(mask) == bits
        assert all(type(v) is int for v in vars_from_mask(mask))
        if mask < 1 << 63:
            assert vars_from_mask(np.int64(mask)) == bits

    def test_vars_from_mask_refuses_a_negative_mask(self):
        with pytest.raises(ValueError):
            vars_from_mask(-1)

    def test_vars_from_mask_takes_integers_only(self):
        with pytest.raises(TypeError):  # would truncate to (1,)
            vars_from_mask(2.7)
        with pytest.raises(TypeError):  # would read as (0,)
            vars_from_mask(True)

    def test_union_mask_of_arrays_and_wide_ints(self):
        assert union_mask(np.array([0b0011, 0b0110], dtype=np.int64)) == 0b0111
        assert union_mask(np.zeros(0, dtype=np.int64)) == 0
        wide = np.array([1 << 70, 1 << 3, 1 << 70], dtype=object)
        assert union_mask(wide) == (1 << 70) | (1 << 3)
        assert union_mask(np.zeros(0, dtype=object)) == 0


class TestJunta:
    def test_irrelevant_variables_have_zero_influence(self):
        spec = JuntaSpec(4, (0, 1), AND2)
        f = make_junta(spec)
        assert influence_direct(f, 2) == 0
        assert influence_direct(f, 3) == 0
        assert influence_direct(f, 0) == Fraction(1, 2)

    def test_single_relevant_variable_is_that_parity(self):
        identity = make_parity(1, 0b1)
        f = make_junta(JuntaSpec(3, (2,), identity))
        assert np.array_equal(f.values, make_parity(3, 0b100).values)

    def test_lift_is_reproducible(self):
        spec = random_junta_spec(10, 8, np.random.default_rng(1))
        assert distance(make_junta(spec), make_junta(spec)) == 0

    def test_spec_validation(self):
        inner = make_parity(2, 0b11)
        assert JuntaSpec(6, (0, 5), inner).k == 2
        # a negative index, an index equal to n, a non-increasing list and
        # an arity mismatch
        for relevant in [(-1, 2), (2, 6), (3, 2), (1, 2, 3)]:
            with pytest.raises(ValueError):
                JuntaSpec(6, relevant, inner)

    def test_spec_indices_must_be_integers(self):
        inner = make_parity(2, 0b11)
        spec = JuntaSpec(6, np.array([1, 4]), inner)
        assert spec.relevant == (1, 4) and all(type(v) is int for v in spec.relevant)
        with pytest.raises(TypeError):  # would truncate to (0, 2)
            JuntaSpec(6, (0.9, 2.5), inner)
        with pytest.raises(TypeError):  # would read as (1,)
            JuntaSpec(3, (True,), make_parity(1, 0b1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(5, 8))
    def test_influence_is_zero_exactly_off_the_relevant_set(self, seed, k, n):
        spec = random_junta_spec(n, k, np.random.default_rng(seed))
        f = make_junta(spec)
        for i in range(n):
            if i not in spec.relevant:
                assert influence_direct(f, i) == 0


class TestAddressing:
    def test_all_negative_address_reads_last_slot(self):
        f = identity_reject(3)
        all_neg = 0b111
        assert int(f.values[all_neg | (1 << 10)]) == -1  # z7 = -1
        assert int(f.values[all_neg]) == 1               # z7 = +1

    def test_all_positive_address_reads_first_slot(self):
        f = identity_reject(3)
        assert int(f.values[1 << 3]) == -1  # z0 = -1
        assert int(f.values[0]) == 1

    def test_r1_full_table(self):
        f = identity_reject(1)
        # variables: x0 selects; z0 is variable 1, z1 is variable 2
        assert np.array_equal(f.values, [1, 1, -1, 1, 1, -1, -1, -1])

    def test_selected_slot_always_matches(self):
        f = identity_reject(2)
        for x in range(1 << 6):
            addr = (((x >> 0) & 1) << 1) | ((x >> 1) & 1)
            expected = 1 - 2 * ((x >> (2 + addr)) & 1)
            assert int(f.values[x]) == expected

    def test_too_large_r_rejected(self):
        with pytest.raises(ValueError):
            identity_reject(5)


class TestInstanceFamilies:
    def test_reject_depends_on_exactly_r_plus_2r_variables(self):
        f = realize_reject(RejectInstance(2, 6, (0, 1, 2, 3)))
        assert all(influence_direct(f, i) > 0 for i in range(6))

    def test_accept_depends_on_exactly_k_variables(self):
        f = realize_accept(AcceptInstance(2, 6, (0, 1), (1, 1)))
        live = [i for i in range(6) if influence_direct(f, i) > 0]
        assert live == [0, 1, 2, 3]  # both addresses plus the two wired slots

    def test_accept_all_plus_signs_r1_collapses_to_the_wired_variable(self):
        f = realize_accept(AcceptInstance(1, 3, (0,), (1,)))
        assert np.array_equal(f.values, make_parity(3, 1 << 1).values)

    def test_accept_negative_sign_r1_is_the_signed_select(self):
        f = realize_accept(AcceptInstance(1, 2, (0,), (-1,)))
        # select +y0 when the address is +1, -y0 when it is -1
        assert np.array_equal(f.values, make_parity(2, 0b11).values)

    def test_accept_is_a_k_junta_on_its_live_set(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            inst = AcceptInstance(3, 10,
                                  tuple(rng.choice(7, 4, replace=False)),
                                  tuple(2 * rng.integers(0, 2, 4) - 1))
            f = realize_accept(inst)
            live = mask_from_vars(
                list(range(3)) + [3 + t for t in inst.tau])
            assert distance_to_best_junta_on(f, live) == 0

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            RejectInstance(2, 6, (0, 1, 2, 2))
        with pytest.raises(ValueError):
            AcceptInstance(2, 6, (0, 9), (1, 1))
        with pytest.raises(ValueError):
            AcceptInstance(2, 6, (0, 1), (1, 2))

    def test_realize_overflow_guard(self):
        tau = tuple(range(32))
        with pytest.raises(ValueError):
            realize_reject(RejectInstance(5, 40, tau))


class TestArrayInstances:
    def _instances(self):
        return (RejectInstance(2, 6, (3, 0, 2, 1)),
                AcceptInstance(2, 6, (1, 3), (1, -1)))

    def test_fields_are_read_only_int64(self):
        rej, acc = self._instances()
        for arr in (rej.tau, acc.tau, acc.s):
            assert arr.dtype == np.int64
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_instances_compare_by_identity(self):
        for a, b in zip(self._instances(), self._instances()):
            assert a is not b
            assert (a == b) is False
            assert a == a
            assert len({a, b}) == 2

    @pytest.mark.parametrize("kind", [
        tuple, list, np.array,
        lambda v: np.array(v, dtype=np.int32), lambda v: np.array(v, dtype=np.int8),
    ], ids=["tuple", "list", "array", "int32", "int8"])
    def test_tuple_list_and_array_inputs_give_equal_arrays(self, kind):
        rej = RejectInstance(2, 6, kind([3, 0, 2, 1]))
        acc = AcceptInstance(2, 6, kind([1, 3]), kind([1, -1]))
        assert np.array_equal(rej.tau, [3, 0, 2, 1])
        assert np.array_equal(acc.tau, [1, 3])
        assert np.array_equal(acc.s, [1, -1])

    def test_array_input_is_copied_not_frozen(self):
        tau = np.array([3, 0, 2, 1], dtype=np.int32)
        inst = RejectInstance(2, 6, tau)
        tau[0] = 1
        assert tau.flags.writeable
        assert np.array_equal(inst.tau, [3, 0, 2, 1])

    @pytest.mark.parametrize("make", [
        lambda: RejectInstance(2, 6, (0, 1, 2)),                # wrong length
        lambda: RejectInstance(2, 6, ((0, 1), (2, 3))),         # 2-D tau
        lambda: RejectInstance(2, 6, (0, 1, 2, 2)),             # duplicate slot
        lambda: RejectInstance(2, 6, (0, 1, 2, 4)),             # slot at n - r
        lambda: RejectInstance(2, 6, (-1, 0, 1, 2)),            # slot below 0
        lambda: AcceptInstance(2, 6, (0,), (1, 1)),             # wrong length
        lambda: AcceptInstance(2, 6, ((0,), (1,)), (1, 1)),     # 2-D tau
        lambda: AcceptInstance(2, 6, (3, 3), (1, 1)),           # duplicate slot
        lambda: AcceptInstance(2, 6, (0, 4), (1, 1)),           # slot at n - r
        lambda: AcceptInstance(2, 6, (-1, 0), (1, 1)),          # slot below 0
        lambda: AcceptInstance(2, 6, (0, 1), (1,)),             # too few signs
        lambda: AcceptInstance(2, 6, (0, 1), (1, 1, 1)),        # too many signs
        lambda: AcceptInstance(2, 6, (0, 1), (1, 0)),           # sign 0
        lambda: AcceptInstance(2, 6, (0, 1), (2, 1)),           # sign 2
        lambda: RejectInstance(0, 6, (0,)),                     # r < 1
    ])
    def test_each_check_raises(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [
        # each was once cast to int64 silently, truncating toward zero
        lambda: RejectInstance(1, 4, [0.9, 1.7]),
        lambda: RejectInstance(2, 6, np.array([3.0, 0.0, 2.0, 1.0])),
        lambda: RejectInstance(1, 4, [True, False]),
        lambda: AcceptInstance(2, 6, (1.0, 3.0), (1, -1)),
        lambda: AcceptInstance(2, 6, (1, 3), (1.0, -1.0)),
        lambda: AcceptInstance(2, 6, (1, 3), np.array([True, True])),
        # bools in an int list were promoted to int64, floats in an object
        # array truncated
        lambda: RejectInstance(2, 6, [True, False, 2, 3]),
        lambda: RejectInstance(1, 4, np.array([0.9, 1], dtype=object)),
        lambda: AcceptInstance(2, 6, (1, 3), [1, True]),
        lambda: AcceptInstance(2, 6, np.array([1.5, 3], dtype=object), (1, -1)),
    ])
    def test_float_and_bool_input_is_refused(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("r,n", [(1, 3), (3, 11), (4, 20), (9, 1024)])
    def test_samplers_take_the_rng_results_as_they_are(self, r, n):
        rng, rng2 = np.random.default_rng(r * n), np.random.default_rng(r * n)
        rej = sample_reject_instance(r, n, rng)
        assert np.array_equal(rej.tau, rng2.choice(n - r, size=2**r, replace=False))
        assert rng.bit_generator.state == rng2.bit_generator.state
        half = 2 ** (r - 1)
        acc = sample_accept_instance(r, n, rng)
        assert np.array_equal(acc.tau, rng2.choice(n - r, size=half, replace=False))
        assert np.array_equal(acc.s, 2 * rng2.integers(0, 2, size=half) - 1)
        assert rng.bit_generator.state == rng2.bit_generator.state

    @pytest.mark.parametrize("r", range(1, 11))
    def test_sampled_instances_pass_the_public_checks(self, r):
        # The samplers skip the constructors' checks; what they build must
        # still be frozen int64 arrays that the constructors accept as they
        # are, with every dataclass field set.
        for seed in range(10):
            for n in sorted({r + 2**r, max(r + 2**r, 1024)}):
                rej = sample_reject_instance(r, n, np.random.default_rng(seed))
                checked = RejectInstance(r, n, rej.tau)
                assert vars(rej).keys() == vars(checked).keys()
                self._assert_frozen_int64(rej.tau, checked.tau)
            for n in sorted({r + 2**(r - 1), 1024}):
                acc = sample_accept_instance(r, n, np.random.default_rng(seed))
                checked = AcceptInstance(r, n, acc.tau, acc.s)
                assert vars(acc).keys() == vars(checked).keys()
                self._assert_frozen_int64(acc.tau, checked.tau)
                self._assert_frozen_int64(acc.s, checked.s)

    @staticmethod
    def _assert_frozen_int64(arr, checked):
        assert arr.dtype == np.int64
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = arr[0]
        assert np.array_equal(arr, checked)

    @pytest.mark.parametrize("sample", [sample_reject_instance, sample_accept_instance])
    def test_samplers_refuse_r_below_one(self, sample):
        with pytest.raises(ValueError):
            sample(0, 6, np.random.default_rng(0))


class TestAdoptedSamples:
    """``random_table`` and ``random_junta_spec`` skip the constructors'
    checks; what they build must equal what the checking constructors build
    from the same fields, with every dataclass field set."""

    @staticmethod
    def _assert_frozen_int8(arr):
        assert arr.dtype == np.int8
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[0] = arr[0]

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_random_table_equals_the_checked_table(self, n):
        for seed in range(20):
            t = random_table(n, np.random.default_rng(seed))
            checked = TruthTable(n, t.values)
            assert vars(t).keys() == vars(checked).keys()
            assert t.n == checked.n
            assert np.array_equal(t.values, checked.values)
            self._assert_frozen_int8(t.values)

    @pytest.mark.parametrize("k, n", [(1, 1), (3, 3), (5, 12), (5, 100), (12, 1024)])
    def test_random_junta_spec_equals_the_checked_spec(self, k, n):
        for seed in range(20):
            spec = random_junta_spec(n, k, np.random.default_rng(seed))
            checked = JuntaSpec(n, spec.relevant, spec.inner)
            assert vars(spec).keys() == vars(checked).keys()
            assert spec == checked
            assert type(spec.relevant) is tuple
            assert all(type(v) is int for v in spec.relevant)
            assert all(a < b for a, b in zip(spec.relevant, spec.relevant[1:]))
            assert spec.inner.n == k
            self._assert_frozen_int8(spec.inner.values)

    def test_random_junta_spec_draws_the_checked_stream(self):
        # the adopted spec holds what rng.choice and random_table draw, in
        # that order, and leaves the generator where they leave it
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        spec = random_junta_spec(1024, 12, rng)
        assert spec.relevant == tuple(sorted(twin.choice(1024, size=12, replace=False)))
        assert np.array_equal(spec.inner.values,
                              2 * twin.integers(0, 2, size=1 << 12) - 1)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestAddressingReference:
    """The lift-based builders against the bit-gather reference."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_realize_reject(self, r):
        rng = np.random.default_rng(r)
        for n in (r + 2**r, 24):
            inst = sample_reject_instance(r, n, rng)
            assert np.array_equal(realize_reject(inst).values,
                                  naive_realize_reject(inst))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_realize_accept(self, r):
        rng = np.random.default_rng(r)
        for n in (r + 2 ** (r - 1), 24):
            inst = sample_accept_instance(r, n, rng)
            assert np.array_equal(realize_accept(inst).values,
                                  naive_realize_accept(inst))


class TestDistance:
    def test_identical_tables(self):
        assert distance(AND2, AND2) == 0

    def test_negated_tables(self):
        neg = TruthTable(2, -AND2.values)
        assert distance(AND2, neg) == 1

    def test_distinct_parities_are_half_far(self):
        assert distance(make_parity(2, 0b01), make_parity(2, 0b10)) == Fraction(1, 2)

    def test_mismatched_arity_rejected(self):
        with pytest.raises(ValueError):
            distance(AND2, TruthTable(3, np.full(1 << 3, 1, np.int8)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6))
    def test_metric_properties_on_random_triples(self, seed, n):
        rng = np.random.default_rng(seed)
        f, g, h = (random_table(n, rng) for _ in range(3))
        assert distance(f, g) == distance(g, f)
        assert distance(f, f) == 0
        assert distance(f, h) <= distance(f, g) + distance(g, h)

    def test_matches_naive_count(self):
        rng = np.random.default_rng(11)
        f, g = random_table(5, rng), random_table(5, rng)
        assert distance(f, g) == naive_distance(f, g)


class TestInfluence:
    def test_constant_has_no_influence(self):
        assert influence_direct(TruthTable(4, np.full(1 << 4, 1, np.int8)), 2) == 0

    def test_parity_member_flips_always(self):
        f = make_parity(4, 0b1010)
        assert influence_direct(f, 1) == 1
        assert influence_direct(f, 3) == 1
        assert influence_direct(f, 0) == 0

    def test_and2_first_variable(self):
        assert influence_direct(AND2, 0) == Fraction(1, 2)

    def test_against_naive(self):
        for f in rand_tables(3, 10, 6):
            for i in range(6):
                assert influence_direct(f, i) == naive_influence(f, i)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            influence_direct(AND2, 2)
        with pytest.raises(TypeError):  # would be variable 1's influence
            influence_direct(AND2, True)


# Each layout entry point called with the given positions over n = 3
# variables, with a table or entry list of the size those positions ask for.
POSITION_READERS = {
    "lift": lambda pos: lift(np.arange(1 << len(pos)), pos, 3),
    "cell_sums": lambda pos: cell_sums(np.arange(8), pos),
    "project_assignments": lambda pos: project_assignments(np.arange(8), pos),
    "deposit_assignments": lambda pos: deposit_assignments(
        np.arange(1 << len(pos)), pos, np.int64),
    "JuntaSpec": lambda pos: JuntaSpec(
        3, pos, TruthTable(len(pos), np.ones(1 << len(pos), dtype=np.int8))),
    "Hypothesis": lambda pos: Hypothesis(pos, np.ones(1 << len(pos), dtype=np.int8)),
}


class TestLift:
    def test_matches_the_gather_reference_on_random_subsets(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(0, n + 1))
            positions = sorted(int(p) for p in rng.choice(n, size=t, replace=False))
            values = rng.integers(-5, 6, size=1 << t)
            got = lift(values, positions, n)
            assert got.shape == (2,) * n
            assert np.array_equal(got.reshape(-1),
                                  naive_lift(values, positions, n))

    def test_variable_i_is_axis_n_minus_1_minus_i(self):
        got = lift(np.array([10, 20]), [1], 3)
        assert got[0, 1, 0] == 20 and got[1, 0, 1] == 10

    def test_is_a_read_only_view(self):
        values = np.array([1, -1, -1, 1], dtype=np.int8)
        got = lift(values, [0, 2], 4)
        assert np.shares_memory(got, values)
        assert not got.flags.writeable

    def test_project_assignments_matches_the_per_bit_reference(self):
        rng = np.random.default_rng(47)
        for positions in ((0, 5, 17, 40, 61), (31, 32, 33), (), (62,)):
            xs = rng.integers(0, 1 << 63, size=200, dtype=np.int64)
            got = project_assignments(xs, positions)
            assert got.tolist() == [naive_project(int(x), positions) for x in xs]
            assert project_assignments(int(xs[0]), positions) == got[0]

    def test_cell_sums_match_the_gather_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(0, n + 1))
            positions = np.sort(rng.choice(n, size=t, replace=False)).astype(np.int64)
            values = rng.integers(-3, 4, size=1 << n)
            assert np.array_equal(cell_sums(values, positions),
                                  naive_cell_sums(values, positions))

    @pytest.mark.parametrize("name, positions", [
        pytest.param(name, positions, id=f"{name}-{case}")
        for case, positions, names in [
            ("decreasing", [2, 0], POSITION_READERS),
            ("repeated", [1, 1], POSITION_READERS),
            ("negative", [-1], POSITION_READERS),
            ("at-n", [3], ("lift", "cell_sums", "JuntaSpec")),
        ]
        for name in names])
    def test_positions_must_strictly_increase_from_zero_below_n(self, name, positions):
        with pytest.raises(ValueError):
            POSITION_READERS[name](positions)

    def test_make_junta_matches_the_gather_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            spec = random_junta_spec(9, int(rng.integers(1, 6)), rng)
            assert np.array_equal(
                make_junta(spec).values,
                naive_lift(spec.inner.values, spec.relevant, spec.n))


class TestBestJunta:
    def test_junta_distance_to_itself_is_zero(self):
        for seed in range(5):
            spec = random_junta_spec(8, 3, np.random.default_rng(seed))
            assert distance_to_k_junta(make_junta(spec), 3) == 0

    def test_two_variable_parity_against_one_junta(self):
        assert distance_to_k_junta(make_parity(2, 0b11), 1) == Fraction(1, 2)

    def test_k_at_least_n_is_free(self):
        f = random_table(4, np.random.default_rng(0))
        assert distance_to_k_junta(f, 4) == 0

    def test_numpy_junta_errors_match_the_naive_count(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(0, n + 1))
            positions = np.sort(rng.choice(n, size=t, replace=False)).astype(np.int64)
            table = TruthTable(n, 2 * rng.integers(0, 2, size=1 << n) - 1)
            assert (junta_errors(table.values, positions)
                    == naive_best_junta_errors(table, positions))

    def test_subset_and_k_are_integers_in_range(self):
        f = random_table(4, np.random.default_rng(0))
        for scan in (best_junta_on, distance_to_best_junta_on):
            for subset in (-1, 16):
                with pytest.raises(ValueError):
                    scan(f, subset)
            with pytest.raises(TypeError):  # would scan the subset {0}
                scan(f, True)
        with pytest.raises(ValueError):
            distance_to_k_junta(f, -1)
        with pytest.raises(TypeError):  # would scan the 1-juntas
            distance_to_k_junta(f, True)

    def test_subset_distance_matches_naive(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = random_table(6, rng)
            subset = int(rng.integers(0, 1 << 6))
            expected = Fraction(
                naive_best_junta_errors(f, vars_from_mask(subset)), 64)
            assert distance_to_best_junta_on(f, subset) == expected

    def test_vote_table_achieves_the_reported_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = random_table(6, rng)
            subset = int(rng.integers(0, 1 << 6))
            vote = best_junta_on(f, subset)
            assert distance(f, vote) == distance_to_best_junta_on(f, subset)
            # the vote function only reads the chosen variables
            for i in range(6):
                if not (subset >> i) & 1:
                    assert influence_direct(vote, i) == 0

    def test_reject_instance_regression_fixtures(self):
        # exact scan values, frozen; the family is designed to be far from
        # every junta on r + 2^(r-1) variables
        f2 = realize_reject(RejectInstance(2, 6, (0, 1, 2, 3)))
        assert distance_to_k_junta(f2, 4) == Fraction(1, 4)
        f3 = realize_reject(RejectInstance(3, 11, tuple(range(8))))
        assert distance_to_k_junta(f3, 7) == Fraction(1, 4)

    def test_budget_guard(self):
        f = random_table(6, np.random.default_rng(2))
        with pytest.raises(BudgetExceededError):
            distance_to_k_junta(f, 3, budget=10)
