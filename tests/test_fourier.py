import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from fsjunta import (
    RejectInstance,
    Spectrum,
    TruthTable,
    best_junta_on,
    distance,
    influence_direct,
    influence_spectral,
    make_junta,
    make_parity,
    parseval_check,
    projection_values,
    random_junta_spec,
    random_table,
    realize_reject,
    sign_projection,
    wht,
)
from fsjunta import _kernels

from reference import naive_projection_value, naive_spectrum

AND2 = TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))


class TestWht:
    def test_parity_gives_a_point_mass(self):
        for n, subset in [(2, 0b01), (3, 0b101), (4, 0b1111)]:
            sp = wht(make_parity(n, subset))
            expected = np.zeros(1 << n, dtype=np.int64)
            expected[subset] = 1 << n
            assert np.array_equal(sp.coeffs, expected)

    def test_and2_frozen_spectrum(self):
        assert np.array_equal(wht(AND2).coeffs, [2, 2, 2, -2])

    def test_matches_naive_transform(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4, 5, 6):
            f = random_table(n, rng)
            assert np.array_equal(wht(f).coeffs, naive_spectrum(f))

    def test_adopts_the_kernel_output_read_only(self):
        # wht keeps the transform's fresh array instead of checking and
        # copying it; it must hold what the checked constructor would
        rng = np.random.default_rng(19)
        for n in (1, 6, 12):
            f = random_table(n, rng)
            sp = wht(f)
            checked = Spectrum(n, _kernels.wht(f.values))
            assert sp.coeffs.dtype == np.int64 and not sp.coeffs.flags.writeable
            with pytest.raises(ValueError):
                sp.coeffs[0] = 0
            assert np.array_equal(sp.coeffs, checked.coeffs)
            assert vars(sp).keys() == vars(checked).keys() and sp.n == n
            if n <= 6:
                assert np.array_equal(sp.coeffs, naive_spectrum(f))

    def test_reject_instance_weights_are_flat(self):
        for r, n in [(1, 4), (2, 6), (3, 11)]:
            inst = RejectInstance(
                r, n, tuple(np.random.default_rng(r).choice(
                    n - r, 1 << r, replace=False)))
            weights = wht(realize_reject(inst)).coeffs.astype(np.int64) ** 2
            nonzero = weights[weights > 0]
            assert nonzero.size == 1 << (2 * r)
            assert set(nonzero.tolist()) == {(1 << (2 * n)) >> (2 * r)}

    def test_reject_instance_signed_closed_form(self):
        # every coefficient is +-2^(n-r), with the sign given by the inner
        # product of the address subset and the leaf index bits
        r, n, tau = 3, 11, (5, 1, 7, 0, 3, 6, 2, 4)
        sp = wht(realize_reject(RejectInstance(r, n, tau)))
        scale = (1 << n) >> r
        for leaf in range(1 << r):
            for x_mask in range(1 << r):
                acc = sum((leaf >> (r - m)) & 1
                          for m in range(1, r + 1) if (x_mask >> (m - 1)) & 1)
                mask = x_mask | (1 << (r + tau[leaf]))
                assert int(sp.coeffs[mask]) == scale * (-1) ** acc

    def test_accept_instance_signed_closed_form(self):
        from fsjunta import AcceptInstance, realize_accept
        r, n, tau, signs = 3, 10, (4, 0, 6, 2), (1, -1, -1, 1)
        sp = wht(realize_accept(AcceptInstance(r, n, tau, signs)))
        scale = (1 << n) >> (r - 1)
        live = 0
        for leaf in range(1 << (r - 1)):
            want_parity = 0 if signs[leaf] == 1 else 1
            for x_mask in range(1 << r):
                if bin(x_mask).count("1") % 2 != want_parity:
                    continue
                acc = sum((leaf >> (r - m)) & 1
                          for m in range(1, r + 1) if (x_mask >> (m - 1)) & 1)
                mask = x_mask | (1 << (r + tau[leaf]))
                assert int(sp.coeffs[mask]) == scale * (-1) ** acc
                live += 1
        assert live == 1 << (2 * r - 2)

    def test_double_transform_scales_by_table_size(self):
        rng = np.random.default_rng(9)
        f = random_table(6, rng)
        twice = _kernels.wht(wht(f).coeffs)
        assert np.array_equal(twice, f.values.astype(np.int64) * 64)

    def test_inverse_round_trip(self):
        # The transform is its own inverse up to 2^n. A parity's one nonzero
        # coefficient is 2^n, so the second transform's partial sums reach
        # 4^n, which is float64 from n = 12.
        rng = np.random.default_rng(13)
        tables = [random_table(n, rng) for n in (1, 3, 6, 9)]
        tables += [make_parity(n, (1 << n) - 1) for n in (11, 12)]
        for f in tables:
            twice = _kernels.wht(wht(f).coeffs)
            assert np.array_equal(twice >> f.n, f.values)
            assert np.array_equal(twice, f.values.astype(np.int64) << f.n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    def test_parseval_holds_for_every_table(self, seed, n):
        f = random_table(n, np.random.default_rng(seed))
        assert parseval_check(wht(f))


class TestSpectrumType:
    def test_rejects_odd_coefficients(self):
        with pytest.raises(ValueError):
            Spectrum(1, np.array([1, 2], dtype=np.int64))

    def test_rejects_oversized_coefficients(self):
        with pytest.raises(ValueError):
            Spectrum(1, np.array([4, 0], dtype=np.int64))

    @pytest.mark.parametrize("coeffs", [[0, -4], [0, -3], [2, -2**63], [2**62, 0]])
    def test_rejects_negative_odd_and_extreme_coefficients(self, coeffs):
        # -2^63 has no int64 magnitude, so only a max/min test catches it.
        with pytest.raises(ValueError):
            Spectrum(1, np.array(coeffs, dtype=np.int64))

    @pytest.mark.parametrize("coeffs", [
        # each was once cast to int64 silently: [2.7, 0.4] became [2, 0]
        np.array([2.7, 0.4]),
        np.array([2.0, 0.0]),
        [2.0, 0.0],
        np.array([True, False]),
        # an object array or a list keeps what numpy would promote or cast
        np.array([2.7, 0.4], dtype=object),
        np.array([2, False], dtype=object),
        [2, False],
        [2, np.float64(0.0)],
    ])
    def test_rejects_float_and_bool_coefficients(self, coeffs):
        with pytest.raises(TypeError):
            Spectrum(1, coeffs)

    @pytest.mark.parametrize("coeffs", [[2, 0], (2, 0),
                                        np.array([2, 0], dtype=np.int32),
                                        np.array([2, 0], dtype=np.uint8),
                                        np.array([2, 0], dtype=object),
                                        [np.int64(2), np.uint8(0)]])
    def test_accepts_integer_lists_tuples_and_arrays(self, coeffs):
        sp = Spectrum(1, coeffs)
        assert sp.coeffs.dtype == np.int64 and sp.coeffs.tolist() == [2, 0]

    def test_accepts_magnitude_exactly_two_to_the_n(self):
        sp = Spectrum(2, np.array([4, -4, 0, -2], dtype=np.int64))
        assert sp.coeffs.tolist() == [4, -4, 0, -2]

    def test_parseval_false_when_one_coefficient_zeroed(self):
        coeffs = wht(AND2).coeffs.copy()
        coeffs[3] = 0
        assert not parseval_check(Spectrum(2, coeffs))

    def test_parseval_false_for_all_zero(self):
        assert not parseval_check(Spectrum(3, np.zeros(8, dtype=np.int64)))


class TestInfluenceSpectral:
    def test_parity_member(self):
        sp = wht(make_parity(3, 0b011))
        assert influence_spectral(sp, 0) == 1
        assert influence_spectral(sp, 2) == 0

    def test_and2_value(self):
        assert influence_spectral(wht(AND2), 0) == Fraction(1, 2)

    def test_equals_direct_influence_exactly(self):
        rng = np.random.default_rng(21)
        for n in (2, 4, 6, 8, 10):
            f = random_table(n, rng)
            sp = wht(f)
            for i in range(n):
                assert influence_spectral(sp, i) == influence_direct(f, i)

    def test_total_influence_identity(self):
        # sum_i Inf_i equals the size-weighted spectral mass, exactly
        rng = np.random.default_rng(22)
        for n in (3, 6, 10):
            f = random_table(n, rng)
            sp = wht(f)
            total = sum(influence_spectral(sp, i) for i in range(n))
            weighted = sum(
                int(c) * int(c) * bin(s).count("1")
                for s, c in enumerate(sp.coeffs))
            assert total == Fraction(weighted, 1 << (2 * n))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            influence_spectral(wht(AND2), 5)
        with pytest.raises(TypeError):  # would be variable 1's influence
            influence_spectral(wht(AND2), True)


class TestSignProjection:
    def test_full_subset_returns_the_function(self):
        rng = np.random.default_rng(31)
        f = random_table(5, rng)
        assert np.array_equal(sign_projection(f, (1 << 5) - 1).values, f.values)

    def test_junta_projected_onto_its_set(self):
        spec = random_junta_spec(8, 3, np.random.default_rng(32))
        f = make_junta(spec)
        subset = sum(1 << v for v in spec.relevant)
        assert np.array_equal(sign_projection(f, subset).values, f.values)

    def test_projection_values_match_naive(self):
        rng = np.random.default_rng(33)
        f = random_table(4, rng)
        for subset in (0, 0b0101, 0b1111):
            got = projection_values(f, subset)
            for x in range(16):
                assert int(got[x]) == naive_projection_value(f, subset, x)

    @pytest.mark.parametrize("project", [projection_values, sign_projection])
    def test_subset_is_an_integer_mask_in_range(self, project):
        for subset in (-1, 4):
            with pytest.raises(ValueError):
                project(AND2, subset)
        with pytest.raises(TypeError):  # would project onto {0}
            project(AND2, True)

    def test_disagreement_bounded_by_outside_weight(self):
        # P[f != sign of projection] <= spectral weight outside the subset
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = random_table(n, rng)
            sp = wht(f)
            subset = int(rng.integers(0, 1 << n))
            inside = sum(
                int(sp.coeffs[s]) ** 2 for s in range(1 << n)
                if not (s & ~subset))
            outside = Fraction((1 << (2 * n)) - inside, 1 << (2 * n))
            assert distance(f, sign_projection(f, subset)) <= outside

    def test_agrees_with_majority_vote_when_projection_never_zero(self):
        rng = np.random.default_rng(35)
        found = 0
        for _ in range(40):
            n = int(rng.integers(2, 8))
            f = random_table(n, rng)
            subset = int(rng.integers(0, 1 << n))
            if np.all(projection_values(f, subset) != 0):
                found += 1
                assert np.array_equal(
                    sign_projection(f, subset).values,
                    best_junta_on(f, subset).values)
        assert found > 5  # the nonzero case must actually be exercised
