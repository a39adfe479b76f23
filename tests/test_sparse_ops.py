"""Projections, dual norm, and distances against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs import (
    DegenerateIterateError,
    InvalidArgumentError,
    gen_gaussian_matrix,
    gen_sparse_signal,
    geodesic_distance,
    hamming_distance,
    hard_threshold,
    measure,
    normalize,
    sparse_dual_norm,
)
from onebitcs.sparse_ops import stable_norm
from oracles import best_s_term_error, binomial_band, dual_norm_brute

small_vectors = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)


class TestHardThreshold:
    def test_keeps_two_largest_magnitudes(self):
        assert hard_threshold([3.0, -4.0, 1.0], 2).tolist() == [3.0, -4.0, 0.0]

    def test_tie_break_lowest_index(self):
        assert hard_threshold([2.0, -2.0, 0.0], 1).tolist() == [2.0, 0.0, 0.0]
        assert hard_threshold([0.0, -2.0, 2.0], 1).tolist() == [0.0, -2.0, 0.0]

    def test_idempotent_on_model_set(self):
        v = np.array([0.0, 5.0, 0.0, -1.0])
        assert np.array_equal(hard_threshold(v, 2), v)
        assert np.array_equal(hard_threshold(v, 3), v)

    @given(small_vectors, st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_best_s_term_approximation(self, values, s):
        v = np.array(values)
        s = min(s, v.size)
        err = float(np.linalg.norm(v - hard_threshold(v, s)))
        assert err <= best_s_term_error(values, s) + 1e-12

    def test_output_at_most_s_nonzeros(self):
        v = np.arange(1.0, 9.0)
        assert np.count_nonzero(hard_threshold(v, 3)) == 3

    @pytest.mark.parametrize("s", [0, -1, 4])
    def test_out_of_range_sparsity(self, s):
        with pytest.raises(InvalidArgumentError):
            hard_threshold([1.0, 2.0, 3.0], s)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_sort_bitwise(self, data):
        # few distinct magnitudes, both signs, signed zeros, infinities and NaN
        special = st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0, -3.0, math.inf, -math.inf, math.nan, -math.nan])
        values = data.draw(st.lists(special | st.floats(-4, 4), min_size=1, max_size=16))
        v = np.array(values)
        s = data.draw(st.just(v.size) | st.integers(1, v.size))
        keep = np.argsort(-np.abs(v), kind="stable")[:s]
        expected = np.zeros_like(v)
        expected[keep] = v[keep]
        assert np.array_equal(hard_threshold(v, s).view(np.uint64), expected.view(np.uint64))


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_unchanged(self):
        e = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(normalize(e), e)

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateIterateError):
            normalize(np.zeros(2))

    @given(small_vectors)
    @settings(max_examples=100, deadline=None)
    def test_unit_output(self, values):
        v = np.array(values)
        if np.linalg.norm(v) == 0:
            return
        assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-200, 1e155, 1e300])
    def test_unit_output_out_of_range(self, scale):
        assert np.allclose(normalize(np.array([3.0, -4.0, 0.0]) * scale), [0.6, -0.8, 0.0], rtol=1e-15, atol=0)

    def test_tiny_vector_is_not_zero(self):
        assert np.array_equal(normalize(np.array([0.0, 5e-324])), [0.0, 1.0])


class TestStableNorm:
    @given(small_vectors)
    @settings(max_examples=100, deadline=None)
    def test_naive_norm_bit_for_bit_in_range(self, values):
        v = np.array(values)
        naive = float(np.linalg.norm(v))
        if naive < 1e-140 and np.any(v):
            return  # subnormal or vanished squares: rescaled
        assert stable_norm(v) == naive

    @pytest.mark.parametrize("scale", [1e-200, 1e155, 1e200, 1e300])
    def test_no_overflow_or_underflow_out_of_range(self, scale):
        # the naive norm's squares overflow past about 1e154 and underflow below 1e-162
        assert stable_norm(np.array([3.0, -4.0, 0.0]) * scale) == pytest.approx(5.0 * scale, rel=1e-15)

    def test_zero_inf_and_nan(self):
        assert stable_norm(np.zeros(3)) == 0.0
        assert stable_norm(np.array([1.0, np.inf])) == np.inf
        assert math.isnan(stable_norm(np.array([1.0, np.nan])))


class TestSparseDualNorm:
    def test_worked_example(self):
        # brute force over 2-element supports of (3, 4, 1): max restricted norm is 5
        assert sparse_dual_norm([3.0, 4.0, 1.0], 1) == pytest.approx(5.0, abs=1e-12)

    def test_zero_vector(self):
        assert sparse_dual_norm(np.zeros(6), 2) == 0.0

    def test_exactly_2s_sparse_gives_full_norm(self):
        v = np.array([0.0, 3.0, 0.0, -4.0, 0.0])
        assert sparse_dual_norm(v, 1) == pytest.approx(5.0, abs=1e-12)

    def test_2s_capped_at_length(self):
        v = np.array([1.0, -2.0])
        assert sparse_dual_norm(v, 5) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    @given(small_vectors, st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, values, s):
        assert sparse_dual_norm(np.array(values), s) == pytest.approx(
            dual_norm_brute(values, s), abs=1e-12
        )

    def test_invalid_sparsity(self):
        with pytest.raises(InvalidArgumentError):
            sparse_dual_norm([1.0], 0)


class TestGeodesicDistance:
    def test_self_distance_zero(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert geodesic_distance(e1, e1) == 0.0
        x = normalize(np.array([1.0, 2.0, 2.0]))
        # arccos turns an ulp of <x,x> into ~1e-8, so near-zero rather than zero
        assert geodesic_distance(x, x) <= 1e-7

    def test_antipodal_distance_one(self):
        e2 = np.array([0.0, 1.0, 0.0])
        assert geodesic_distance(e2, -e2) == 1.0
        x = normalize(np.array([1.0, -1.0]))
        assert geodesic_distance(x, -x) >= 1.0 - 1e-7

    def test_orthogonal_half(self):
        e1, e2 = np.eye(2)
        assert geodesic_distance(e1, e2) == pytest.approx(0.5, abs=1e-15)

    def test_clamp_absorbs_rounding(self):
        x = normalize(np.full(7, 1.0))
        y = normalize(np.full(7, 1.0) * (1 + 1e-16))
        assert geodesic_distance(x, y) >= 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            geodesic_distance(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_metric_axioms(self, sa, sb):
        x = gen_sparse_signal(sa, 16, 4).values
        y = gen_sparse_signal(sb, 16, 4).values
        d = geodesic_distance(x, y)
        assert 0.0 <= d <= 1.0
        assert d == geodesic_distance(y, x)
        if sa == sb:
            assert d <= 1e-7


class TestHammingDistance:
    def test_identical_zero(self):
        b = measure(gen_gaussian_matrix(1, 6, 3), np.ones(3))
        assert hamming_distance(b, b) == 0.0

    def test_opposite_one(self):
        a = np.ones(5)
        assert hamming_distance(a, -a) == 1.0

    def test_single_disagreement(self):
        assert hamming_distance([1, -1, 1, 1], [1, 1, 1, 1]) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            hamming_distance([1, -1], [1, -1, 1])

    def test_symmetry(self):
        a = np.array([1.0, -1.0, 1.0, -1.0])
        b = np.array([1.0, 1.0, -1.0, -1.0])
        assert hamming_distance(a, b) == hamming_distance(b, a) == 0.5


class TestHammingMeanMatchesGeodesic:
    def test_binomial_band_over_fresh_ensembles(self):
        # E[hamming] = geodesic exactly, by rotation invariance; 4-sigma check
        m, trials = 2048, 30
        x = gen_sparse_signal(100, 24, 4).values
        y = gen_sparse_signal(101, 24, 4).values
        dg = geodesic_distance(x, y)
        total = 0.0
        for t in range(trials):
            A = gen_gaussian_matrix(5000 + t, m, 24)
            total += hamming_distance(measure(A, x), measure(A, y))
        assert abs(total / trials - dg) <= binomial_band(dg, m * trials)

