"""The minimizing coupling and the MC verification harness; the variance
extremes are tested with ``wcm.weights``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ColumnPermutedSampler,
    ComonotonicCopula,
    IndependenceCopula,
    MixtureSampler,
    batch_sums_oracle,
    central_moments_oracle,
    covariance_identity_check,
    lemma_m_check,
    mc_variance_central_oracle,
    mc_variance_unscaled_oracle,
)
from wcm.bounds import (
    MC_BATCH,
    _batch_sums,
    _draw_dots,
    mc_variance,
    optimal_coupling,
)
from wcm.copula import build_grouped_wcm, make_rng
from wcm.errors import DimensionError, DomainError
from wcm.weights import unit_scaled, validate_wcm_existence, variance_lower_bound


class TestOptimalCoupling:
    def test_shrunken_triple(self):
        coupling, predicted = optimal_coupling((5, 1, 1))
        assert coupling.construction == "grouped"
        assert sorted(coupling.weights) == [1.0, 1.0, 2.0]
        assert predicted == pytest.approx(0.75, abs=1e-15)

    def test_existent_weights_predict_zero(self):
        coupling, predicted = optimal_coupling((1, 1, 1))
        assert predicted == 0.0
        assert coupling.aggregates == (1.0, 1.0, 1.0)

    def test_pair(self):
        coupling, predicted = optimal_coupling((2, 1))
        assert coupling.construction == "countermonotonic"
        assert predicted == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_coupling_variance_formula(self):
        # Under the shrunken coupling the sum is 3*U1 + 2, so its variance is
        # exactly 9/12 on any sample of U1 values.
        coupling, _ = optimal_coupling((5, 1, 1))
        values = coupling.sample(50_000, seed=31).values
        sums = values @ np.array([5.0, 1.0, 1.0])
        u1 = values[:, int(np.argmax(coupling.weights == 2.0))]
        assert np.allclose(sums, 3.0 * values[:, 0] + 2.0, atol=1e-9) or np.allclose(
            sums, 3.0 * u1 + 2.0, atol=1e-9
        )


class TestMcVariance:
    def test_comonotonic_hits_upper_bound(self):
        est, se = mc_variance(ComonotonicCopula(3), (1, 1, 1), 10**6, seed=41)
        assert abs(est - 0.75) < 3 * se

    def test_optimal_coupling_hits_lower_bound(self):
        coupling, predicted = optimal_coupling((5, 1, 1))
        est, se = mc_variance(coupling, (5, 1, 1), 10**6, seed=42)
        assert abs(est - predicted) < 3 * se

    def test_constant_sum_is_zero_to_machine_precision(self):
        coupling, _ = optimal_coupling((1, 1, 1))
        est, _ = mc_variance(coupling, (1, 1, 1), 10**5, seed=43)
        assert est < 1e-18

    def test_thread_count_does_not_change_bits(self):
        sampler = IndependenceCopula(3)
        serial = mc_variance(sampler, (1, 2, 3), 3 * 10**5, seed=44, threads=1)
        threaded = mc_variance(sampler, (1, 2, 3), 3 * 10**5, seed=44, threads=4)
        assert serial == threaded

    def test_rejects_sampler_of_wrong_shape(self):
        class FlatSampler:
            def sample(self, n, seed):
                return np.zeros(n)

        with pytest.raises(DimensionError):
            mc_variance(FlatSampler(), (1, 1), 10, seed=1)

    def test_needs_two_draws(self):
        with pytest.raises(DimensionError):
            mc_variance(IndependenceCopula(2), (1, 1), 1, seed=1)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_needs_a_thread(self, threads):
        with pytest.raises(DomainError, match="threads"):
            mc_variance(IndependenceCopula(2), (1, 1), 10, seed=1, threads=threads)

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5), st.integers(-40, 40),
           st.one_of(st.integers(2, 3000), st.just(MC_BATCH + 3)), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_scaled_weights_give_the_unscaled_bits(self, base, exponent, n, seed):
        # every step commutes with a power-of-two scaling while nothing under- or overflows
        w = [v * 10.0**exponent for v in base]
        coupling, _ = optimal_coupling(w)
        got = mc_variance(coupling, w, n, seed)
        want = mc_variance_unscaled_oracle(coupling, w, n, seed)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("w", [(4.0, 1e-323), (1e10, 3.0, 1e-314)])
    def test_weight_that_scales_below_the_normal_floats(self, w):
        # the tiny weight scales to 0.0 or a subnormal, which the dot takes as it is
        coupling, _ = optimal_coupling(w)
        assert mc_variance(coupling, w, 500, 7) == mc_variance_unscaled_oracle(coupling, w, 500, 7)

    def test_estimate_that_overflows_when_scaled_back(self):
        # rounding noise of ~1e-33 in scaled units, times 2**1330
        w = (1e200,) * 3
        with pytest.raises(DomainError, match="overflows"):
            mc_variance(optimal_coupling(w)[0], w, 100, 1)

    @given(st.one_of(st.integers(1, 3000), st.just(MC_BATCH)), st.floats(-1e3, 1e3),
           st.integers(-60, 60), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_batch_moments_give_the_oracle_bits(self, n, offset, exponent, seed):
        # the deviations and their powers overwrite the batch; the products are the same
        x = offset + math.ldexp(1.0, exponent) * make_rng(seed).standard_normal(n)
        want = batch_sums_oracle(x, offset)
        assert [v.hex() for v in _batch_sums(x, offset)] == [v.hex() for v in want]

    @pytest.mark.parametrize("w", [(5, 1, 1), (5, 4, 3), (10, 2, 3, 1)])
    def test_batch_moments_of_coupling_dots_give_the_oracle_bits(self, w):
        dots = _draw_dots(optimal_coupling(w)[0], np.array(w, float), MC_BATCH, make_rng(3))
        want = batch_sums_oracle(dots, 0.5 * sum(w))
        assert [v.hex() for v in _batch_sums(dots, 0.5 * sum(w))] == [v.hex() for v in want]

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5), st.integers(-150, 150),
           st.one_of(st.integers(2, 3000), st.just(MC_BATCH + 3)), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_known_mean_matches_the_central_moments(self, base, exponent, n, seed):
        """``n * estimate == M2 + n * (mean - S1/2)^2``, with ``M2`` and ``mean``
        the merged central moments of the same dots, in the units of the scaled
        weights.  Their float mean is off by up to ``err``, which moves the
        right side by up to ``2 n err (|mean - S1/2| + err)``: that matters
        only next to the existence boundary, where the variance is tiny."""
        w = [v * 10.0**exponent for v in base]
        coupling, _ = optimal_coupling(w)
        estimate, _ = mc_variance(coupling, w, n, seed)
        (_, mean, m2, _, _), shift = central_moments_oracle(coupling, w, n, seed)
        s1 = math.fsum(unit_scaled(w)[0])
        new = math.ldexp(estimate, 2 * shift)
        if validate_wcm_existence(w):
            old = math.ldexp(mc_variance_central_oracle(coupling, w, n, seed)[0], 2 * shift)
            assert max(new, old) < 1e-28 * s1 * s1
            return
        offset = abs(mean - 0.5 * s1)
        err = 64 * 2.0**-52 * s1
        assert n * new == pytest.approx(m2 + n * offset * offset,
                                        rel=1e-12, abs=2 * n * err * (offset + err))

    @pytest.mark.parametrize("w", [(5, 1, 1), (4, 1, 1), (7, 2, 2), (2, 1), (1, 1, 1)])
    def test_coupling_within_five_se_of_bound(self, w):
        coupling, _ = optimal_coupling(w)
        est, se = mc_variance(coupling, w, 10**6, seed=sum(int(v) for v in w))
        assert abs(est - variance_lower_bound(w)) <= max(5 * se, 1e-16)

    def test_mixture_variance_nondecreasing_in_lambda(self):
        """Moving mass from the independence rows to comonotonic rows can only
        push the variance of the weighted sum up."""
        w = (5, 4, 3)
        previous = -math.inf
        previous_se = 0.0
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            sampler = MixtureSampler(IndependenceCopula(3), ComonotonicCopula(3), lam)
            est, se = mc_variance(sampler, w, 2 * 10**5, seed=50)
            assert est > previous - 3 * (se + previous_se)
            previous, previous_se = est, se

    def test_randomized_search_never_beats_bound(self):
        """100 random samplers (mixtures, permuted blocks) all stay above the
        sharp lower bound minus five standard errors."""
        w = (5, 1, 1)
        lower = variance_lower_bound(w)
        base = [
            IndependenceCopula(3),
            ComonotonicCopula(3),
            build_grouped_wcm((2, 1, 1)),
            build_grouped_wcm((1, 1, 1)),
        ]
        rng = np.random.default_rng(2024)
        for trial in range(100):
            i, j = rng.integers(0, len(base), size=2)
            sampler = MixtureSampler(base[i], base[j], float(rng.random()))
            if rng.random() < 0.5:
                sampler = ColumnPermutedSampler(sampler, tuple(rng.permutation(3)))
            est, se = mc_variance(sampler, w, 2 * 10**4, seed=3000 + trial)
            assert est >= lower - 5 * se, (trial, est, lower, se)


class TestCovarianceIdentity:
    def test_residual_is_floating_point_zero(self):
        for sampler in (IndependenceCopula(3), ComonotonicCopula(3), build_grouped_wcm((1, 1, 1))):
            s = sampler.sample(20_000, seed=60)
            assert covariance_identity_check(s, (1, 1, 1)) < 1e-10

    def test_comonotonic_pair_value(self):
        s = ComonotonicCopula(2).sample(200_000, seed=61)
        sums = s.values @ np.ones(2)
        assert np.var(sums, ddof=1) == pytest.approx(1.0 / 3.0, abs=0.005)
        assert covariance_identity_check(s, (1, 1)) < 1e-10

    def test_countermonotonic_pair_value(self):
        s = build_grouped_wcm((1, 1)).sample(200_000, seed=62)
        sums = s.values @ np.ones(2)
        assert np.var(sums, ddof=1) == pytest.approx(0.0, abs=1e-12)
        assert covariance_identity_check(s, (1, 1)) < 1e-10

    def test_dimension_mismatch(self):
        s = IndependenceCopula(3).sample(100, seed=63)
        with pytest.raises(DimensionError):
            covariance_identity_check(s, (1, 1))


class TestLemmaM:
    def test_wcm_sample_gives_zero_covariance(self):
        s = build_grouped_wcm((2, 1, 1)).sample(100_000, seed=70)
        assert abs(lemma_m_check(s, (2, 1, 1))) < 1e-3

    def test_comonotonic_sample_is_positive(self):
        s = ComonotonicCopula(3).sample(200_000, seed=71)
        assert lemma_m_check(s, (2, 1, 1)) == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_countermonotonic_pair_is_zero(self):
        s = build_grouped_wcm((1, 1)).sample(50_000, seed=72)
        assert abs(lemma_m_check(s, (1, 1))) < 1e-15

    def test_precondition(self):
        s = IndependenceCopula(2).sample(100, seed=73)
        with pytest.raises(DomainError):
            lemma_m_check(s, (2, 1))
