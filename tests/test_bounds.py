"""Variance extremes, the minimizing coupling, and the MC verification harness."""

import json
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
    batch_moments_oracle,
    covariance_identity_check,
    lemma_m_check,
    mc_variance_unscaled_oracle,
)
from wcm.bounds import (
    MC_BATCH,
    _batch_moments,
    _draw_dots,
    mc_variance,
    optimal_coupling,
    variance_bound_report,
)
from wcm.copula import build_grouped_wcm, make_rng
from wcm.errors import DimensionError, DomainError
from wcm.weights import variance_lower_bound


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

    @given(st.one_of(st.integers(1, 3000), st.just(MC_BATCH)), st.floats(-1e3, 1e3),
           st.integers(-60, 60), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_batch_moments_give_the_oracle_bits(self, n, offset, exponent, seed):
        # the powers of the deviations overwrite their buffers; the products are the same
        x = offset + math.ldexp(1.0, exponent) * make_rng(seed).standard_normal(n)
        assert [float(v).hex() for v in _batch_moments(x)] == \
            [float(v).hex() for v in batch_moments_oracle(x)]

    @pytest.mark.parametrize("w", [(5, 1, 1), (5, 4, 3), (10, 2, 3, 1)])
    def test_batch_moments_of_coupling_dots_give_the_oracle_bits(self, w):
        dots = _draw_dots(optimal_coupling(w)[0], np.array(w, float), MC_BATCH, make_rng(3))
        assert [float(v).hex() for v in _batch_moments(dots)] == \
            [float(v).hex() for v in batch_moments_oracle(dots)]

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


class TestReport:
    def test_bounds_and_json(self):
        report = variance_bound_report((5, 1, 1), mc_n=10**5, seed=80)
        assert report.lower == pytest.approx(0.75, abs=1e-15)
        assert report.upper == pytest.approx(49.0 / 12.0, abs=1e-12)
        assert 0.0 <= report.lower <= report.upper
        assert abs(report.mc.estimate - report.lower) < 5 * report.mc.stderr
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["weights"] == [5.0, 1.0, 1.0]
        assert payload["mc"]["n"] == 10**5
        assert payload["mc"]["seed"] == 80

    def test_requires_seed_for_mc(self):
        with pytest.raises(DomainError):
            variance_bound_report((5, 1, 1), mc_n=100, seed=None)

    def test_no_mc_section_when_not_requested(self):
        report = variance_bound_report((1, 1, 1))
        assert report.mc is None
        assert "mc" not in report.to_json_dict()
