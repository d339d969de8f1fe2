"""Spearman estimation, SIX and its sharp bounds, and the lognormal
closed-form indices."""

import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (ComonotonicCopula, IndependenceCopula, MixtureSampler, gaussian_copula_sample,
                     spearman_oracle)
from wcm.bounds import optimal_coupling
from wcm.copula import build_grouped_wcm, build_triangle
from wcm.errors import (
    DegenerateDataError,
    DimensionError,
    DomainError,
    InvalidWeightError,
    ModelError,
)
from wcm.indices import (
    gaussian_spearman,
    pair_weight_matrix,
    rhix_degeneracy_curve,
    rhix_lognormal_bivariate,
    six,
    six_bounds,
    six_lognormal,
    spearman_matrix,
    weighted_six,
)


def rank_rho(x, y) -> float:
    return spearman_matrix(np.column_stack((x, y)))[0, 1]


def corr2(rho: float) -> list:
    return [[1.0, rho], [rho, 1.0]]


class TestSpearmanRho:
    @pytest.mark.parametrize("data", [[1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]], [[1.0, 2.0]]])
    def test_matrix_needs_two_columns_and_two_rows(self, data):
        # 1-D data, one column, one row
        with pytest.raises(DimensionError):
            spearman_matrix(np.array(data))

    def test_perfect_concordance_is_exactly_one(self):
        assert rank_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_discordance_is_exactly_minus_one(self):
        assert rank_rho([1, 2, 3, 4], [8, 6, 4, 2]) == -1.0

    def test_constant_column(self):
        with pytest.raises(DegenerateDataError):
            rank_rho([1, 2, 3], [5, 5, 5])

    def test_ties_use_midranks(self):
        # hand computation: x ranks (1.5, 1.5, 3), y ranks (1, 2, 3)
        value = rank_rho([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert value == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_matches_triple_enumeration_oracle(self):
        """With mid-ranks and no ties, the centered rank products give
        rank-rho = 12*sum(ab)/(n(n^2-1)) while exhaustive enumeration of
        independent-copy triples gives 12*sum(ab)/n^3; hence
        oracle == rank_rho * (n^2 - 1) / n^2 exactly.
        """
        rng = np.random.default_rng(90)
        n = 50
        factor = (n * n - 1.0) / (n * n)
        for _ in range(20):
            x = rng.standard_normal(n)
            y = 0.5 * x + rng.standard_normal(n)
            assert len(np.unique(x)) == n and len(np.unique(y)) == n
            oracle = spearman_oracle(x, y)
            assert abs(oracle - rank_rho(x, y) * factor) < 1e-12


class TestSix:
    def test_comonotonic_is_exactly_one(self):
        s = ComonotonicCopula(3).sample(1000, seed=1)
        w = (5, 4, 3)
        assert six(s, w) == 1.0
        assert weighted_six(spearman_matrix(s), pair_weight_matrix(w)) == (1.0, 3)

    def test_strict_equal_weight_attains_lower_bound(self):
        s = build_triangle((1, 1, 1), "A").sample(100_000, seed=2)
        assert abs(six(s, (1, 1, 1)) - (-0.5)) < 0.02

    def test_independent_is_near_zero(self):
        n = 20_000
        s = IndependenceCopula(3).sample(n, seed=3)
        assert abs(six(s, (2, 1, 1))) < 3.0 / math.sqrt(n)

    def test_shrunken_coupling_attains_lower_bound(self):
        coupling, _ = optimal_coupling((5, 1, 1))
        s = coupling.sample(100_000, seed=4)
        assert abs(six(s, (5, 1, 1)) - (-9 / 11)) < 0.02

    def test_bound_containment_across_samplers(self):
        w = (5, 4, 3)
        lower, upper = six_bounds(w)
        samplers = [
            ComonotonicCopula(3),
            IndependenceCopula(3),
            build_grouped_wcm((5, 4, 3)),
            MixtureSampler(IndependenceCopula(3), ComonotonicCopula(3), 0.4),
        ]
        n = 20_000
        for k, sampler in enumerate(samplers):
            value = six(sampler.sample(n, seed=600 + k), w)
            assert lower - 3.0 / math.sqrt(n) <= value <= upper + 1e-12

    def test_pair_weights_that_round_to_zero_unscaled_do_not_make_it_nan(self):
        # unit-scaled to (1/2, 2**-1074, 2**-1074), every w_i w_j rounds to 0
        x = np.random.default_rng(9).standard_normal((30, 3))
        rho = spearman_matrix(x)
        value = six(x, (1, 2.0**-1073, 2.0**-1073))
        assert value == pytest.approx((rho[0, 1] + rho[0, 2]) / 2, abs=1e-15)

    def test_rank_invariance_bit_identical(self):
        rng = np.random.default_rng(7)
        data = rng.random((500, 3))
        base = six(data, (5, 4, 3))
        transforms = (np.exp, lambda c: 3.0 * c + 1.0, lambda c: c**3, np.arctan)
        transformed = np.column_stack(
            [transforms[k % len(transforms)](data[:, k]) for k in range(3)]
        )
        assert six(transformed, (5, 4, 3)) == base

    def test_column_count_checked_before_ranking(self):
        # A constant column cannot be ranked; the shape error must come first.
        data = np.column_stack([np.arange(10.0), np.ones(10), np.arange(10.0) ** 2])
        with pytest.raises(DimensionError):
            six(data, (1, 1, 1, 1))
        with pytest.raises(DimensionError):
            six(ComonotonicCopula(2).sample(10, seed=1), (1, 1, 1))
        with pytest.raises(DegenerateDataError):
            six(data, (1, 1, 1))


class TestSixBounds:
    def test_equal_triple(self):
        assert six_bounds((1, 1, 1)) == (pytest.approx(-0.5, abs=1e-15), 1.0)

    def test_shrunk_triple(self):
        assert six_bounds((5, 1, 1))[0] == pytest.approx(-9 / 11, abs=1e-15)

    def test_pair(self):
        assert six_bounds((1, 1))[0] == pytest.approx(-1.0, abs=1e-15)

    @given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12), st.floats(1.0, 1e20),
           st.integers(-300, 300))
    @settings(max_examples=200, deadline=None)
    def test_lower_end_is_the_correctly_rounded_exact_value(self, w, boost, exponent):
        # an oversized first weight makes S1^2 - S2 cancel in floats
        w = [math.ldexp(v, exponent) for v in [w[0] * boost, *w[1:]]]
        v = [Fraction(x) for x in w]
        s1, s2 = sum(v), sum(x * x for x in v)
        excess = max(0, 2 * max(v) - s1)
        assert six_bounds(w) == (float((excess * excess - s2) / (s1 * s1 - s2)), 1.0)

    @pytest.mark.parametrize("w", [(4, 1e-300), (4, 1e-100), (4, 1, 1e-300), (4, 3e-310),
                                   (1e300, 1.0, 1.0)])
    def test_one_weight_dwarfing_the_others(self, w):
        assert six_bounds(w) == (-1.0, 1.0)

    @pytest.mark.parametrize("w", [(4, 1e-323), (1e300, 1e-300, 1.0)])
    def test_ratio_beyond_the_float_range_names_the_weights(self, w):
        given_w = repr(tuple(float(v) for v in w))
        for call in (lambda: six_bounds(w), lambda: pair_weight_matrix(w),
                     lambda: six(np.eye(len(w)), w)):
            with pytest.raises(InvalidWeightError, match="float range") as err:
                call()
            assert given_w in str(err.value)


class TestGaussianSpearman:
    def test_endpoints_exact(self):
        assert gaussian_spearman(1.0) == 1.0
        assert gaussian_spearman(-1.0) == -1.0
        assert gaussian_spearman(0.0) == 0.0

    def test_half(self):
        assert gaussian_spearman(0.5) == pytest.approx(0.4825837395309974, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            gaussian_spearman(1.5)


class TestSixLognormal:
    def test_all_rho_one_is_exactly_one(self):
        assert six_lognormal(np.ones((3, 3)), (5, 4, 3)) == 1.0

    def test_all_rho_zero_is_zero(self):
        assert six_lognormal(np.eye(2), (1, 2)) == 0.0

    def test_bivariate_value(self):
        # one pair's SIX is its arcsine-mapped rho bit for bit, whatever the weights
        assert six_lognormal(corr2(0.5), (2, 7)) == gaussian_spearman(0.5)
        # also where the pair weight 0.5 * 2**-1074 rounds to 0, for either source
        assert six_lognormal(corr2(0.5), (1, 1e-323)) == gaussian_spearman(0.5)
        x = np.random.default_rng(8).standard_normal((30, 2))
        assert six(x, (1, 1e-323)) == spearman_matrix(x)[0, 1]
        assert six_lognormal(corr2(0.5), (1, 1)) == pytest.approx(0.4825837395309974, abs=1e-15)

    def test_weight_count_must_match_the_model(self):
        with pytest.raises(DimensionError, match=r"shape \(2, 2\)"):
            six_lognormal(corr2(0.5), (1, 1, 1))

    @pytest.mark.parametrize("corr", [np.ones((2, 3)), [1.0, 0.5], [[[1.0]]]])
    def test_shape_must_be_d_by_d(self, corr):
        with pytest.raises(DimensionError, match="shape"):
            six_lognormal(corr, (1, 1))

    def test_strictly_increasing_in_rho(self):
        grid = np.linspace(-0.9, 0.9, 19)
        values = [six_lognormal(corr2(r), (1, 1)) for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_rank_six_of_gaussian_copula(self):
        n = 200_000
        for k, rho in enumerate((-0.5, 0.0, 0.3, 0.8)):
            corr = np.array([[1.0, rho], [rho, 1.0]])
            u = gaussian_copula_sample(corr, n, seed=700 + k)
            sample_six = six(u, (1, 1))
            assert abs(sample_six - gaussian_spearman(rho)) < 0.01

    def test_rank_six_nondecreasing_in_rho_with_common_randomness(self):
        n = 50_000
        values = []
        for rho in (0.0, 0.2, 0.4, 0.6, 0.8):
            u = gaussian_copula_sample(np.array([[1.0, rho], [rho, 1.0]]), n, seed=800)
            values.append(six(u, (1, 1)))
        slack = 3.0 / math.sqrt(n)
        assert all(b > a - slack for a, b in zip(values, values[1:]))


class TestLognormalModel:
    """A lognormal model's inputs: the correlation matrix of its log returns,
    which ``six_lognormal`` takes, and the volatilities, which
    ``rhix_lognormal_bivariate`` takes."""

    def test_rejects_non_psd(self):
        corr = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]  # eigenvalue -0.8
        with pytest.raises(ModelError, match="semidefinite"):
            six_lognormal(corr, (1, 1, 1))

    def test_rejects_asymmetric(self):
        with pytest.raises(ModelError, match="symmetric"):
            six_lognormal([[1.0, 0.5], [0.2, 1.0]], (1, 1))

    def test_rejects_bad_diagonal(self):
        for diag in (0.0, 0.5, 1.0 - 1e-11):
            with pytest.raises(ModelError, match="unit diagonal"):
                six_lognormal([[1.0, 0.0], [0.0, diag]], (1, 1))

    def test_accepts_the_diagonal_corrcoef_can_give(self):
        corr = np.array(corr2(0.5))
        corr[1, 1] = 0.9999999999999998
        assert six_lognormal(corr, (1, 1)) == gaussian_spearman(0.5)

    @pytest.mark.parametrize("rho", [1.5, -1.0000000000000002, 2.0])
    def test_rejects_a_correlation_beyond_one(self, rho):
        with pytest.raises(ModelError, match=r"\[-1, 1\]"):
            six_lognormal(corr2(rho), (1, 1))
        with pytest.raises(ModelError, match=r"\[-1, 1\]"):
            rhix_lognormal_bivariate(rho, 1.0, 1.0)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_entry_first(self, entry):
        # the asymmetric and the bad-diagonal matrices are named by their entry
        for corr in ([[entry, 0.0], [0.0, 1.0]], [[1.0, entry], [entry, 1.0]],
                     [[1.0, entry], [0.0, 1.0]]):
            with pytest.raises(ModelError, match="finite"):
                six_lognormal(corr, (1, 1))

    @pytest.mark.parametrize("sigmas", [(-0.7, 1.3), (0.7, -1.3), (0.0, 1.0), (1.0, -0.0)])
    def test_bivariate_rejects_a_non_positive_volatility(self, sigmas):
        with pytest.raises(ModelError, match="volatilities must be positive"):
            rhix_lognormal_bivariate(0.5, *sigmas)


class TestRhix:
    def test_bivariate_endpoints(self):
        assert rhix_lognormal_bivariate(1.0, 2.0, 3.0) == 1.0
        assert rhix_lognormal_bivariate(0.0, 2.0, 3.0) == 0.0

    @pytest.mark.parametrize("rho, sigma", [(0.5, 2.3e-162), (0.5, 1.5e-162), (0.3, 1e-200)])
    def test_bivariate_tends_to_rho_where_sigma_squared_is_subnormal(self, rho, sigma):
        # sigma^2 is subnormal or 0, where expm1(y) == y: the limit as sigma -> 0
        assert rhix_lognormal_bivariate(rho, sigma, sigma) == rho

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=1e-160, max_value=26.0),
        st.floats(min_value=1e-160, max_value=26.0),
    )
    @settings(max_examples=300)
    def test_bivariate_keeps_its_bits_where_the_product_is_normal(self, rho, s1, s2):
        assume(s1 * s2 >= sys.float_info.min)
        expected = math.expm1(rho * s1 * s2) / math.expm1(s1 * s2)
        actual = rhix_lognormal_bivariate(rho, s1, s2)
        assert struct.pack("<d", actual) == struct.pack("<d", expected)

    def test_bivariate_decay_value(self):
        assert rhix_lognormal_bivariate(0.5, 5.0, 5.0) == pytest.approx(
            3.7266392841865614e-06, rel=1e-12
        )

    @pytest.mark.parametrize("rho, s1, s2", [(0.5, 30.0, 30.0), (-0.5, 30.0, 30.0),
                                             (0.5, 1e200, 1e200), (0.5, math.inf, 1.0),
                                             (0.5, math.nan, 1.0)])
    def test_bivariate_with_no_finite_ceiling_is_a_model_error(self, rho, s1, s2):
        # exp(s1*s2) - 1 overflows at 30 * 30 and is inf or NaN at inf or NaN
        with pytest.raises(ModelError, match="sigmas"):
            rhix_lognormal_bivariate(rho, s1, s2)


class TestDegeneracyCurve:
    def test_low_volatility_plateau_near_rho(self):
        (_, value), = rhix_degeneracy_curve(0.5, [0.0309])
        assert abs(value - 0.5) < 1e-3

    def test_decay_at_high_volatility(self):
        curve = dict(rhix_degeneracy_curve(0.5, np.arange(0.1, 5.01, 0.1)))
        assert curve[list(curve)[-1]] < 1e-5

    def test_strictly_decreasing_is_asserted(self):
        curve = rhix_degeneracy_curve(0.5, [0.5, 1.0, 2.0])
        assert curve[0][1] > curve[1][1] > curve[2][1]

    def test_zero_rho_is_identically_zero(self):
        assert all(v == 0.0 for _, v in rhix_degeneracy_curve(0.0, [0.1, 1.0, 2.0]))

    def test_rejects_unit_rho(self):
        with pytest.raises(ModelError):
            rhix_degeneracy_curve(1.0, [0.1, 1.0])

    def test_marginal_sensitivity_vs_six_constancy(self):
        """Same copula across the sweep: the covariance-ratio collapses by
        orders of magnitude while SIX does not move at all."""
        sweep = np.arange(0.1, 5.01, 0.1)
        curve = rhix_degeneracy_curve(0.5, sweep)
        ratio = curve[0][1] / curve[-1][1]
        assert ratio > 1e4
        # exp(sigma * Z) for one Gaussian Z: only the marginals move
        z = np.random.default_rng(31).standard_normal((2000, 2)) @ np.linalg.cholesky(
            corr2(0.5)).T
        assert len({six(np.exp(s * z), (1, 1)) for s in sweep}) == 1


class TestSpearmanMatrixGaussian:
    def test_values(self):
        corr = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -1.0], [0.0, -1.0, 1.0]])
        m = gaussian_spearman(corr)
        assert m[0, 1] == pytest.approx(gaussian_spearman(0.5), abs=1e-15)
        assert m[1, 2] == -1.0
        assert m[0, 2] == 0.0
        assert m[2, 2] == 1.0
