"""The matrix kernels of ``wcm.indices`` against the per-pair loops they
replaced (kept in ``helpers`` as oracles): mid-ranks, one Gram product per
rolling window, the arcsine map on arrays, and the lognormal HIX/RHIX."""

import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from helpers import covariance_ratio_oracle, gaussian_spearman_oracle, window_pair_rhos_oracle
from wcm.data import PriceSeries, _window_pair_rhos, rolling_six
from wcm.errors import DomainError
from wcm.indices import (
    LognormalModel,
    correlation_matrix,
    gaussian_spearman,
    hix_lognormal,
    midranks,
    rhix_lognormal,
    spearman_matrix,
)


@st.composite
def blocks(draw, max_n=120, max_d=35):
    """A window of returns with forced ties, constant columns and columns
    that equal or reverse another one."""
    n = draw(st.integers(3, max_n))
    d = draw(st.integers(2, max_d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 2, 3, 7]))  # 0: continuous, else tied integers
    if levels:
        block = rng.integers(0, levels, size=(n, d)).astype(float)
    else:
        block = 0.02 * rng.standard_normal((n, d))
    edits = st.tuples(st.sampled_from(["constant", "equal", "reversed"]),
                      st.integers(0, d - 1), st.integers(0, d - 1))
    for kind, i, j in draw(st.lists(edits, max_size=6)):
        if kind == "constant":
            block[:, i] = block[0, j]
        elif kind == "equal":
            block[:, i] = block[:, j]
        else:
            block[:, i] = -block[:, j]
    return block


def as_pairs(block, estimator):
    rhos, keep = _window_pair_rhos(block, estimator)
    rows, cols = np.triu_indices(block.shape[1], 1)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    return (tuple(p for p, k in zip(pairs, keep) if k), tuple(rhos[keep].tolist()),
            tuple(p for p, k in zip(pairs, keep) if not k))


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_rank_window_matches_per_pair_path_bit_for_bit(block):
    assert as_pairs(block, "rank") == window_pair_rhos_oracle(block, "rank")


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_lognormal_window_matches_per_pair_path(block):
    pairs, rhos, skipped = as_pairs(block, "lognormal")
    want_pairs, want_rhos, want_skipped = window_pair_rhos_oracle(block, "lognormal")
    assert (pairs, skipped) == (want_pairs, want_skipped)
    for got, want in zip(rhos, want_rhos):
        assert abs(got - want) <= 1e-12
        if abs(want) == 1.0:
            assert got == want


@settings(max_examples=300, deadline=None)
@given(blocks(max_n=60, max_d=8), st.booleans())
def test_midranks_match_rankdata(block, one_column):
    x = block[:, 0] if one_column else block
    assert midranks(x).tobytes() == rankdata(x, method="average", axis=0).tobytes()


def test_equal_and_reversed_rank_columns_are_exact():
    x = np.random.default_rng(1).standard_normal(500)
    block = np.column_stack((x, np.exp(x), -x, x**3))
    rho, varying = correlation_matrix(block)
    assert varying.all()
    assert (rho == np.array([[1, 1, -1, 1], [1, 1, -1, 1],
                             [-1, -1, 1, -1], [1, 1, -1, 1]])).all()


def test_constant_columns_are_masked_without_runtime_warnings():
    block = np.column_stack((np.arange(10.0), np.full(10, 0.1), np.arange(10.0) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ranks in (True, False):
            rho, varying = correlation_matrix(block, ranks=ranks)
            assert varying.tolist() == [True, False, True]
            assert np.isnan(rho[1]).all() and np.isnan(rho[:, 1]).all()
            assert rho[0, 2] == 1.0 or not ranks


def test_rolling_six_with_a_halted_ticker_warns_only_about_dropped_pairs():
    x = 0.01 * np.random.default_rng(2).standard_normal((60, 3))
    x[:, 1] = 0.0
    prices = 100.0 * np.exp(np.vstack([np.zeros(3), np.cumsum(x, axis=0)]))
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(61))
    series = PriceSeries(dates, ("A", "B", "C"), prices)
    for estimator in ("rank", "lognormal"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rolling = rolling_six(series, window=20, step=10, estimator=estimator)
        assert [str(c.message) for c in caught] == ["dropped constant-column pairs in 5 windows"]
        assert all(e.n_pairs == 1 for e in rolling.entries)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_gaussian_spearman_on_arrays_matches_the_scalar_map(values):
    got = gaussian_spearman(np.array(values))
    for g, v in zip(got.tolist(), values):
        assert abs(g - gaussian_spearman_oracle(v)) <= 1e-15
        if v in (-1.0, 0.0, 1.0):
            assert g == v
    assert isinstance(gaussian_spearman(values[0]), float)


def test_gaussian_spearman_rejects_any_entry_outside_the_domain():
    for bad in ([0.5, 1.5], [np.nan], [np.nextafter(-1.0, -2.0), 0.0]):
        with pytest.raises(DomainError):
            gaussian_spearman(np.array(bad))


def test_non_finite_data_is_rejected_before_ranking():
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            spearman_matrix(np.array([[1.0, 2.0], [bad, 3.0], [2.0, 1.0]]))


def test_spearman_matrix_lookup_is_symmetric():
    x = np.random.default_rng(3).standard_normal((40, 6))
    sm = spearman_matrix(x)
    for k, (i, j) in enumerate(sm.pairs):
        assert sm.rho(i, j) == sm.rho(j, i) == sm.rhos[k]
    assert sm.rho(4, 4) == 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_lognormal_hix_and_rhix_match_per_pair_loops(d, seed):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((d, d + 1)) * rng.uniform(0.1, 1.5)
    model = LognormalModel(tuple(rng.standard_normal(d)), factor @ factor.T)
    w = tuple(rng.uniform(0.1, 5.0, size=d).tolist())
    for index, diagonal in ((hix_lognormal, True), (rhix_lognormal, False)):
        want = covariance_ratio_oracle(w, model, diagonal)
        assert index(w, model) == pytest.approx(want, rel=1e-12, abs=1e-15)
