"""The matrix kernels of ``wcm.indices`` against the per-pair loops they
replaced (kept in ``helpers`` as oracles): mid-ranks, one Gram product per
rolling window, the rolling ranks that slide from window to window, the SIX
average of a rho matrix, and the arcsine map on arrays."""

import datetime as dt
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from helpers import (
    gaussian_spearman_oracle,
    six_from_pairs_oracle,
    window_pair_rhos_oracle,
)
import wcm.data
from wcm.data import (SLIDE_ROWS, PriceSeries, _lognormal_pair_rhos, _rolling_ranks,
                      _window_pair_rhos, log_returns, rolling_six, rolling_windows)
from wcm.errors import DomainError
from wcm.indices import (
    centred_correlation,
    gaussian_spearman,
    midranks,
    pair_weight_matrix,
    six,
    six_bounds,
    six_lognormal,
    spearman_matrix,
    weighted_six,
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


def upper_pairs(rho):
    """The pairs ``i < j`` of a rho matrix in row-major order, and their rhos."""
    rows, cols = np.triu_indices(len(rho), 1)
    return list(zip(rows.tolist(), cols.tolist())), rho[rows, cols].tolist()


def window_rhos(block, estimator):
    """A window's rho matrix by the kernel ``rolling_six`` runs for ``estimator``,
    on ranks of the block taken afresh for ``rank``."""
    if estimator == "rank":
        return _window_pair_rhos(midranks(block) - 0.5 * (len(block) + 1))
    return _lognormal_pair_rhos(block)


def as_pairs(block, estimator):
    pairs, rhos = upper_pairs(window_rhos(block, estimator))
    return (tuple(p for p, r in zip(pairs, rhos) if not math.isnan(r)),
            tuple(r for r in rhos if not math.isnan(r)),
            tuple(p for p, r in zip(pairs, rhos) if math.isnan(r)))


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
    rho = spearman_matrix(block)
    assert (rho == np.array([[1, 1, -1, 1], [1, 1, -1, 1],
                             [-1, -1, 1, -1], [1, 1, -1, 1]])).all()


def test_constant_columns_are_masked_without_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n, estimator in itertools.product((10, 84), ("rank", "lognormal")):
            # a column of 0.1 centres to 1.4e-17 at 10 rows and 1.7e-16 at 84, not 0.0
            block = np.column_stack((np.arange(n), np.full(n, 0.1), np.arange(n) ** 2.0))
            rho = window_rhos(block, estimator)
            assert np.isnan(rho).tolist() == [[False, True, False], [True] * 3,
                                              [False, True, False]]
            assert rho[0, 2] == 1.0 or estimator != "rank"


@settings(max_examples=200, deadline=None)
@given(blocks(max_n=60, max_d=8), st.data())
def test_centred_correlation_of_a_constant_column_is_nan_and_leaves_the_rest(block, data):
    d = block.shape[1]
    constant = data.draw(st.lists(st.integers(0, d - 1), max_size=d))
    block[:, constant] = 1.0
    ranks = midranks(block) - 0.5 * (len(block) + 1)
    varying = np.ptp(block, axis=0) > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rho = centred_correlation(ranks)
        alone = centred_correlation(ranks[:, varying])
    nan = ~np.outer(varying, varying)
    assert np.isnan(rho[nan]).all()
    # centred ranks are multiples of 1/2, so every Gram entry is exact
    assert rho[np.ix_(varying, varying)].tobytes() == alone.tobytes()


def series_from(returns):
    prices = 100.0 * np.exp(np.vstack([np.zeros(returns.shape[1]), np.cumsum(returns, axis=0)]))
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(len(prices)))
    return PriceSeries(dates, tuple(f"T{k}" for k in range(returns.shape[1])), prices)


def test_rolling_six_with_a_halted_ticker_counts_dropped_pairs_without_warning():
    x = 0.01 * np.random.default_rng(2).standard_normal((60, 3))
    x[:, 1] = 0.0
    series = series_from(x)
    for estimator in ("rank", "lognormal"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rolling = rolling_six(series, window=20, step=10, estimator=estimator)
        assert caught == []
        assert all(e.n_pairs == 1 for e in rolling.entries)
        assert (len(rolling.entries), rolling.pairs_dropped, rolling.skipped) == (5, 10, ())


@settings(max_examples=100, deadline=None)
@given(blocks(max_n=60, max_d=8), st.integers(0, 2**32 - 1), st.integers(5, 20))
def test_rolling_rank_six_matches_per_pair_path_bit_for_bit(block, seed, window):
    w = np.random.default_rng(seed).uniform(0.1, 10.0, block.shape[1]).tolist()
    series = series_from(block)
    returns = log_returns(series)
    window = min(window, len(returns))
    rolling = rolling_six(series, w, window=window, step=3)
    want, dropped = [], 0
    for start in range(0, len(returns) - window + 1, 3):
        pairs, rhos, skipped = window_pair_rhos_oracle(returns[start:start + window], "rank")
        dropped += len(skipped)
        if pairs:
            want.append((six_from_pairs_oracle(pairs, rhos, w)[0], len(pairs)))
    assert [(e.six, e.n_pairs) for e in rolling.entries] == want
    assert rolling.pairs_dropped == dropped


@st.composite
def rolling_cases(draw):
    """A price panel whose returns tie (prices on a few levels), with tickers
    halted and stretches where every ticker halts, a window of 2 rows up to
    all of them, a step below, at and above the sliding crossover or as long
    as the window, and weights."""
    n = draw(st.integers(3, 50))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 2, 3, 5]))  # 0: continuous, else tied levels
    if levels:
        prices = 100.0 + rng.integers(0, levels, size=(n, d)).astype(float)
    else:
        prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((n, d)), axis=0))
    halts = st.tuples(st.integers(-1, d - 1), st.integers(0, n - 1), st.integers(2, n))
    for col, start, length in draw(st.lists(halts, max_size=3)):
        cols = slice(None) if col < 0 else col  # -1: every ticker halts
        prices[start:start + length, cols] = prices[start, cols]
    window = draw(st.integers(2, n - 1))
    step = draw(st.sampled_from([1, 2, SLIDE_ROWS, SLIDE_ROWS + 1, window,
                                 window + draw(st.integers(1, 5))]))
    w = rng.uniform(0.1, 10.0, d).tolist()
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(n))
    return PriceSeries(dates, tuple(f"T{k}" for k in range(d)), prices), window, step, w


@settings(max_examples=300, deadline=None)
@given(rolling_cases())
def test_sliding_rank_six_matches_per_window_ranking_bit_for_bit(case):
    series, window, step, w = case
    rolling = rolling_six(series, w, window=window, step=step)
    returns = log_returns(series)
    pair_w, bounds = pair_weight_matrix(w), six_bounds(w)
    by_matrix, by_pair, skipped, dropped = [], [], [], 0
    windows = rolling_windows(len(returns), window, step)
    for (start, stop), centred in zip(windows, _rolling_ranks(returns, windows)):
        block = returns[start:stop]
        # the slid ranks are midranks' bits (signed zeros too) in ring order
        want = midranks(block) - 0.5 * (window + 1)
        assert np.sort(centred, axis=0).tobytes() == np.sort(want, axis=0).tobytes()
        rho = _window_pair_rhos(centred)
        assert rho.tobytes() == window_rhos(block, "rank").tobytes()
        value, _, n_pairs = weighted_six(rho, pair_w, bounds)
        pairs, rhos, left_out = window_pair_rhos_oracle(block, "rank")
        assert n_pairs == len(pairs)
        dropped += len(left_out)
        if pairs:
            by_matrix.append((value.hex(), len(pairs)))
            by_pair.append((six_from_pairs_oracle(pairs, rhos, w)[0].hex(), len(pairs)))
        else:
            skipped.append(series.dates[stop])
    assert [(e.six.hex(), e.n_pairs) for e in rolling.entries] == by_matrix == by_pair
    assert [date for date, _ in rolling.skipped] == skipped
    assert rolling.pairs_dropped == dropped


@pytest.mark.parametrize("estimator", ["rank", "lognormal"])
@pytest.mark.parametrize("step", [1, 3, SLIDE_ROWS + 1, 30])
def test_rolling_six_calls_the_window_kernel_once_per_window(monkeypatch, estimator, step):
    # bench/worker.py times ``_window_pair_rhos`` as the "indices.spearman_matrix"
    # stage and ``gaussian_spearman``, looked up in ``wcm.data``, as
    # "indices.gaussian_spearman"
    kernel = {"rank": "_window_pair_rhos", "lognormal": "_lognormal_pair_rhos"}[estimator]
    calls = []

    def count(name):
        original = getattr(wcm.data, name)

        def counted(x):
            calls.append((name, len(x)))
            return original(x)

        monkeypatch.setattr(wcm.data, name, counted)

    count(kernel)
    count("gaussian_spearman")
    x = 0.01 * np.random.default_rng(3).standard_normal((120, 4))
    x[40:90] = 0.0  # every ticker halts: windows inside are skipped
    rolling = rolling_six(series_from(x), window=20, step=step, estimator=estimator)
    windows = rolling_windows(len(x), 20, step)
    assert [n for name, n in calls if name == kernel] == [20] * len(windows)
    maps = sum(name == "gaussian_spearman" for name, _ in calls)
    assert maps == (len(windows) if estimator == "lognormal" else 0)
    assert len(rolling.entries) + len(rolling.skipped) == len(windows)
    assert rolling.skipped


@st.composite
def rho_matrices(draw):
    """A symmetric rho matrix with exact 0 and +/-1 entries, and weights."""
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.choice([-1.0, 0.0, 1.0, *rng.uniform(-1.0, 1.0, 8)], size=(d, d))
    rho = np.triu(rho, 1) + np.triu(rho, 1).T + np.eye(d)
    w = draw(st.lists(st.sampled_from([1.0, 2.0]) | st.floats(0.01, 100.0),
                      min_size=d, max_size=d))
    return rho, w


@settings(max_examples=300, deadline=None)
@given(rho_matrices())
def test_weighted_six_matches_the_pairs_tuple_average(case):
    rho, w = case
    value, _, n_pairs = weighted_six(rho, pair_weight_matrix(w), six_bounds(w))
    want, shares = six_from_pairs_oracle(*upper_pairs(rho), w)
    assert (value.hex(), n_pairs) == (want.hex(), len(shares))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_six_lognormal_matches_the_pairs_tuple_average(d, seed):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((d, d + 1))
    cov = factor @ factor.T
    sigmas = np.sqrt(np.diag(cov))
    corr = np.clip(cov / np.outer(sigmas, sigmas), -1.0, 1.0)
    w = rng.uniform(0.1, 5.0, size=d).tolist()
    # the arcsine map on the upper triangle, as first written
    pairs, rhos = upper_pairs(gaussian_spearman(np.triu(corr, 1)))
    assert six_lognormal(corr, w) == six_from_pairs_oracle(pairs, rhos, w)[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8), st.integers(-600, 600),
       st.integers(0, 2**32 - 1))
def test_six_and_its_bounds_do_not_depend_on_a_power_of_two_scale(w, k, seed):
    data = np.random.default_rng(seed).standard_normal((30, len(w)))
    scaled = [math.ldexp(v, k) for v in w]
    assert six(data, scaled) == six(data, w)
    assert six_bounds(scaled) == six_bounds(w)


def test_weighted_six_leaves_out_nan_pairs():
    rho = np.array([[1.0, 0.5, np.nan], [0.5, 1.0, np.nan], [np.nan, np.nan, 1.0]])
    pair_w, bounds = pair_weight_matrix((1, 2, 3)), six_bounds((1, 2, 3))
    assert weighted_six(rho, pair_w, bounds) == (0.5, True, 1)
    rho[0, 1] = np.nan
    value, within, n_pairs = weighted_six(rho, pair_w, bounds)
    assert math.isnan(value) and (within, n_pairs) == (False, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.data())
def test_six_of_one_pair_is_that_pairs_rho(d, data):
    i, j = sorted(data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
    r = data.draw(st.floats(-1.0, 1.0))
    w = data.draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d))
    rho = np.full((d, d), np.nan)
    rho[i, j] = rho[j, i] = r
    value, _, n_pairs = weighted_six(rho, pair_weight_matrix(w), six_bounds(w))
    assert (value.hex(), n_pairs) == (r.hex(), 1)


@settings(max_examples=100, deadline=None)
@given(blocks(max_n=60, max_d=2), st.lists(st.floats(0.01, 100.0), min_size=2, max_size=2),
       st.sampled_from(["rank", "lognormal"]))
def test_two_ticker_rolling_six_is_each_windows_rho(block, w, estimator):
    series = series_from(block)
    returns = log_returns(series)
    window = min(10, len(returns))
    rolling = rolling_six(series, w, window=window, step=2, estimator=estimator)
    rhos = [window_rhos(returns[start:stop], estimator)[0, 1]
            for start, stop in rolling_windows(len(returns), window, 2)]
    assert [e.six.hex() for e in rolling.entries] == [r.hex() for r in rhos if not math.isnan(r)]


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
    m = spearman_matrix(x)
    assert np.array_equal(m, m.T)
    assert (np.diag(m) == 1.0).all()
