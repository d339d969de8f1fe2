"""The matrix kernels of ``wcm.indices`` against the per-pair loops they
replaced (kept in ``helpers`` as oracles): mid-ranks, one Gram product per
window, the rolling ranks that slide from window to window, and the arcsine
map on arrays; the rank SIX of a window as one normalised variance, exact
where the window's varying columns share one sum of squares and otherwise
within ``RANK_SIX_TOL`` of the Gram path it replaced; and the SIX of a rho
matrix as ``1 - q / P``, within ``MATRIX_SIX_TOL`` of the fsum average it
replaced."""

import datetime as dt
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from helpers import (
    gaussian_spearman_oracle,
    pair_weight_matrix,
    rank_six_exact,
    rank_six_gram_oracle,
    six_from_pairs_oracle,
    weighted_six,
    window_pair_rhos_oracle,
)
import wcm.data
from wcm.data import (SLIDE_ROWS, PriceSeries, _lognormal_pair_rhos, _rolling_ranks,
                      _window_pair_rhos, log_returns, rolling_six, rolling_windows)
from wcm.errors import DomainError
from wcm.indices import (
    centred_correlation,
    gaussian_spearman,
    matrix_six,
    midranks,
    rank_six,
    six,
    six_bounds,
    six_lognormal,
    spearman_matrix,
)

# How far the rank SIX of a window with ties, ``matrix_six`` on its Gram rhos,
# may lie from the Gram path it replaced (``helpers.rank_six_gram_oracle``).
# Fitted on 20000 random tied windows (n 3-89, d 3-30, equal, uniform,
# one-dominant and every-scale weights): at most 7.8e-16 (3.5 eps), and 8.4e-16
# on 80000 more; against a 200-bit value it was within 7.5e-16 and the Gram
# path within 1.3e-16.
RANK_SIX_TOL = 1e-15

# How far the SIX of a rho matrix may lie from the fsum average it replaced
# (``helpers.weighted_six`` on the varying columns).  On 20000 arcsine-mapped
# correlation matrices (d 2-60, a fifth of the columns NaN, weights in
# [0.01, 1] with 1e-200 or 2**-1073 among them) it was at most 3.0 eps; on
# 300 of them, at most 2.6 eps from the exact average of the same rhos.
MATRIX_SIX_TOL = 4 * np.finfo(float).eps


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
    """A window's rho matrix: ``centred_correlation`` of the block's centred
    mid-ranks for ``rank``, the kernel ``rolling_six`` runs for ``lognormal``."""
    if estimator == "rank":
        return centred_correlation(midranks(block) - 0.5 * (len(block) + 1))
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


def shares_one_sum_of_squares(block):
    """Whether the varying columns of a window share one sum of squares of
    their centred mid-ranks, where ``rank_six`` is exact."""
    ranks = midranks(block) - 0.5 * (len(block) + 1)
    g = (ranks * ranks).sum(axis=0)
    return len(set(g[g > 0.0].tolist())) == 1


def assert_exact_or_within_tolerance(value, block, w, want):
    """``value`` is ``rank_six_exact`` bit for bit where the window's varying
    columns share one sum of squares, and within ``RANK_SIX_TOL`` of ``want``
    otherwise."""
    if shares_one_sum_of_squares(block):
        assert value.hex() == float(rank_six_exact(block, w)).hex()
    else:
        assert abs(value - want) <= RANK_SIX_TOL


@settings(max_examples=100, deadline=None)
@given(blocks(max_n=60, max_d=8), st.integers(0, 2**32 - 1), st.integers(5, 20))
def test_rolling_rank_six_matches_per_pair_path_within_tolerance(block, seed, window):
    w = np.random.default_rng(seed).uniform(0.1, 10.0, block.shape[1]).tolist()
    series = series_from(block)
    returns = log_returns(series)
    window = min(window, len(returns))
    rolling = rolling_six(series, w, window=window, step=3)
    entries, dropped = iter(rolling.entries), 0
    for start in range(0, len(returns) - window + 1, 3):
        block = returns[start:start + window]
        pairs, rhos, skipped = window_pair_rhos_oracle(block, "rank")
        dropped += len(skipped)
        if pairs:
            entry = next(entries)
            assert entry.n_pairs == len(pairs)
            assert_exact_or_within_tolerance(entry.six, block, w,
                                             six_from_pairs_oracle(pairs, rhos, w)[0])
    assert next(entries, None) is None
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
    window_six = rank_six(w)
    by_window, skipped, dropped = [], [], 0
    windows = rolling_windows(len(returns), window, step)
    for (start, stop), centred in zip(windows, _rolling_ranks(returns, windows)):
        block = returns[start:stop]
        # the slid ranks are midranks' bits (signed zeros too) in ring order
        want = midranks(block) - 0.5 * (window + 1)
        assert np.sort(centred, axis=0).tobytes() == np.sort(want, axis=0).tobytes()
        # and the kernel does not depend on the row order
        value, n_pairs = _window_pair_rhos(centred, window_six)
        fresh, fresh_pairs = window_six(want)
        assert (value.hex(), n_pairs) == (fresh.hex(), fresh_pairs)
        pairs, rhos, left_out = window_pair_rhos_oracle(block, "rank")
        assert n_pairs == len(pairs)
        dropped += len(left_out)
        if pairs:
            by_window.append((value.hex(), len(pairs)))
            assert_exact_or_within_tolerance(value, block, w,
                                             six_from_pairs_oracle(pairs, rhos, w)[0])
        else:
            skipped.append(series.dates[stop])
    assert [(e.six.hex(), e.n_pairs) for e in rolling.entries] == by_window
    assert [date for date, _ in rolling.skipped] == skipped
    assert rolling.pairs_dropped == dropped


@st.composite
def weights_of_any_scale(draw, d):
    """``d`` weights ``m * 2**e``, ``m`` in [1, 2), as far apart as
    ``WeightVector`` and the SIX kernels take them: the largest exponent from
    -1074 to 1018 (so 30 weights sum below the largest float), the others down
    to 1073 below it, where ``unit_scaled`` still keeps them above 0."""
    top = draw(st.integers(-1074, 1018))
    exponents = [top] + draw(st.lists(st.integers(max(-1074, top - 1073), top),
                                      min_size=d - 1, max_size=d - 1))
    mantissas = draw(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=d, max_size=d))
    return draw(st.permutations([math.ldexp(m, e) for m, e in zip(mantissas, exponents)]))


@settings(max_examples=300, deadline=None)
@given(rolling_cases(), st.data())
def test_rank_six_is_exact_where_the_varying_columns_share_one_sum_of_squares(case, data):
    series, window, step, w = case
    w = data.draw(weights_of_any_scale(len(w)) | st.just(w))
    rolling = rolling_six(series, w, window=window, step=step)
    entries = {e.end_date: e.six for e in rolling.entries}
    returns = log_returns(series)
    for start, stop in rolling_windows(len(returns), window, step):
        block = returns[start:stop]
        if series.dates[stop] in entries and shares_one_sum_of_squares(block):
            assert entries[series.dates[stop]].hex() == float(rank_six_exact(block, w)).hex()


@st.composite
def tied_windows(draw):
    """A window with ties whose varying columns, at least three, do not all
    share one sum of squares, and weights: uniform, one far heavier than the
    rest, one beside many at 2**-1073, or of any scale."""
    n = draw(st.integers(3, 90))
    d = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, draw(st.sampled_from([2, 3, 5, 7, 20])), size=(n, d)).astype(float)
    assume((np.ptp(block, axis=0) > 0.0).sum() >= 3 and not shares_one_sum_of_squares(block))
    w = draw(st.sampled_from([
        rng.uniform(0.1, 10.0, d).tolist(),
        [1.0] + (10.0 ** rng.uniform(-12.0, -1.0, d - 1)).tolist(),
        [1.0] + [2.0**-1073] * (d - 1),
    ]) | weights_of_any_scale(d))
    return block, draw(st.permutations(w))


@settings(max_examples=500, deadline=None)
@given(tied_windows(), st.data())
def test_tied_window_six_is_within_tolerance_and_ignores_row_order_and_constant_columns(case,
                                                                                     data):
    block, w = case
    ranks = midranks(block) - 0.5 * (len(block) + 1)
    value, n_pairs = rank_six(w)(ranks)
    want, want_pairs = rank_six_gram_oracle(block, w)
    assert n_pairs == want_pairs
    assert abs(value - want) <= RANK_SIX_TOL
    # a tied window is matrix_six on its Gram rhos, bit for bit
    got = matrix_six(w)(centred_correlation(ranks))
    assert (got[0].hex(), got[1]) == (value.hex(), n_pairs)
    # the same bits with the rows in another order and a constant column added
    at = data.draw(st.integers(0, block.shape[1]))
    wider = np.insert(block[data.draw(st.permutations(range(len(block))))], at, 1.0, axis=1)
    got = rank_six(np.insert(w, at, data.draw(st.sampled_from(w))).tolist())(
        midranks(wider) - 0.5 * (len(block) + 1))
    assert (got[0].hex(), got[1]) == (value.hex(), n_pairs)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 120), st.integers(2, 8), st.integers(0, 2**32 - 1), st.booleans(),
       st.data())
def test_comonotone_columns_give_one_and_a_countermonotone_pair_minus_one(n, d, seed, tied,
                                                                         data):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, n).astype(float) if tied else rng.standard_normal(n)
    x[0] = 5.0  # not constant
    w = data.draw(weights_of_any_scale(d)
                  | st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d))
    # increasing transforms of one column, ties and all
    assert six(np.column_stack([x * (k + 1) + k for k in range(d - 1)] + [np.exp(x)]), w) == 1.0
    assert six(np.column_stack((x, -x)), w[:2]) == -1.0


def test_a_tie_free_window_beyond_the_limb_bound_takes_the_float_form():
    # the limbs of k keep every dot exact while n (m (n - 1))^2 < 2**51, up to
    # about 13,000 rows at 30 columns; a longer window without ties takes
    # matrix_six on its Gram rhos, within the tolerance of the Gram path
    rng = np.random.default_rng(5)
    block = rng.standard_normal((14_000, 30))
    w = rng.uniform(0.1, 10.0, 30).tolist()
    ranks = midranks(block) - 0.5 * (len(block) + 1)
    value, n_pairs = rank_six(w)(ranks)
    want, want_pairs = rank_six_gram_oracle(block, w)
    assert n_pairs == want_pairs == 435
    assert abs(value - want) <= RANK_SIX_TOL
    got = matrix_six(w)(centred_correlation(ranks))
    assert (got[0].hex(), got[1]) == (value.hex(), n_pairs)


def windows_by_varying_columns(series, w, window, step, estimator):
    """Each window's entry of ``rolling_six`` with the window's returns and the
    mask of its columns that are not constant, for windows with a pair left."""
    rolling = rolling_six(series, w, window=window, step=step, estimator=estimator)
    entries = {e.end_date: e for e in rolling.entries}
    returns = log_returns(series)
    for start, stop in rolling_windows(len(returns), window, step):
        block = returns[start:stop]
        keep = np.ptp(block, axis=0) > 0.0
        if keep.sum() >= 2:
            yield entries[series.dates[stop]], block, keep


@settings(max_examples=300, deadline=None)
@given(rolling_cases(), st.sampled_from(["rank", "lognormal"]), st.sampled_from([1.0, 1e-200]))
def test_every_window_lies_within_the_sharp_bounds_of_its_varying_columns(case, estimator,
                                                                          scale):
    # a correlation matrix is a Gram matrix of unit vectors, so by the triangle
    # inequality w'rho w >= max(0, 2 w_max - S1)^2: the lower end of six_bounds
    series, window, step, w = case
    w = [w[0]] + [scale * v for v in w[1:]]  # 1e-200: the pair weights left underflow
    for entry, _, keep in windows_by_varying_columns(series, w, window, step, estimator):
        lower, upper = six_bounds(np.compress(keep, w))
        assert lower - 1e-12 <= entry.six <= upper + 1e-12


@settings(max_examples=300, deadline=None)
@given(rolling_cases(), st.sampled_from(["rank", "lognormal"]))
def test_a_window_with_a_dropped_pair_is_the_six_of_its_varying_columns(case, estimator):
    series, window, step, w = case
    for entry, block, keep in windows_by_varying_columns(series, w, window, step, estimator):
        if keep.all():
            continue
        sub, sub_w = block[:, keep], np.compress(keep, w)
        if estimator == "rank":
            want = six(sub, sub_w)
        else:
            want = matrix_six(sub_w)(_lognormal_pair_rhos(sub))[0]
        assert entry.six.hex() == want.hex()


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

        def counted(x, *args):
            calls.append((name, len(x)))
            return original(x, *args)

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
    value, n_pairs = weighted_six(rho, pair_weight_matrix(w))
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
    assert abs(six_lognormal(corr, w) - six_from_pairs_oracle(pairs, rhos, w)[0]) <= MATRIX_SIX_TOL


@st.composite
def masked_rho_matrices(draw):
    """An arcsine-mapped correlation matrix of low to full rank, d 2-60, with
    exact +/-1 and 0 entries and NaN rows and columns for constant columns; and
    weights in [0.01, 1] with 1e-200 and 2**-1073 among them, so the pair
    weights of the varying columns can underflow."""
    d = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.standard_normal((d, draw(st.integers(1, d + 1))))
    factor[:, 0] += draw(st.sampled_from([0.0, 100.0]))  # near comonotone
    common = rng.random(d) < 0.8
    factor[~common] = 0.0  # no common factor: rho 0
    cov = factor @ factor.T + np.diag(~common | (rng.random(d) < 0.5))
    sigmas = np.sqrt(np.diag(cov))
    rho = gaussian_spearman(np.clip(cov / np.outer(sigmas, sigmas), -1.0, 1.0))
    np.fill_diagonal(rho, 1.0)
    constant = rng.random(d) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    rho[constant] = rho[:, constant] = np.nan
    w = rng.uniform(0.01, 1.0, d)
    w[rng.random(d) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = draw(
        st.sampled_from([1e-200, 2.0**-1073]))
    return rho, w.tolist()


@settings(max_examples=300, deadline=None)
@given(masked_rho_matrices())
def test_matrix_six_is_the_fsum_average_of_the_varying_columns(case):
    rho, w = case
    keep = ~np.isnan(rho.diagonal())
    value, n_pairs = matrix_six(w)(rho)
    assert n_pairs == math.comb(int(keep.sum()), 2)
    if n_pairs == 0:
        assert math.isnan(value)
        return
    want = weighted_six(rho[np.ix_(keep, keep)], pair_weight_matrix(np.compress(keep, w)))[0]
    assert type(value) is float and abs(value - want) <= MATRIX_SIX_TOL
    if n_pairs == 1:
        assert value.hex() == want.hex()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8), st.integers(-600, 600),
       st.integers(0, 2**32 - 1))
def test_six_and_its_bounds_do_not_depend_on_a_power_of_two_scale(w, k, seed):
    data = np.random.default_rng(seed).standard_normal((30, len(w)))
    scaled = [math.ldexp(v, k) for v in w]
    assert six(data, scaled) == six(data, w)
    assert six_bounds(scaled) == six_bounds(w)
    corr = np.corrcoef(data, rowvar=False)
    assert six_lognormal(corr, scaled) == six_lognormal(corr, w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(2.0**-1021, 1.0) | st.just(2.0**-1021), min_size=2, max_size=6))
def test_pair_weights_are_rounded_products_scaled_so_the_largest_is_at_least_a_quarter(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair_w = pair_weight_matrix(w)
    pairs = list(itertools.combinations(range(len(w)), 2))
    exact = [Fraction(w[i]) * Fraction(w[j]) for i, j in pairs]
    largest = max(pair_w[i, j] for i, j in pairs)
    assert 0.25 <= largest < 1.0
    # the one power of two 2**k: the rounded largest is within 2**-52 of it
    ratio = Fraction(largest) / max(exact)
    k = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    k += round(math.log2(ratio / Fraction(2) ** k))
    assert [pair_w[i, j] for i, j in pairs] == [float(e * Fraction(2) ** k) for e in exact]


def test_weighted_six_leaves_out_nan_pairs():
    rho = np.array([[1.0, 0.5, np.nan], [0.5, 1.0, np.nan], [np.nan, np.nan, 1.0]])
    pair_w = pair_weight_matrix((1, 2, 3))
    assert weighted_six(rho, pair_w) == (0.5, 1)
    rho[0, 1] = np.nan
    value, n_pairs = weighted_six(rho, pair_w)
    assert math.isnan(value) and n_pairs == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.data())
def test_six_of_one_pair_is_that_pairs_rho(d, data):
    i, j = sorted(data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
    r = data.draw(st.floats(-1.0, 1.0))
    # 1e-200 beside 1: a pair of two such weights rounds to 0
    w = data.draw(st.lists(st.floats(0.01, 100.0) | st.just(1e-200), min_size=d, max_size=d))
    rho = np.full((d, d), np.nan)
    rho[i, j] = rho[j, i] = r
    rho[i, i] = rho[j, j] = 1.0
    value, n_pairs = matrix_six(w)(rho)
    assert (value.hex(), n_pairs) == (r.hex(), 1)


@settings(max_examples=100, deadline=None)
@given(blocks(max_n=60, max_d=2),
       weights_of_any_scale(2) | st.lists(st.floats(0.01, 100.0), min_size=2, max_size=2),
       st.sampled_from(["rank", "lognormal"]))
def test_two_ticker_rolling_six_is_each_windows_rho(block, w, estimator):
    # a tie-free rank window is (|R k|^2 - G S2) / (G (S1^2 - S2)) with the weights
    # in many limbs, R_1 . R_2 / G correctly rounded: centred_correlation's bits
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
