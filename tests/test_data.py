"""Price ingestion, detrending, log returns, and rolling-window SIX."""

import datetime as dt
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcm.copula import make_rng
from wcm.data import (
    LoadReport,
    PriceSeries,
    detrend_by_index,
    load_prices,
    log_returns,
    rolling_six,
    rolling_windows,
)
from wcm.errors import DimensionError, DomainError, WcmError
from wcm.indices import gaussian_spearman


def dates_from(n: int, start: dt.date = dt.date(2020, 1, 1)) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def prices_from_returns(returns: np.ndarray, start: float = 100.0) -> np.ndarray:
    levels = np.vstack([np.zeros(returns.shape[1]), np.cumsum(returns, axis=0)])
    return start * np.exp(levels)


def gaussian_returns(n: int, corr: np.ndarray, seed: int, scale: float = 0.02) -> np.ndarray:
    rng = make_rng(seed)
    chol = np.linalg.cholesky(corr)
    return scale * rng.standard_normal((n, corr.shape[0])) @ chol.T


def series_from_returns(returns: np.ndarray, tickers=None, index=None) -> PriceSeries:
    prices = prices_from_returns(returns)
    tickers = tickers or tuple(f"T{k}" for k in range(prices.shape[1]))
    return PriceSeries(dates_from(len(prices)), tuple(tickers), prices, market_index=index)


class TestLoadPrices:
    def write(self, tmp_path, text):
        path = tmp_path / "prices.csv"
        path.write_text(text)
        return path

    def test_clean_file(self, tmp_path):
        lines = ["date,AAA,BBB,CCC"]
        for i in range(100):
            day = dt.date(2021, 1, 1) + dt.timedelta(days=i)
            lines.append(f"{day},{10 + i},{20 + i},{30 + i}")
        series = load_prices(self.write(tmp_path, "\n".join(lines)))
        assert series.n == 100
        assert series.d == 3
        assert series.load_report.rows_dropped == 0

    def test_non_positive_row_dropped_and_counted(self, tmp_path):
        text = "date,A,B\n2021-01-01,1,2\n2021-01-02,-1,2\n2021-01-03,3,4\n"
        series = load_prices(self.write(tmp_path, text))
        assert series.n == 2
        assert series.load_report.rows_dropped == 1
        assert series.load_report.dropped[0][0] == "2021-01-02"

    def test_missing_cell_dropped(self, tmp_path):
        text = "date,A,B\n2021-01-01,1,2\n2021-01-02,,2\n"
        series = load_prices(self.write(tmp_path, text))
        assert series.n == 1
        assert series.load_report.rows_dropped == 1

    def test_wrong_arity_row_dropped(self, tmp_path):
        text = "date,A,B\n2021-01-01,1,2\n2021-01-02,3\n2021-01-03,4,5,6\n"
        series = load_prices(self.write(tmp_path, text))
        assert series.n == 1
        assert series.load_report.rows_dropped == 2
        assert {reason for _, reason in series.load_report.dropped} == {
            "wrong number of cells"
        }

    def test_unsorted_dates_error(self, tmp_path):
        text = "date,A\n2021-01-02,1\n2021-01-01,2\n"
        with pytest.raises(DomainError, match="not sorted"):
            load_prices(self.write(tmp_path, text))

    def test_duplicate_dates_error(self, tmp_path):
        text = "date,A\n2021-01-01,1\n2021-01-01,2\n"
        with pytest.raises(DomainError, match="duplicate"):
            load_prices(self.write(tmp_path, text))

    def test_malformed_date_error(self, tmp_path):
        text = "date,A\n01/02/2021,1\n"
        with pytest.raises(DomainError, match="malformed date"):
            load_prices(self.write(tmp_path, text))

    def test_index_column_extracted(self, tmp_path):
        text = "date,A,SPX,B\n2021-01-01,1,10,2\n2021-01-02,2,20,3\n"
        series = load_prices(self.write(tmp_path, text), index_column="SPX")
        assert series.tickers == ("A", "B")
        assert np.array_equal(series.market_index, [10.0, 20.0])

    def test_unknown_index_column(self, tmp_path):
        text = "date,A\n2021-01-01,1\n"
        with pytest.raises(DomainError, match="index column"):
            load_prices(self.write(tmp_path, text), index_column="SPX")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,A,B\n2021-01-01,1,2\n2021-01-02,3,4\n")
        series = load_prices(path)
        assert (series.tickers, series.n) == (("A", "B"), 2)

    @pytest.mark.parametrize("header", ["date,A,A", "date,A,", "date,A,,B", "date,A, A "])
    def test_empty_or_repeated_ticker_error(self, tmp_path, header):
        text = header + "\n2021-01-01,1,2\n"
        with pytest.raises(DomainError, match="nonempty and distinct"):
            load_prices(self.write(tmp_path, text), index_column="A")


# Cells of a fuzzed price table, each tagged with whether it is a usable price.
_GOOD_CELLS = st.floats(1e-3, 1e6).map(repr) | st.sampled_from(["1", " 2.5 ", "3e2"])
_BAD_CELLS = st.sampled_from(["", " ", "abc", "-1", "0", "nan", "inf", "-inf", "1e400", "1e-400"])
_CELLS = st.one_of(*[_GOOD_CELLS.map(lambda c: (c, True))] * 3,
                   _BAD_CELLS.map(lambda c: (c, False)))


@st.composite
def price_tables(draw):
    """A price CSV with BOMs, trailing commas, blank lines, malformed cells and
    dates, repeated or unsorted dates and repeated tickers, plus the
    ``LoadReport`` it must give, or None if it must be rejected."""
    names = draw(st.lists(st.sampled_from(["A", "B", "C", "SPX"]), min_size=1, max_size=4))
    header = ["date", *names] + [""] * draw(st.booleans())  # a trailing comma
    valid = "" not in header[1:] and len(set(header[1:])) == len(header[1:])
    lines, rows, day = [",".join(header)], [], dt.date(2021, 1, 1)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", ",,", "  "])))  # blank: not read
            continue
        day += dt.timedelta(days=draw(st.sampled_from([1, 1, 1, 2, 0, -1])))
        date_ok = draw(st.integers(0, 19)) > 0
        date = day.isoformat() if date_ok else draw(st.sampled_from(["2021-13-01", "x"]))
        cells = draw(st.lists(_CELLS, min_size=len(names) - 1, max_size=len(names) + 1))
        cells += [("", False)] * draw(st.booleans())  # a trailing comma
        lines.append(",".join([date, *(c for c, _ in cells)]))
        rows.append((date, date_ok, len(cells) == len(header) - 1, all(ok for _, ok in cells)))
    text = "\n".join(lines) + "\n" * draw(st.booleans())
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    dropped = tuple((date, "wrong number of cells" if not arity else
                     "missing or non-positive price")
                    for date, _, arity, prices in rows if not (arity and prices))
    kept = [date for date, _, arity, prices in rows if arity and prices]
    valid = valid and all(ok for _, ok, _, _ in rows) and kept and all(
        a < b for a, b in zip(kept, kept[1:]))
    report = LoadReport(len(rows), len(kept), dropped) if valid else None
    return bom + text.encode(), report


@settings(max_examples=300, deadline=None)
@given(price_tables())
def test_load_prices_fuzz(table):
    content, report = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(content)
        if report is None:
            with pytest.raises(WcmError):
                load_prices(path)
        else:
            series = load_prices(path)
            assert series.load_report == report
            assert series.n == report.rows_kept


class TestDetrend:
    def test_division(self):
        series = PriceSeries(
            dates_from(2), ("A", "B"),
            np.array([[10.0, 20.0], [12.0, 24.0]]),
            market_index=np.array([4.0, 8.0]),
        )
        out = detrend_by_index(series)
        assert np.allclose(out.prices, [[2.5, 5.0], [1.5, 3.0]])

    def test_identity_index_is_noop(self):
        prices = np.array([[10.0, 20.0], [12.0, 24.0]])
        series = PriceSeries(dates_from(2), ("A", "B"), prices,
                             market_index=np.ones(2))
        assert np.array_equal(detrend_by_index(series).prices, prices)

    def test_requires_index(self):
        series = PriceSeries(dates_from(2), ("A",), np.array([[1.0], [2.0]]))
        with pytest.raises(DomainError):
            detrend_by_index(series)


class TestLogReturns:
    def test_constant_prices(self):
        series = PriceSeries(dates_from(5), ("A",), np.full((5, 1), 7.0))
        assert np.array_equal(log_returns(series), np.zeros((4, 1)))

    def test_single_step(self):
        series = PriceSeries(dates_from(2), ("A",), np.array([[1.0], [math.e]]))
        assert log_returns(series)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_geometric_series(self):
        r = 1.07
        prices = np.array([[r**k] for k in range(6)])
        series = PriceSeries(dates_from(6), ("A",), prices)
        assert np.allclose(log_returns(series), math.log(r), atol=1e-12)


class TestRollingWindows:
    def test_boundary_example(self):
        assert rolling_windows(10, 4, 3) == [(0, 4), (3, 7), (6, 10)]

    def test_count_formula(self):
        for n, window, step in ((100, 10, 1), (100, 10, 7), (57, 13, 5)):
            windows = rolling_windows(n, window, step)
            assert len(windows) == (n - window) // step + 1
            assert windows[0] == (0, window)
            assert all(stop - start == window for start, stop in windows)

    def test_window_too_long(self):
        with pytest.raises(DimensionError):
            rolling_windows(5, 6, 1)


class TestRollingSix:
    def test_gaussian_copula_returns_match_arcsine_value(self):
        # per-window noise at n=84 is sizeable (SD ~ 0.03), so the windows are
        # non-overlapping and the seed is pinned
        corr = np.full((3, 3), 0.8)
        np.fill_diagonal(corr, 1.0)
        series = series_from_returns(gaussian_returns(253, corr, seed=16))
        expected = gaussian_spearman(0.8)
        for estimator in ("rank", "lognormal"):
            rolling = rolling_six(series, (1, 1, 1), window=84, step=84,
                                  estimator=estimator)
            assert len(rolling.entries) == 3
            for entry in rolling.entries:
                assert abs(entry.six - expected) < 0.05, (estimator, entry)

    def test_comonotonic_returns_give_exactly_one(self):
        rng = make_rng(22)
        column = 0.01 * rng.standard_normal((120, 1))
        series = series_from_returns(np.tile(column, (1, 3)))
        rolling = rolling_six(series, window=30, step=10)
        assert rolling.entries
        assert all(entry.six == 1.0 for entry in rolling.entries)

    def test_independent_returns_near_zero(self):
        series = series_from_returns(gaussian_returns(300, np.eye(3), seed=23))
        rolling = rolling_six(series, window=84, step=12)
        for entry in rolling.entries:
            assert abs(entry.six) < 3.0 / math.sqrt(84)

    def test_end_dates_and_counts(self):
        series = series_from_returns(gaussian_returns(50, np.eye(2), seed=24))
        rolling = rolling_six(series, window=10, step=5)
        returns_len = series.n - 1
        assert len(rolling.entries) == (returns_len - 10) // 5 + 1
        assert rolling.entries[0].end_date == series.dates[10]
        assert rolling.to_json_dict()["entries"][0]["n_window"] == 10

    def test_weight_dimension_check(self):
        series = series_from_returns(gaussian_returns(40, np.eye(2), seed=25))
        with pytest.raises(DimensionError):
            rolling_six(series, (1, 1, 1), window=10)

    def test_one_ticker_is_a_dimension_error(self):
        series = series_from_returns(gaussian_returns(20, np.eye(1), seed=26))
        for w in (None, (1.0,)):
            with pytest.raises(DimensionError, match="series has 1"):
                rolling_six(series, w, window=5)

    def test_power_scale_price_transforms_leave_rank_six_identical(self):
        """Per-column maps c * x**a act affinely on log returns, so window
        ranks (hence rank-SIX) cannot move."""
        corr = np.full((3, 3), 0.5)
        np.fill_diagonal(corr, 1.0)
        series = series_from_returns(gaussian_returns(200, corr, seed=26))
        base = rolling_six(series, window=60, step=20)
        transformed = PriceSeries(
            series.dates,
            series.tickers,
            np.column_stack([
                2.0 * series.prices[:, 0] ** 1.7,
                0.5 * series.prices[:, 1] ** 0.3,
                9.0 * series.prices[:, 2] ** 2.5,
            ]),
        )
        moved = rolling_six(transformed, window=60, step=20)
        assert [e.six for e in moved.entries] == [e.six for e in base.entries]
        # ... while the correlation-based estimator is free to move under a
        # non-affine (in log space) shift of one column.
        lognormal_base = rolling_six(series, window=60, step=20, estimator="lognormal")
        shifted = PriceSeries(
            series.dates, series.tickers,
            series.prices + np.array([50.0, 0.0, 0.0]),
        )
        lognormal_shifted = rolling_six(shifted, window=60, step=20, estimator="lognormal")
        assert [e.six for e in lognormal_shifted.entries] != [
            e.six for e in lognormal_base.entries
        ]

    def test_detrending_by_own_column_drops_its_pairs(self):
        corr = np.full((3, 3), 0.4)
        np.fill_diagonal(corr, 1.0)
        returns = gaussian_returns(150, corr, seed=27)
        prices = prices_from_returns(returns)
        series = PriceSeries(
            dates_from(len(prices)), ("A", "B", "C"), prices,
            market_index=prices[:, 0].copy(),
        )
        detrended = rolling_six(detrend_by_index(series), window=50, step=25)
        assert detrended.entries
        assert all(entry.n_pairs == 1 for entry in detrended.entries)
        assert detrended.pairs_dropped == 2 * len(detrended.entries)
        # the surviving pair must equal the two-column run, untouched
        sub = PriceSeries(
            dates_from(len(prices)), ("B", "C"),
            prices[:, 1:] / prices[:, :1],
        )
        sub_rolling = rolling_six(sub, window=50, step=25)
        assert [e.six for e in detrended.entries] == [e.six for e in sub_rolling.entries]

    def test_all_pairs_constant_skips_windows(self):
        series = PriceSeries(dates_from(40), ("A", "B"),
                             np.full((40, 2), 5.0) * np.array([1.0, 2.0]))
        rolling = rolling_six(series, window=10, step=10)
        assert not rolling.entries
        assert len(rolling.skipped) == 3
        assert rolling.pairs_dropped == 3

    def test_bound_flagging(self):
        series = series_from_returns(gaussian_returns(60, np.eye(2), seed=28))
        rolling = rolling_six(series, window=20, step=20)
        lower, upper = -1.0, 1.0
        for entry in rolling.entries:
            assert entry.within_bounds == (lower <= entry.six <= upper)

    def test_csv_and_json_output(self):
        series = series_from_returns(gaussian_returns(40, np.eye(2), seed=29))
        rolling = rolling_six(series, window=10, step=10)
        lines = rolling.csv_text().strip().split("\n")
        assert lines[0] == "end_date,six,estimator,n_window"
        assert len(lines) == 1 + len(rolling.entries)
        assert lines[1] == f"{rolling.entries[0].end_date},{rolling.entries[0].six!r},rank,10"
        payload = rolling.to_json_dict()
        assert payload["window"] == 10
        assert payload["estimator"] == "rank"
        assert len(payload["entries"]) == len(rolling.entries)

    def test_rejects_unknown_estimator(self):
        series = series_from_returns(gaussian_returns(40, np.eye(2), seed=30))
        with pytest.raises(DomainError):
            rolling_six(series, window=10, estimator="kendall")
