"""Price-series ingestion, market-index detrending, log returns, and
rolling-window SIX estimation.

The input is a CSV with a ``date`` column (ISO-8601, strictly increasing) and
one strictly positive price column per asset; one column may be designated as
the market index.  Estimation runs on log returns.  The ``rank`` estimator
applies the rank-based SIX to each window; the ``lognormal`` estimator
computes sample correlations of log returns and maps them through the
Gaussian-copula arcsine identity.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, DomainError
from .indices import (centred_correlation, gaussian_spearman, midranks, pair_weight_matrix,
                      rank_six, weighted_six)
from .weights import WeightVector, as_weight_vector

__all__ = [
    "PriceSeries",
    "LoadReport",
    "WindowSix",
    "RollingSixSeries",
    "load_prices",
    "detrend_by_index",
    "log_returns",
    "rolling_windows",
    "rolling_six",
]

DEFAULT_WINDOW = 84  # "four months" of observations at ~21 trading days/month

# Rolling rank windows slide their ranks (``_rolling_ranks``) when they start
# at most this many rows apart, and are ranked afresh otherwise.  On an 84 x 30
# window, ``midranks`` took 205-248 us, as long as 7 one-row slides (205-224
# us); the crossover was about 5 rows at 21-row windows and 7 at 168 rows.
SLIDE_ROWS = 6


@dataclass(frozen=True)
class LoadReport:
    """The nonblank rows of a price CSV, and how many of them ``load_prices`` dropped."""

    rows_read: int
    rows_dropped: int


@dataclass(frozen=True)
class PriceSeries:
    """Dated multi-asset price table with an optional aligned market index."""

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray
    market_index: np.ndarray | None = None
    load_report: LoadReport | None = None

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 2 or prices.shape != (len(self.dates), len(self.tickers)):
            raise DimensionError(
                f"prices shape {prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if np.any(prices <= 0.0) or not np.all(np.isfinite(prices)):
            raise DomainError("prices must be finite and strictly positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if a == b:
                raise DomainError(f"duplicate date {a}")
            if not a < b:
                raise DomainError(f"dates are not sorted ({a} then {b}); refusing to reorder")
        if self.market_index is not None:
            idx = np.asarray(self.market_index, dtype=float)
            if idx.shape != (len(self.dates),):
                raise DimensionError("market index must align with the dates")
            if np.any(idx <= 0.0) or not np.all(np.isfinite(idx)):
                raise DomainError("market index must be finite and strictly positive")
            object.__setattr__(self, "market_index", idx)
        object.__setattr__(self, "prices", prices)

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def d(self) -> int:
        return len(self.tickers)


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DomainError(f"malformed date {text!r}: {exc}") from exc


def load_prices(path, index_column: str | None = None) -> PriceSeries:
    """Read a price CSV (header ``date,<ticker>,...``) into a PriceSeries.

    Rows with a wrong cell count or a missing, malformed or non-positive price
    are dropped and counted in ``load_report.rows_dropped``.  Duplicate dates
    and out-of-order dates are errors, not silently repaired, and so are empty
    or repeated ticker names.  A leading UTF-8 byte-order mark is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "date":
            raise DomainError(f"{path}: first column must be 'date', got {header[:1]!r}")
        tickers = [h.strip() for h in header[1:]]
        if len(tickers) < 1:
            raise DomainError(f"{path}: no price columns")
        if "" in tickers or len(set(tickers)) < len(tickers):
            raise DomainError(f"{path}: ticker names must be nonempty and distinct, got {tickers}")
        if index_column is not None and index_column not in tickers:
            raise DomainError(f"{path}: index column {index_column!r} not in {tickers}")
        dates: list[dt.date] = []
        cells: list[list[float]] = []
        unparsed = [math.nan] * len(tickers)
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            values = unparsed
            if len(record) - 1 == len(tickers):
                try:  # float() strips the whitespace str.strip() does
                    values = list(map(float, record[1:]))
                except ValueError:
                    pass
            dates.append(_parse_date(record[0]))
            cells.append(values)
    table = np.array(cells).reshape(len(dates), len(tickers))
    usable = ((table > 0.0) & (table < math.inf)).all(axis=1)
    kept = int(np.count_nonzero(usable))
    if not kept:
        raise DomainError(f"{path}: no usable rows")
    report = LoadReport(rows_read=len(dates), rows_dropped=len(dates) - kept)
    table = table[usable]
    market_index = None
    if index_column is not None:
        pos = tickers.index(index_column)
        market_index = table[:, pos]
        table = np.delete(table, pos, axis=1)
        tickers = tickers[:pos] + tickers[pos + 1:]
    return PriceSeries(
        dates=tuple(date for date, ok in zip(dates, usable) if ok),
        tickers=tuple(tickers),
        prices=table,
        market_index=market_index,
        load_report=report,
    )


def detrend_by_index(p: PriceSeries) -> PriceSeries:
    """Divide every price by the market index on the same date."""
    if p.market_index is None:
        raise DomainError("no market index attached to this series")
    return PriceSeries(
        dates=p.dates,
        tickers=p.tickers,
        prices=p.prices / p.market_index[:, None],
        market_index=p.market_index,
        load_report=p.load_report,
    )


def log_returns(p: PriceSeries) -> np.ndarray:
    """Row ``t`` is ``ln(P_{t+1} / P_t)`` per ticker; shape ``(n-1, d)``."""
    if p.n < 2:
        raise DimensionError("need at least 2 price rows for returns")
    logs = np.log(p.prices)
    return np.diff(logs, axis=0)


def rolling_windows(n: int, window: int, step: int) -> list[tuple[int, int]]:
    """Half-open index ranges ``[start, start + window)`` advancing by ``step``:
    exactly ``floor((n - window) / step) + 1`` of them."""
    if window < 1 or step < 1:
        raise DomainError("window and step must be >= 1")
    if window < 2:
        raise DomainError("window must be >= 2: a rank correlation needs two rows")
    if window > n:
        raise DimensionError(f"window {window} exceeds series length {n}")
    return [(s, s + window) for s in range(0, n - window + 1, step)]


@dataclass(frozen=True)
class WindowSix:
    end_date: dt.date
    six: float
    n_pairs: int


@dataclass(frozen=True)
class RollingSixSeries:
    """Per-window SIX values; windows index return rows, and each window is
    stamped with the price date of its last return.  ``pairs_dropped`` counts
    the pairs left out over all windows (constant columns)."""

    weights: tuple[float, ...]
    window: int
    step: int
    estimator: str
    entries: tuple[WindowSix, ...]
    skipped: tuple[tuple[dt.date, str], ...] = field(default_factory=tuple)
    pairs_dropped: int = 0

    def csv_text(self) -> str:
        """Header ``end_date,six,estimator,n_window`` and one row per window.  No
        field needs quoting, so this is the text ``csv.writer`` would write."""
        tail = f",{self.estimator},{self.window}\n"
        return "end_date,six,estimator,n_window\n" + "".join(
            f"{e.end_date.isoformat()},{e.six!r}{tail}" for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "window": self.window,
            "step": self.step,
            "estimator": self.estimator,
            "entries": [
                {
                    "end_date": e.end_date.isoformat(),
                    "six": e.six,
                    "estimator": self.estimator,
                    "n_window": self.window,
                    "n_pairs": e.n_pairs,
                }
                for e in self.entries
            ],
            "skipped": [[d.isoformat(), reason] for d, reason in self.skipped],
            "pairs_dropped": self.pairs_dropped,
        }


def _window_pair_rhos(ranks: np.ndarray, window_six) -> tuple[float, int]:
    """One rank window's SIX and pair count from its mid-ranks centred on
    ``(n + 1) / 2``, by ``window_six``, a ``rank_six`` kernel.  The name is from
    when this call gave the window's rho matrix: the traced bench still times
    it under that name as the ``indices.spearman_matrix`` stage."""
    return window_six(ranks)


def _lognormal_pair_rhos(block: np.ndarray) -> np.ndarray:
    """One window's ``d x d`` matrix of Gaussian-copula Spearman's rhos: the
    returns' Pearson correlations, those within ``n * eps`` of +/-1 (finer than
    the Gram's rounding) set to +/-1, through ``gaussian_spearman``.  A pair
    touching a constant column is NaN: a centred constant column need not be
    exactly zero, so the columns constant in the returns are set to 0.0 after
    centring and ``centred_correlation`` gives their pairs 0/0."""
    centred = block - block.mean(axis=0)
    centred[:, np.ptp(block, axis=0) == 0.0] = 0.0
    rho = centred_correlation(centred)
    linear = np.abs(rho) >= 1.0 - len(block) * np.finfo(float).eps
    rho[linear] = np.sign(rho[linear])
    kept = ~np.isnan(rho)
    rho[kept] = gaussian_spearman(rho[kept])
    return rho


def _lognormal_six(w: WeightVector):
    """The ``lognormal`` counterpart of ``rank_six``, on a window of returns:
    ``weighted_six`` of its ``_lognormal_pair_rhos``, with the varying columns'
    own ``pair_weight_matrix`` where the weights of the pairs left round to 0."""
    pair_w = pair_weight_matrix(w)

    def window_six(block: np.ndarray) -> tuple[float, int]:
        rho = _lognormal_pair_rhos(block)
        value, n_pairs = weighted_six(rho, pair_w)
        if n_pairs and math.isnan(value):
            keep = ~np.isnan(rho.diagonal())
            sub_w = pair_weight_matrix(np.compress(keep, w.values))
            value = weighted_six(rho[np.ix_(keep, keep)], sub_w)[0]
        return value, n_pairs

    return window_six


def _rolling_ranks(returns: np.ndarray, windows: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """Each window's mid-ranks centred on ``(n + 1) / 2``, in ring-buffer row
    order; one array is updated in place, so read it before the next.

    A window that overlaps the previous one and starts at most ``SLIDE_ROWS``
    rows after it slides; any other is ranked afresh.  For each row ``old``
    out and ``new`` in, the rank of every other row ``x`` changes
    by ``(sign(x - new) - sign(x - old)) / 2``, and ``new`` takes ``old``'s
    slot with rank ``-sum(sign(x - new)) / 2`` over the new window.  Centred
    mid-ranks are multiples of 1/2, so every step is exact and the ranks are
    the bits ``midranks`` gives, zeros included as +0.0.
    """
    n = windows[0][1] - windows[0][0]
    prev_stop = None
    for start, stop in windows:
        if prev_stop is None or stop - prev_stop > min(SLIDE_ROWS, n - 1):
            win = returns[start:stop].copy()
            ranks = midranks(win) - 0.5 * (n + 1)
            head = 0
        else:
            for new in returns[prev_stop:stop]:
                gone = np.sign(win - win[head])
                win[head] = new
                came = np.sign(win - new)
                ranks += 0.5 * (came - gone)
                ranks[head] = 0.0 - 0.5 * came.sum(axis=0)  # 0.0 - x: never -0.0
                head = (head + 1) % n
        prev_stop = stop
        yield ranks


def rolling_six(
    p: PriceSeries,
    w: "WeightVector | Iterable[float] | None" = None,
    window: int = DEFAULT_WINDOW,
    step: int = 1,
    estimator: str = "rank",
) -> RollingSixSeries:
    """SIX per rolling window of log returns.

    Pairs whose columns are constant inside a window are dropped from the
    weighted average, so a window's SIX is the SIX of its varying columns,
    and it lies within the sharp bounds of their weights.  A window with no
    valid pair left is skipped.  Both are counted in the result
    (``pairs_dropped``, ``skipped``), not warned about.  Each ``rank`` window
    is one ``rank_six`` call on ranks slid from the window before; each
    ``lognormal`` window takes ``weighted_six`` of its arcsine-mapped Pearson
    rhos.
    """
    if estimator not in ("rank", "lognormal"):
        raise DomainError(f"estimator must be 'rank' or 'lognormal', got {estimator!r}")
    if p.d < 2:
        raise DimensionError(f"SIX needs at least 2 tickers, the series has {p.d}")
    wv = as_weight_vector(w if w is not None else (1.0,) * p.d)
    if wv.d != p.d:
        raise DimensionError(f"weights have d={wv.d} but series has {p.d} tickers")
    returns = log_returns(p)
    window_six = rank_six(wv) if estimator == "rank" else _lognormal_six(wv)
    all_pairs = p.d * (p.d - 1) // 2
    entries: list[WindowSix] = []
    skipped: list[tuple[dt.date, str]] = []
    pairs_dropped = 0
    windows = rolling_windows(len(returns), window, step)
    if estimator == "rank":
        sixes = (_window_pair_rhos(ranks, window_six) for ranks in _rolling_ranks(returns, windows))
    else:
        sixes = (window_six(returns[start:stop]) for start, stop in windows)
    for (_, stop), (value, n_pairs) in zip(windows, sixes):
        end_date = p.dates[stop]  # return row t uses prices t and t+1
        pairs_dropped += all_pairs - n_pairs
        if n_pairs:
            entries.append(WindowSix(end_date, value, n_pairs))
        else:
            skipped.append((end_date, "no valid pairs (constant columns)"))
    return RollingSixSeries(
        weights=wv.values,
        window=window,
        step=step,
        estimator=estimator,
        entries=tuple(entries),
        skipped=tuple(skipped),
        pairs_dropped=pairs_dropped,
    )
