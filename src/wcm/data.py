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
                      six_bounds, weighted_six)
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

_BAD_PRICE = "missing or non-positive price"


@dataclass(frozen=True)
class LoadReport:
    rows_read: int
    rows_kept: int
    dropped: tuple[tuple[str, str], ...]  # (date string, reason)

    @property
    def rows_dropped(self) -> int:
        return len(self.dropped)


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
            if not a < b:
                raise DomainError(f"dates must be strictly increasing ({a} then {b})")
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

    Rows with missing cells or non-positive prices are dropped and counted in
    the load report.  Duplicate dates and out-of-order dates are errors, not
    silently repaired, and so are empty or repeated ticker names.  A leading
    UTF-8 byte-order mark is skipped.
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
        rows: list[tuple[int, str, dt.date]] = []  # (row position, date string, date)
        cells: list[list[float]] = []
        dropped: list[tuple[int, str, str]] = []  # (row position, date string, reason)
        rows_read = 0
        for record in reader:
            if not record or all(not cell.strip() for cell in record):
                continue
            rows_read += 1
            date_text = record[0]
            date = _parse_date(date_text)
            if len(record) - 1 != len(tickers):
                dropped.append((rows_read, date_text, "wrong number of cells"))
                continue
            try:  # float() strips the whitespace str.strip() does
                cells.append(list(map(float, record[1:])))
            except ValueError:
                dropped.append((rows_read, date_text, _BAD_PRICE))
                continue
            rows.append((rows_read, date_text, date))
    table = np.array(cells).reshape(len(rows), len(tickers))
    usable = ((table > 0.0) & (table < math.inf)).all(axis=1)
    if not usable.all():
        dropped += [(pos, text, _BAD_PRICE) for (pos, text, _), ok in zip(rows, usable) if not ok]
        dropped.sort()
        rows = [row for row, ok in zip(rows, usable) if ok]
        table = table[usable]
    if not rows:
        raise DomainError(f"{path}: no usable rows")
    dates = [date for _, _, date in rows]
    seen = set()
    for date in dates:
        if date in seen:
            raise DomainError(f"{path}: duplicate date {date}")
        seen.add(date)
    if dates != sorted(dates):
        raise DomainError(f"{path}: dates are not sorted; refusing to reorder")
    report = LoadReport(rows_read=rows_read, rows_kept=len(rows),
                        dropped=tuple((text, reason) for _, text, reason in dropped))
    market_index = None
    if index_column is not None:
        pos = tickers.index(index_column)
        market_index = table[:, pos]
        table = np.delete(table, pos, axis=1)
        tickers = tickers[:pos] + tickers[pos + 1:]
    return PriceSeries(
        dates=tuple(dates),
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
    within_bounds: bool


@dataclass(frozen=True)
class RollingSixSeries:
    """Per-window SIX values; windows index return rows, and each window is
    stamped with the price date of its last return.  ``pairs_dropped`` counts
    the pairs left out over all windows (constant columns); ``load_report``
    is the price series' own, if it was read from a file."""

    weights: tuple[float, ...]
    window: int
    step: int
    estimator: str
    entries: tuple[WindowSix, ...]
    skipped: tuple[tuple[dt.date, str], ...] = field(default_factory=tuple)
    pairs_dropped: int = 0
    load_report: LoadReport | None = None

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
                    "within_bounds": e.within_bounds,
                }
                for e in self.entries
            ],
            "skipped": [[d.isoformat(), reason] for d, reason in self.skipped],
            "pairs_dropped": self.pairs_dropped,
            "rows_read": self.load_report.rows_read if self.load_report else None,
            "rows_dropped": self.load_report.rows_dropped if self.load_report else None,
        }


def _window_pair_rhos(ranks: np.ndarray) -> np.ndarray:
    """One window's ``d x d`` matrix of Spearman's rhos from its mid-ranks
    centred on ``(n + 1) / 2``, in any row order; a pair touching a column
    constant in the window is NaN.  The traced bench run times this call."""
    return centred_correlation(ranks)


def _lognormal_pair_rhos(block: np.ndarray) -> np.ndarray:
    """One window's ``d x d`` matrix of Gaussian-copula Spearman's rhos: the
    returns' Pearson correlations, those within ``n * eps`` of +/-1 (finer than
    the Gram's rounding) set to +/-1, through ``gaussian_spearman``.  A pair
    touching a constant column is NaN; a centred constant column need not be
    exactly zero, so the constant columns are found from the returns."""
    rho = centred_correlation(block - block.mean(axis=0), np.ptp(block, axis=0) > 0.0)
    linear = np.abs(rho) >= 1.0 - len(block) * np.finfo(float).eps
    rho[linear] = np.sign(rho[linear])
    kept = ~np.isnan(rho)
    rho[kept] = gaussian_spearman(rho[kept])
    return rho


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
    weighted average (the remaining pair weights are renormalized); a window
    with no valid pair left is skipped.  Both are counted in the result
    (``pairs_dropped``, ``skipped``), not warned about.  Values outside the
    sharp bounds get ``within_bounds=False`` (sampling noise, flagged not
    fatal).
    """
    if estimator not in ("rank", "lognormal"):
        raise DomainError(f"estimator must be 'rank' or 'lognormal', got {estimator!r}")
    if p.d < 2:
        raise DimensionError(f"SIX needs at least 2 tickers, the series has {p.d}")
    wv = as_weight_vector(w if w is not None else (1.0,) * p.d)
    if wv.d != p.d:
        raise DimensionError(f"weights have d={wv.d} but series has {p.d} tickers")
    returns = log_returns(p)
    bounds = six_bounds(wv)
    pair_w = pair_weight_matrix(wv)
    all_pairs = p.d * (p.d - 1) // 2
    entries: list[WindowSix] = []
    skipped: list[tuple[dt.date, str]] = []
    pairs_dropped = 0
    windows = rolling_windows(len(returns), window, step)
    if estimator == "rank":
        rhos = map(_window_pair_rhos, _rolling_ranks(returns, windows))
    else:
        rhos = (_lognormal_pair_rhos(returns[start:stop]) for start, stop in windows)
    for (_, stop), rho in zip(windows, rhos):
        end_date = p.dates[stop]  # return row t uses prices t and t+1
        value, within, used = weighted_six(rho, pair_w, bounds)
        n_pairs = int(np.count_nonzero(used))
        pairs_dropped += all_pairs - n_pairs
        if not n_pairs:
            skipped.append((end_date, "no valid pairs (constant columns)"))
            continue
        entries.append(WindowSix(end_date, value, n_pairs, within))
    return RollingSixSeries(
        weights=wv.values,
        window=window,
        step=step,
        estimator=estimator,
        entries=tuple(entries),
        skipped=tuple(skipped),
        pairs_dropped=pairs_dropped,
        load_report=p.load_report,
    )
