"""Seeded synthetic price panels, the only input the benchmark gives `wcm six`.

A panel is a one-factor market: every ticker's log return is a loading on a
common factor plus its own noise, and the market index follows the factor.
On top of the clean prices the generator injects what real files carry:

- malformed rows (an empty cell, text, a negative price, a zero price, a row
  with a cell missing), which the loader must drop and count;
- one ticker halted at a constant price for ``halt_rows`` kept rows, longer
  than a window, so windows wholly inside the halt hold a constant column.

The counts of both are fixed by the spec, not by the seed, so the expected
``rows_dropped`` and ``pairs_dropped`` repeat exactly across seeds; the seed
moves the prices, which ticker halts and where the malformed rows fall.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

# One malformed cell per kind; "short" drops the row's last cell instead.
MALFORMED_KINDS = ("", "n/a", "-12.5", "0", "short")


@dataclass(frozen=True)
class PanelSpec:
    tickers: int
    kept_rows: int  # price rows the loader keeps
    malformed_rows: int
    halt_start: int  # kept-row index of the first halted price
    halt_rows: int  # kept rows the halted ticker holds one price
    index_column: str | None = None


@dataclass(frozen=True)
class Panel:
    dates: tuple[str, ...]  # kept rows only, ISO format
    prices: np.ndarray  # (kept_rows, tickers), exactly as written to the CSV
    index: np.ndarray | None  # (kept_rows,) market index, when the spec has one
    text: str  # the CSV the program reads


def _business_days(count: int) -> list[dt.date]:
    days, day = [], dt.date(2015, 1, 2)
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def make_panel(spec: PanelSpec, seed: int) -> Panel:
    if not 0 < spec.halt_start < spec.halt_start + spec.halt_rows <= spec.kept_rows:
        raise ValueError(f"halt does not fit in {spec.kept_rows} rows")
    rng = np.random.default_rng(seed)
    n, d = spec.kept_rows, spec.tickers
    factor = rng.normal(0.0003, 0.01, n)
    loading = rng.uniform(0.5, 1.5, d)
    log_ret = factor[:, None] * loading + rng.normal(0.0, 0.015, (n, d))
    halted = int(rng.integers(d))
    # Zero log returns keep the halted price bit-for-bit constant.
    log_ret[spec.halt_start + 1 : spec.halt_start + spec.halt_rows, halted] = 0.0
    log_ret[0] = 0.0
    prices = rng.uniform(20.0, 200.0, d) * np.exp(np.cumsum(log_ret, axis=0))
    index = None
    if spec.index_column is not None:
        index = 1000.0 * np.exp(np.cumsum(factor + rng.normal(0.0, 0.002, n)))

    total = n + spec.malformed_rows
    bad = set(rng.choice(np.arange(1, total), spec.malformed_rows, replace=False).tolist())
    tickers = tuple(f"T{j:02d}" for j in range(d))
    header = ["date", *tickers] + ([spec.index_column] if index is not None else [])
    lines = [",".join(header)]
    kept_dates: list[str] = []
    kept = malformed = 0
    for pos, day in enumerate(_business_days(total)):
        if pos in bad:
            width = len(header) - 1
            cells = [repr(float(v)) for v in rng.uniform(20.0, 200.0, width)]
            kind = MALFORMED_KINDS[malformed % len(MALFORMED_KINDS)]
            malformed += 1
            if kind == "short":
                cells.pop()
            else:
                cells[int(rng.integers(width))] = kind
            lines.append(",".join([day.isoformat(), *cells]))
            continue
        row = [repr(float(v)) for v in prices[kept]]
        if index is not None:
            row.append(repr(float(index[kept])))
        lines.append(",".join([day.isoformat(), *row]))
        kept_dates.append(day.isoformat())
        kept += 1
    return Panel(tuple(kept_dates), prices, index, "\n".join(lines) + "\n")


def returns(panel: Panel, detrend: bool) -> np.ndarray:
    """Log returns of the kept rows, index-relative when ``detrend``."""
    prices = panel.prices / panel.index[:, None] if detrend else panel.prices
    return np.diff(np.log(prices), axis=0)


def constant_windows(spec: PanelSpec, window: int, step: int, detrend: bool) -> int:
    """Windows that lie wholly inside the halt, from the spec alone.

    Return row ``t`` spans kept prices ``t`` and ``t + 1``, so the halt makes
    return rows ``[halt_start, halt_start + halt_rows - 1)`` zero.  Dividing by
    the moving index un-freezes the halted price, so detrended windows hold no
    constant column.
    """
    if detrend:
        return 0
    lo, hi = spec.halt_start, spec.halt_start + spec.halt_rows - 1
    starts = range(0, spec.kept_rows - 1 - window + 1, step)
    return sum(1 for s in starts if lo <= s and s + window <= hi)
