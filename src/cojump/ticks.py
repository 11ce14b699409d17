"""Tick ingestion and synchronization onto regular intraday return grids.

Raw trades arrive as CSV rows with user-named columns. They are parsed
with the session's IANA timezone (never guessed) into one sorted array
of wall-clock stamps per instrument, cut into session dates, filtered
by a trading calendar, sampled by the last-tick rule onto an evenly
spaced price grid, and differenced into log-return panels: one row per
interval, one column per instrument. ``write_csv`` writes every output
table of the package, panels included, in one layout.

Grid convention: a session of length T seconds sampled every s seconds
yields N = T/s return intervals and N + 1 grid instants t_0..t_N.
Return i covers (t_i, t_{i+1}], so an event inside interval i is
stamped with the interval's left endpoint t_i. An intraday moment is
held as its grid index i; its wall-clock label depends on the session
alone, because session times are wall-clock times and the grid steps
along the wall clock on every date, DST switches included.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from itertools import islice
from zoneinfo import ZoneInfo

import numpy as np

LOW_TRADE_BIN_SECONDS = 300  # the thin-day rule is always judged on 5-min bins
PARSE_BLOCK_ROWS = 4096  # records per block; a block's accepted trades become numpy arrays
_EPOCH = dt.datetime(1970, 1, 1)
_US = dt.timedelta(microseconds=1)
_DAY_US = 86_400_000_000


def _wall_us(stamp: dt.datetime) -> int:
    """Microseconds from 1970-01-01 00:00 to a naive wall-clock stamp."""
    return (stamp - _EPOCH) // _US


class MalformedFile(ValueError):
    """An input file cannot be parsed; the message names the file."""


class ZeroValidRows(MalformedFile):
    """A tick file contained no parseable rows."""


class DayUnusable(ValueError):
    """No trade occurred inside the session; the day cannot be sampled."""


class SessionMismatch(ValueError):
    """A panel file's date or grid does not match the configured session."""


@dataclass(frozen=True)
class SessionSpec:
    """Trading session geometry: wall-clock window, timezone, grid step."""

    session_start: dt.time
    session_end: dt.time
    timezone: str
    sampling_interval: int

    def __post_init__(self):
        if self.session_start >= self.session_end:
            raise ValueError("session_start must precede session_end")
        if self.sampling_interval <= 0:
            raise ValueError("sampling_interval must be positive")
        if self.session_seconds % self.sampling_interval != 0:
            raise ValueError("sampling_interval must divide the session length")
        ZoneInfo(self.timezone)  # fail fast on unknown zone names

    @property
    def session_seconds(self) -> int:
        start = self.session_start
        end = self.session_end
        return (end.hour - start.hour) * 3600 + (end.minute - start.minute) * 60 + (
            end.second - start.second
        )

    @property
    def n_intervals(self) -> int:
        return self.session_seconds // self.sampling_interval

    def tzinfo(self) -> ZoneInfo:
        return ZoneInfo(self.timezone)

    def grid_labels(self, step: int = 0) -> list[str]:
        """Wall-clock "HH:MM:SS" of the N interval left endpoints, the same on every date.

        A ``step`` in seconds labels a coarser cut of the session instead.
        """
        step = step or self.sampling_interval
        start = self.session_start
        base = start.hour * 3600 + start.minute * 60 + start.second
        return [
            f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}"
            for t in range(base, base + self.session_seconds // step * step, step)
        ]

    def grid_us(self, date: dt.date) -> np.ndarray:
        """The N + 1 grid instants of one date as wall-clock microseconds (see TickSeries)."""
        start = _wall_us(dt.datetime.combine(date, self.session_start))
        return start + self.sampling_interval * 1_000_000 * np.arange(self.n_intervals + 1)


@dataclass
class TickSeries:
    """Parsed trades of one instrument, ordered by session wall clock.

    ``times`` holds int64 wall-clock microseconds in the session
    timezone (microseconds since 1970-01-01 00:00 on that clock, not a
    UTC epoch), sorted, with equal stamps in file order; ``prices`` is
    aligned with it.
    """

    instrument: str
    times: np.ndarray
    prices: np.ndarray
    rejected: int = 0
    total_rows: int = 0

    def dates(self) -> list:
        days = np.unique(self.times // _DAY_US)
        return [_EPOCH.date() + dt.timedelta(days=int(d)) for d in days]

    def day(self, date: dt.date):
        """(times, prices) of the trades whose wall-clock date is ``date``."""
        lo = _wall_us(dt.datetime.combine(date, dt.time()))
        a, b = np.searchsorted(self.times, [lo, lo + _DAY_US])
        return self.times[a:b], self.prices[a:b]


@dataclass(frozen=True)
class TradingCalendar:
    excluded_dates: frozenset = frozenset()
    low_trade_threshold: float = 0.60

    def __post_init__(self):
        if not (0.0 < self.low_trade_threshold <= 1.0):
            raise ValueError("low_trade_threshold must lie in (0, 1]")


@dataclass
class ReturnPanel:
    """One day's synchronized log returns, d instruments by N intervals."""

    date: dt.date
    instruments: list
    returns: np.ndarray

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=float)
        if self.returns.ndim != 2 or self.returns.shape[0] != len(self.instruments):
            raise ValueError("returns must be a d x N matrix matching instruments")
        if not np.all(np.isfinite(self.returns)):
            raise ValueError("returns must be finite")

    @property
    def n_intervals(self) -> int:
        return self.returns.shape[1]

    def series(self, instrument: str) -> np.ndarray:
        return self.returns[self.instruments.index(instrument)]


def parse_ticks(path, schema: dict, spec: SessionSpec, instrument: str = "") -> TickSeries:
    """Parse one instrument's trades from a CSV file in one streamed pass.

    ``schema`` maps the roles "timestamp", "price" and optionally
    "volume" to column names in the file's header. Naive timestamps are
    read as wall clock in the session timezone, stamps with an offset
    are converted to it. Rows that fail to parse, lack a field, or
    carry a price outside (0, inf), a negative volume or one too large
    for an integer are rejected and counted. Blank lines are skipped
    and not counted. Accepted trades are held in numpy blocks of at most
    ``PARSE_BLOCK_ROWS``, 16 bytes each, and a file already in wall-clock
    order is not re-sorted.
    """
    for role in ("timestamp", "price"):
        if role not in schema:
            raise ValueError(f"schema must name a {role} column")
    tz = spec.tzinfo()
    fromisoformat = dt.datetime.fromisoformat
    time_blocks = []
    price_blocks = []
    rejected = 0
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise OSError(f"cannot read tick file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        width = len(header)
        # the last column of a duplicated name wins; a column missing from
        # the header reads past the end of every row, so every row is rejected
        column = {name: i for i, name in enumerate(header)}
        i_stamp = column.get(schema["timestamp"], width)
        i_price = column.get(schema["price"], width)
        vol_col = schema.get("volume")
        i_vol = column.get(vol_col, width) if vol_col else None
        records = enumerate(filter(None, reader), start=2)
        lineno = block_end = 1
        while lineno == block_end:  # a block that came up short was the last
            block_end += PARSE_BLOCK_ROWS
            times = []
            prices = []
            for lineno, row in islice(records, PARSE_BLOCK_ROWS):
                if len(row) != width:
                    # a short row reads "" for its missing fields; extra fields are ignored
                    row = (row + [""] * width)[:width]
                try:
                    stamp = fromisoformat(row[i_stamp].strip())
                    if stamp.tzinfo is not None:
                        stamp = stamp.astimezone(tz).replace(tzinfo=None)
                    price = float(row[i_price])
                    volume = 0 if i_vol is None else int(float(row[i_vol]))
                except (IndexError, OverflowError, ValueError):
                    rejected += 1
                    continue
                if not 0.0 < price < math.inf or volume < 0:
                    rejected += 1
                    continue
                times.append((stamp - _EPOCH) // _US)
                prices.append(price)
            time_blocks.append(np.array(times, dtype=np.int64))
            price_blocks.append(np.array(prices, dtype=np.float64))
    # each list of blocks is freed once joined, so at most one copy of a column is doubled
    times = np.concatenate(time_blocks)
    del time_blocks
    if not times.size:
        raise ZeroValidRows(f"{path}: no valid tick rows ({rejected} rejected)")
    prices = np.concatenate(price_blocks)
    del price_blocks
    if np.any(times[1:] < times[:-1]):  # a stable sort of non-decreasing times changes nothing
        order = np.argsort(times, kind="stable")  # equal stamps keep their file order
        times = times[order]
        prices = prices[order]
    return TickSeries(
        instrument=instrument,
        times=times,
        prices=prices,
        rejected=rejected,
        total_rows=lineno - 1,
    )


def sample_last_tick(ticks: TickSeries, spec: SessionSpec, date: dt.date) -> np.ndarray:
    """Last-tick sampling of one day onto the session grid.

    Returns N + 1 prices where grid point t holds the last trade of the
    day at or before t. Grid points before the day's first trade are
    back-filled with that first price. Raises DayUnusable when no trade
    falls inside [session_start, session_end].
    """
    grid = spec.grid_us(date)
    times, prices = ticks.day(date)
    if not np.any((times >= grid[0]) & (times <= grid[-1])):
        raise DayUnusable(f"{ticks.instrument} {date}: no session trades")
    return prices[np.maximum(np.searchsorted(times, grid, side="right") - 1, 0)]


def trade_fraction(ticks: TickSeries, spec: SessionSpec, date: dt.date) -> float:
    """Fraction of the session's 5-minute bins containing at least one trade."""
    grid = spec.grid_us(date)
    start, end = grid[0], grid[-1]
    n_bins = max(1, spec.session_seconds // LOW_TRADE_BIN_SECONDS)
    times, _ = ticks.day(date)
    offsets = times[(times > start) & (times <= end)] - start
    bins = np.minimum(n_bins - 1, offsets // (LOW_TRADE_BIN_SECONDS * 1_000_000))
    return len(np.unique(bins)) / n_bins


def build_panel(price_grids: dict, date: dt.date, spec: SessionSpec) -> ReturnPanel:
    """Log-return panel from per-instrument price grids of one day."""
    instruments = list(price_grids)
    n = spec.n_intervals
    returns = np.empty((len(instruments), n))
    for i, name in enumerate(instruments):
        prices = np.asarray(price_grids[name], dtype=float)
        if prices.shape != (n + 1,):
            raise ValueError(f"{name}: price grid must hold N + 1 prices")
        if np.any(prices <= 0.0):
            raise ValueError(f"{name}: non-positive price on the grid")
        returns[i] = np.diff(np.log(prices))
    return ReturnPanel(date=date, instruments=instruments, returns=returns)


def build_panels(tick_series: dict, spec: SessionSpec, calendar: TradingCalendar):
    """Per-day panels from parsed ticks, with a drop log.

    A date is dropped when it is excluded by the calendar, when any
    instrument has no usable session trades, or when every instrument
    falls below the low-trade threshold (thin days are only discarded
    if all legs are thin).
    """
    all_dates = sorted({d for s in tick_series.values() for d in s.dates()})
    panels = []
    drop_log = []
    for date in all_dates:
        if date in calendar.excluded_dates:
            drop_log.append((date, "excluded_date"))
            continue
        missing = [n for n, s in tick_series.items() if not s.day(date)[0].size]
        if missing:
            drop_log.append((date, f"missing_instrument:{','.join(sorted(missing))}"))
            continue
        fractions = {n: trade_fraction(s, spec, date) for n, s in tick_series.items()}
        if all(f < calendar.low_trade_threshold for f in fractions.values()):
            drop_log.append((date, "low_trade"))
            continue
        grids = {}
        unusable = None
        for name, series in tick_series.items():
            try:
                grids[name] = sample_last_tick(series, spec, date)
            except DayUnusable as exc:
                unusable = str(exc)
                break
        if unusable is not None:
            drop_log.append((date, f"unusable:{unusable}"))
            continue
        panels.append(build_panel(grids, date, spec))
    return panels, drop_log


def write_csv(path, header: list, rows) -> None:
    """Write one output table: the layout of every CSV file the package writes.

    A header row, then one row per item of ``rows``, lines ended by
    ``\\n``. A float, numpy scalars included, is written as its shortest
    round-trip ``repr``, so it reads back bit-exact; ``None`` is a blank
    cell (an undefined fit); any other value is written as ``str``.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            ["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row]
            for row in rows
        )


def write_panel_csv(panel: ReturnPanel, path, spec: SessionSpec) -> None:
    """One day's returns: date, interval left endpoint, one column per leg."""
    date = panel.date.isoformat()  # once per file: a date object would be str()-ed per row
    rows = ([date, t, *r] for t, r in zip(spec.grid_labels(), panel.returns.T.tolist()))
    write_csv(path, ["date", "grid_time", *panel.instruments], rows)


def read_panel_csv(path, spec: SessionSpec) -> ReturnPanel:
    """Rebuild a ReturnPanel written by write_panel_csv under ``spec``.

    A file that does not parse raises MalformedFile; a parseable panel
    of another date layout or session raises SessionMismatch.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        rows = list(reader)
    if header[:2] != ["date", "grid_time"]:
        raise MalformedFile(f"{path}: not a panel file")
    if not rows:
        raise MalformedFile(f"{path}: empty panel")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedFile(f"{path}: line {lineno} has {len(row)} fields, not {len(header)}")
    if any(row[0] != rows[0][0] for row in rows):
        raise SessionMismatch(f"{path}: date column is not constant")
    if [row[1] for row in rows] != spec.grid_labels():
        raise SessionMismatch(
            f"{path}: grid_time column does not match the session "
            f"{spec.session_start}-{spec.session_end} every {spec.sampling_interval} s"
        )
    try:
        date = dt.date.fromisoformat(rows[0][0])
        returns = np.array([[float(v) for v in row[2:]] for row in rows]).T
        return ReturnPanel(date=date, instruments=header[2:], returns=returns)
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def write_drop_log(drop_log, path) -> None:
    write_csv(path, ["date", "reason"], [(date.isoformat(), reason) for date, reason in drop_log])
