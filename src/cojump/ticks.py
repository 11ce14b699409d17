"""Tick ingestion and synchronization onto regular intraday return grids.

Raw trades arrive as CSV rows with user-named columns. They are parsed
with the session's IANA timezone (never guessed) into wall-clock stamps,
reduced block by block per instrument and date to what the last-tick
rule and the thin-day rule read (``TickDays``: no trade is held and no
file is sorted), filtered by a trading calendar, sampled onto an evenly
spaced price grid, and differenced into log-return panels: one row per
interval, one column per instrument. ``write_csv`` writes every output
table of the package but the panels and ``decompose``'s six tables,
which ``write_panel_csv`` and ``pipeline.Tables`` write in the same
layout (``csv_cells``).

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
import functools
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from zoneinfo import ZoneInfo

import numpy as np

LOW_TRADE_BIN_SECONDS = 300  # the thin-day rule is always judged on 5-min bins
PARSE_BLOCK_ROWS = 2048  # lines read at a time by parse_ticks
_NO_TRADE = np.iinfo(np.int64).min  # the stamp of no trade: before every real one
_EPOCH = dt.datetime(1970, 1, 1)
_US = dt.timedelta(microseconds=1)
_DAY_US = 86_400_000_000
_STAMP_FORM = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)  # a 0 stands for any digit
_OFFSET_FORM = np.frombuffer(b"+00:00", np.uint8)  # a sign reads 0 or 2: "," ends a field
# UTC instants, in microseconds from _EPOCH, that every zone maps inside datetime's range
_UTC_SPAN = ((dt.datetime.min - _EPOCH) // _US + 2 * _DAY_US,
             (dt.datetime.max - _EPOCH) // _US - 2 * _DAY_US)


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
            raise ValueError(f"the session start {self.session_start} must precede "
                             f"its end {self.session_end}")
        if self.sampling_interval <= 0 or self.session_seconds % self.sampling_interval:
            raise ValueError(f"the grid step of {self.sampling_interval} s must divide "
                             f"the session length of {self.session_seconds} s")
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

        A ``step`` in seconds labels a coarser cut of the session instead. The
        labels are built once per cut, and each call returns a new list.
        """
        step = step or self.sampling_interval
        start = self.session_start
        base = start.hour * 3600 + start.minute * 60 + start.second
        return list(_labels(base, base + self.session_seconds // step * step, step))

    def grid_us(self, date: dt.date) -> np.ndarray:
        """The N + 1 grid instants of one date as wall-clock microseconds (see TickDays)."""
        start = _wall_us(dt.datetime.combine(date, self.session_start))
        return start + self.sampling_interval * 1_000_000 * np.arange(self.n_intervals + 1)


@functools.lru_cache(maxsize=8)
def _labels(start: int, stop: int, step: int) -> tuple:
    """"HH:MM:SS" of the seconds of the day in ``range(start, stop, step)``."""
    return tuple(f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}" for t in range(start, stop, step))


class _Day:
    """One date's trades of one instrument on the grid t_0..t_N: ``last_*[j]`` is the latest
    trade at or before t_j (none: ``_NO_TRADE``), ``first_*`` the earliest trade and ``bins``
    the 5-minute bins of (t_0, t_N] that hold a trade."""

    __slots__ = ("first_us", "first_price", "last_us", "last_price", "bins")

    def __init__(self, spec: SessionSpec):
        self.first_us, self.first_price = math.inf, math.nan
        self.last_us = np.full(spec.n_intervals + 1, _NO_TRADE)
        self.last_price = np.zeros(spec.n_intervals + 1)
        self.bins = np.zeros(max(1, spec.session_seconds // LOW_TRADE_BIN_SECONDS), bool)


@dataclass
class TickDays:
    """Parsed trades of one instrument: ``days`` maps each date of the session wall clock
    that holds a trade to its ``_Day`` on the grid of ``spec``.

    A stamp is int64 wall-clock microseconds in the session timezone
    (microseconds since 1970-01-01 00:00 on that clock, not a UTC epoch).
    Trades order by stamp, equal stamps by file order: ``add`` takes the
    blocks in file order and sorts only a block that is out of order.
    """

    instrument: str
    spec: SessionSpec
    days: dict = field(default_factory=dict)
    rejected: int = 0
    total_rows: int = 0

    def add(self, times: np.ndarray, prices: np.ndarray, rows: int) -> None:
        """Reduce the trades kept from a block of ``rows`` records, given in file order."""
        self.total_rows += rows
        self.rejected += rows - times.size
        if np.any(times[1:] < times[:-1]):  # the stable sort keeps equal stamps in file order
            order = np.argsort(times, kind="stable")
            times, prices = times[order], prices[order]
        k = 0
        while k < times.size:  # one run of trades per date
            day = int(times[k]) // _DAY_US
            end = int(np.searchsorted(times, (day + 1) * _DAY_US))
            self._add_day(_EPOCH.date() + dt.timedelta(days=day), times[k:end], prices[k:end])
            k = end

    def _add_day(self, date: dt.date, times: np.ndarray, prices: np.ndarray) -> None:
        """Fold one date's sorted trades, later in the file than any before, into its _Day."""
        grid = self.spec.grid_us(date)
        if date not in self.days:
            self.days[date] = _Day(self.spec)
        day = self.days[date]
        if times[0] < day.first_us:  # an equal stamp read earlier stays first
            day.first_us, day.first_price = times[0], prices[0]
        last = np.searchsorted(times, grid, side="right") - 1  # the latest at or before, or -1
        later = (last >= 0) & (times[last] >= day.last_us)  # an equal stamp read later wins
        day.last_us[later], day.last_price[later] = times[last[later]], prices[last[later]]
        bins = (times[last[0] + 1 : last[-1] + 1] - grid[0]) // (LOW_TRADE_BIN_SECONDS * 1_000_000)
        day.bins[np.minimum(day.bins.size - 1, bins)] = True


@dataclass(frozen=True)
class TradingCalendar:
    excluded_dates: frozenset = frozenset()
    low_trade_threshold: float = 0.60

    def __post_init__(self):
        if not (0.0 < self.low_trade_threshold <= 1.0):
            raise ValueError(
                f"low_trade_threshold must lie in (0, 1], got {self.low_trade_threshold}")


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


def _floats(texts: list) -> np.ndarray:
    """``float()`` of each text, NaN where ``float()`` refuses it."""
    values, rest = [], iter(texts)
    while True:
        try:
            values.extend(map(float, rest))
            return np.array(values, dtype=np.float64)
        except ValueError:  # the refused text is consumed: it reads NaN
            values.append(math.nan)


def _stamp_wall_us(raw: np.ndarray):
    """(ok, wall-clock microseconds) of 19-byte stamps, one per row of ``raw``: ok where
    a stamp has the form YYYY-MM-DDTHH:MM:SS and names a real date and clock time."""
    delta = np.subtract(raw.T, _STAMP_FORM[:, None], order="C")  # a digit's value, 0 at a mark
    ok = (delta <= np.where(_STAMP_FORM == 48, 9, 0)[:, None]).all(0)
    y, mo, d, h, mi, s = (  # garbage where not ok
        sum(delta[k].astype(np.int64) * 10 ** (b - 1 - k) for k in range(a, b))
        for a, b in ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19)))
    month = (y - 1970).astype("datetime64[Y]").astype("datetime64[M]") + (mo - 1)
    day = month.astype("datetime64[D]").astype(np.int64) + (d - 1)
    ok &= (y >= 1) & (mo >= 1) & (mo <= 12) & (d >= 1) & (h < 24) & (mi < 60) & (s < 60)
    ok &= day < (month + 1).astype("datetime64[D]").astype(np.int64)  # 02-29 of common years
    return ok, (((day * 24 + h) * 60 + mi) * 60 + s) * 1_000_000


def _offset_us(raw: np.ndarray):
    """(ok, microseconds east of UTC) of ±HH:MM suffixes, one per row of ``raw``: ok where
    ``fromisoformat`` takes one, which is under 24 hours (MM may pass 59)."""
    delta = np.subtract(raw.T, _OFFSET_FORM[:, None], order="C")
    minutes = (delta[1] * 10 + delta[2]).astype(np.int64) * 60 + delta[4] * 10 + delta[5]
    ok = (delta <= np.array([2, 9, 9, 0, 9, 9])[:, None]).all(0)
    return ok & (minutes < 1440), (1 - delta[0].astype(np.int64)) * minutes * 60_000_000


def _zone_wall_us(utc: np.ndarray, tz: ZoneInfo) -> np.ndarray:
    """Wall clock in ``tz`` of whole-second UTC microseconds inside ``_UTC_SPAN``, each
    distinct second's offset (whole seconds) from the ``fromutc`` that ``astimezone`` calls."""
    secs, where = np.unique(utc // 1_000_000, return_inverse=True)
    offsets = [dt.datetime.fromtimestamp(s, tz).utcoffset().total_seconds() for s in secs.tolist()]
    return utc + (np.array(offsets) * 1e6).astype(np.int64)[where]


def _bulk_wall_us(data: np.ndarray, starts: np.ndarray, sizes: np.ndarray, tz: ZoneInfo):
    """(decoded, wall clock in ``tz``) of the stamps that are ``sizes[k]`` bytes of ``data`` at
    ``starts[k]``: YYYY-MM-DDTHH:MM:SS, bare or ±HH:MM with a UTC instant in ``_UTC_SPAN``."""
    bare, suffix = _STAMP_FORM.size, _OFFSET_FORM.size
    bulk = np.flatnonzero((sizes == bare) | (sizes == bare + suffix))
    decoded = np.zeros(sizes.size, bool)
    times = np.zeros(sizes.size, np.int64)
    if bulk.size:
        windows = np.lib.stride_tricks.sliding_window_view
        good, wall = _stamp_wall_us(windows(data, bare)[starts[bulk]])
        zoned = np.flatnonzero(sizes[bulk] == bare + suffix)
        if zoned.size:
            known, offset = _offset_us(windows(data, suffix)[starts[bulk[zoned]] + bare])
            utc = wall[zoned] - offset
            known &= good[zoned] & (_UTC_SPAN[0] <= utc) & (utc <= _UTC_SPAN[1])
            good[zoned] = known
            wall[zoned[known]] = _zone_wall_us(utc[known], tz)
        times[bulk] = wall
        decoded[bulk] = good
    return decoded, times


def _clean_block(text: str, width: int):
    """(text, bytes, cuts) of a block of lines that str.split may cut into fields, else None:
    one with no carriage return whose lines that are not blank have ``width`` fields and
    fit csv's field size limit. The text comes back without blank lines and ending in a
    line end; ``cuts`` are the offsets in its bytes of the "," or "\\n" after each field."""
    if "\r" in text:
        return None
    if text[0] == "\n" or "\n\n" in text:  # blank lines are no records
        text = "".join(line + "\n" for line in text.split("\n") if line)
    elif text[-1] != "\n":
        text += "\n"
    data = np.frombuffer(text.encode(), np.uint8)
    cuts = np.flatnonzero((data == 44) | (data == 10))
    lines = np.flatnonzero(data[cuts] == 10)  # every width-th cut, if each line has width fields
    if np.array_equal(lines, np.arange(width - 1, cuts.size, width)) and (
            not lines.size or np.diff(cuts[lines], prepend=-1).max() <= csv.field_size_limit()):
        return text, data, cuts
    return None


def _trades(path, schema: dict, tz: ZoneInfo):
    """Yield (wall-clock microseconds, prices, records read) of each block of a tick file:
    the trades kept from its records, in file order (see parse_ticks)."""

    def convert(decoded, times, stamps: list, prices: list, volumes=None):
        """A block's trades from its text columns and ``_bulk_wall_us``."""
        prices = _floats(prices)
        ok = (0.0 < prices) & (prices < math.inf)
        if volumes is not None:  # int(float(v)) >= 0 exactly when -1 < v < inf
            volumes = _floats(volumes)
            ok &= (-1.0 < volumes) & (volumes < math.inf)
        for k in np.flatnonzero(ok & ~decoded).tolist():  # every other stamp, one at a time
            try:
                stamp = dt.datetime.fromisoformat(stamps[k].strip())
                if stamp.tzinfo is not None:
                    stamp = stamp.astimezone(tz).replace(tzinfo=None)
                times[k] = (stamp - _EPOCH) // _US
            except (OverflowError, ValueError):
                ok[k] = False
        return times[ok], prices[ok], len(stamps)

    def split_block(text: str, lines: list):
        """The str.split splitter where ``_clean_block`` passes the block, else csv.reader's."""
        block = complete and _clean_block(text, width)
        if not block:
            return split_records(filter(None, csv.reader(lines)))
        lines.clear()  # frees them
        text, data, cuts = block
        del block
        starts = np.append(-1, cuts[:-1])[roles[0]::width] + 1  # each stamp's first byte
        decoded, times = _bulk_wall_us(data, starts, cuts[roles[0]::width] - starts, tz)
        del data, cuts, starts  # before the fields are split: ingest's peak RSS is lower
        fields = text.replace("\n", ",").split(",")  # and "" after the last line end
        return convert(decoded, times, *(fields[i:-1:width] for i in roles))

    def split_records(records):
        """The csv.reader splitter: extra fields are ignored, missing ones read ""."""
        rows = list(records)
        if not complete or set(map(len, rows)) - {width}:  # width fields, then a "" column
            rows = [(row + [""] * width)[:width] + [""] for row in rows]
        stamps, *others = ([row[i] for row in rows] for i in roles)
        data = np.frombuffer("\n".join([*stamps, ""]).encode(), np.uint8)
        ends = np.flatnonzero(data == 10)
        starts = np.append(0, ends + 1)[:-1]
        # a stamp that holds a line end sends every stamp of the block to be read on its own
        sizes = ends - starts if ends.size == len(stamps) else np.zeros(len(stamps), np.int64)
        return convert(*_bulk_wall_us(data, starts, sizes, tz), stamps, *others)

    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read tick file {path}: {exc}") from exc
    with handle:
        try:
            header = next(csv.reader(handle), [])
            width = len(header)
            # the last column of a duplicated name wins; a column missing from
            # the header reads "" in every row, so every row is rejected
            column = {name: i for i, name in enumerate(header)}
            roles = [column.get(schema[role], width) for role in ("timestamp", "price")]
            if schema.get("volume"):
                roles.append(column.get(schema["volume"], width))
            complete = max(roles) < width  # the header names every column of the schema
            while lines := list(islice(handle, PARSE_BLOCK_ROWS)):
                text = "".join(lines)
                if '"' in text:  # a quoted field can span lines: csv reads the rest
                    records = filter(None, csv.reader(chain(lines, handle)))
                    while (block := split_records(islice(records, PARSE_BLOCK_ROWS)))[2]:
                        yield block
                    break
                yield split_block(text, lines)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise MalformedFile(f"{path}: {exc}") from exc


def parse_ticks(path, schema: dict, spec: SessionSpec, instrument: str = "") -> TickDays:
    """Parse one instrument's trades from a UTF-8 CSV file in one streamed pass.

    ``schema`` maps the roles "timestamp", "price" and optionally
    "volume" to column names in the file's header. Naive timestamps are
    read as wall clock in the session timezone, stamps with an offset
    are converted to it. Rows that fail to parse, lack a field, or
    carry a price outside (0, inf), a negative volume or one too large
    for an integer are rejected and counted. Blank lines are skipped
    and not counted. A file that is not UTF-8, or has a field longer
    than ``csv.field_size_limit()``, raises MalformedFile.

    The file is read in blocks of ``PARSE_BLOCK_ROWS`` lines. Two splitters
    cut them into text columns, ``str.split`` a block that ``_clean_block``
    passes and ``csv.reader`` the others and the rest of the file after the
    first quote, and one conversion turns the columns into trades, stamps
    through ``_bulk_wall_us`` or else one at a time (``_trades``). Each block's
    trades are reduced per date by ``TickDays.add`` and dropped: no file is sorted.
    """
    for role in ("timestamp", "price"):
        if role not in schema:
            raise ValueError(f"schema must name a {role} column")
    reduced = TickDays(instrument, spec)
    for times, prices, rows in _trades(path, schema, spec.tzinfo()):
        reduced.add(times, prices, rows)
    if not reduced.days:
        raise ZeroValidRows(f"{path}: no valid tick rows ({reduced.rejected} rejected)")
    return reduced


def _reduced(ticks: TickDays, spec: SessionSpec, date: dt.date):
    """The _Day of ``date``, None if it holds no trade; ``spec`` is the one reduced onto."""
    if spec != ticks.spec:
        raise ValueError(f"{ticks.instrument}: the trades were reduced onto another session")
    return ticks.days.get(date)


def sample_last_tick(ticks: TickDays, spec: SessionSpec, date: dt.date) -> np.ndarray:
    """Last-tick sampling of one day onto the session grid.

    Returns N + 1 prices where grid point t holds the last trade of the
    day at or before t. Grid points before the day's first trade are
    back-filled with that first price. Raises DayUnusable when no trade
    falls inside [session_start, session_end].
    """
    day = _reduced(ticks, spec, date)
    if day is None or day.last_us[-1] < spec.grid_us(date)[0]:  # no trade in [t_0, t_N]
        raise DayUnusable(f"{ticks.instrument} {date}: no session trades")
    return np.where(day.last_us > _NO_TRADE, day.last_price, day.first_price)


def trade_fraction(ticks: TickDays, spec: SessionSpec, date: dt.date) -> float:
    """Fraction of the session's 5-minute bins containing at least one trade."""
    day = _reduced(ticks, spec, date)
    return 0.0 if day is None else np.count_nonzero(day.bins) / day.bins.size


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
    all_dates = sorted({d for s in tick_series.values() for d in s.days})
    panels = []
    drop_log = []
    for date in all_dates:
        if date in calendar.excluded_dates:
            drop_log.append((date, "excluded_date"))
            continue
        missing = [n for n, s in tick_series.items() if date not in s.days]
        if missing:
            drop_log.append((date, f"missing_instrument:{','.join(sorted(missing))}"))
            continue
        fractions = {n: trade_fraction(s, spec, date) for n, s in tick_series.items()}
        if all(f < calendar.low_trade_threshold for f in fractions.values()):
            drop_log.append((date, "low_trade"))
            continue
        try:  # the first unusable instrument names the date's drop
            grids = {n: sample_last_tick(s, spec, date) for n, s in tick_series.items()}
        except DayUnusable as exc:
            drop_log.append((date, f"unusable:{exc}"))
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
        writer.writerows(map(csv_cells, rows))


def csv_cells(row) -> list:
    """The cells of one row of write_csv's layout."""
    return ["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row]


def write_panel_csv(panel: ReturnPanel, path, spec: SessionSpec) -> None:
    """One day's returns: date, interval left endpoint, one column per leg, in the bytes
    of ``write_csv``: its writer writes the header, and each row is joined as one line,
    since an ISO date, an "HH:MM:SS" label and float reprs are cells it never quotes."""
    date = panel.date.isoformat()
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(["date", "grid_time", *panel.instruments])
        handle.writelines(",".join([date, label, *map(repr, row)]) + "\n"
                          for label, row in zip(spec.grid_labels(), panel.returns.T.tolist()))


def read_panel_csv(path, spec: SessionSpec) -> ReturnPanel:
    """Rebuild a ReturnPanel written by write_panel_csv under ``spec``.

    A file that does not parse raises MalformedFile; a parseable panel
    of another date layout or session raises SessionMismatch.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = list(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
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
