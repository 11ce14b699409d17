"""Tick parsing, last-tick sampling, and panel construction."""

import csv
import datetime as dt
import gc
import itertools
import json
import math
import os
import random
import tracemalloc
from dataclasses import dataclass
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cojump import cli
from cojump import ticks as tk
from cojump.spec import write_csv

TZ = "America/Chicago"


def _spec(start="09:00", end="10:00", interval=60):
    return tk.SessionSpec(
        session_start=dt.time.fromisoformat(start),
        session_end=dt.time.fromisoformat(end),
        timezone=TZ,
        sampling_interval=interval,
    )


def _tick_file(tmp_path, rows, header="time,px,vol", name="ticks.csv"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


SCHEMA = {"timestamp": "time", "price": "px", "volume": "vol"}
_DAY = 86_400_000_000


def _wall_us(stamp):
    """Wall-clock microseconds of a naive or session-zone stamp."""
    return (stamp.replace(tzinfo=None) - dt.datetime(1970, 1, 1)) // dt.timedelta(microseconds=1)


def _series(recs, instrument="X"):
    """The reduction of (wall-clock microseconds, price) records, handed over sorted."""
    recs = sorted(recs)
    reduced = tk.TickDays(instrument, _spec())
    reduced.add(np.array([t for t, _ in recs], dtype=np.int64),
                np.array([p for _, p in recs], dtype=float), len(recs))
    return reduced


# The held-tick path that TickDays replaced, kept as its oracle: every kept trade in
# one array sorted by wall clock (equal stamps in file order), cut into dates by
# searches, sampled by searchsorted and filtered into panels.


@dataclass
class _Held:
    """A parsed tick file as the held-tick parser returned it."""

    instrument: str
    times: np.ndarray
    prices: np.ndarray
    rejected: int = 0
    total_rows: int = 0


def _held_parse(path, schema, spec, instrument=""):
    """Every trade that parse_ticks' converter keeps, joined and sorted stably."""
    blocks = list(tk._trades(path, schema, spec.tzinfo()))
    total = sum(rows for _, _, rows in blocks)
    times = np.concatenate([np.empty(0, np.int64), *(t for t, _, _ in blocks)])
    prices = np.concatenate([np.empty(0), *(p for _, p, _ in blocks)])
    if not times.size:
        raise tk.ZeroValidRows(f"{path}: no valid tick rows ({total} rejected)")
    order = np.argsort(times, kind="stable")
    return _Held(instrument, times[order], prices[order], total - times.size, total)


def _held_dates(series):
    """The dates that hold a trade, found by one search per date in the sorted times."""
    days, k = [], 0
    while k < series.times.size:
        day = int(series.times[k]) // _DAY
        days.append(dt.date(1970, 1, 1) + dt.timedelta(days=day))
        k = int(np.searchsorted(series.times, (day + 1) * _DAY))
    return days


def _held_day(series, date):
    """(times, prices) of the trades whose wall-clock date is ``date``."""
    lo = _wall_us(dt.datetime.combine(date, dt.time()))
    a, b = np.searchsorted(series.times, [lo, lo + _DAY])
    return series.times[a:b], series.prices[a:b]


def _held_sample(series, spec, date):
    grid = tk.grid_us(spec, date)
    times, prices = _held_day(series, date)
    if not np.any((times >= grid[0]) & (times <= grid[-1])):
        raise tk.DayUnusable(f"{series.instrument} {date}: no session trades")
    return prices[np.maximum(np.searchsorted(times, grid, side="right") - 1, 0)]


def _held_fraction(series, spec, date):
    grid = tk.grid_us(spec, date)
    start, end = grid[0], grid[-1]
    n_bins = max(1, spec.session_seconds // tk.LOW_TRADE_BIN_SECONDS)
    times, _ = _held_day(series, date)
    offsets = times[(times > start) & (times <= end)] - start
    bins = np.minimum(n_bins - 1, offsets // (tk.LOW_TRADE_BIN_SECONDS * 1_000_000))
    return np.count_nonzero(np.diff(bins, prepend=-1)) / n_bins


def _held_panels(tick_series, spec, calendar):
    all_dates = sorted({d for s in tick_series.values() for d in _held_dates(s)})
    panels = []
    drop_log = []
    for date in all_dates:
        if date in calendar.excluded_dates:
            drop_log.append((date, "excluded_date"))
            continue
        missing = [n for n, s in tick_series.items() if not _held_day(s, date)[0].size]
        if missing:
            drop_log.append((date, f"missing_instrument:{','.join(sorted(missing))}"))
            continue
        fractions = {n: _held_fraction(s, spec, date) for n, s in tick_series.items()}
        if all(f < calendar.low_trade_threshold for f in fractions.values()):
            drop_log.append((date, "low_trade"))
            continue
        grids = {}
        unusable = None
        for name, series in tick_series.items():
            try:
                grids[name] = _held_sample(series, spec, date)
            except tk.DayUnusable as exc:
                unusable = str(exc)
                break
        if unusable is not None:
            drop_log.append((date, f"unusable:{unusable}"))
            continue
        panels.append(tk.build_panel(grids, date))
    return panels, drop_log


def _sampled(sample, *args):
    """The bytes of a date's sampled grid, or the DayUnusable message."""
    try:
        return sample(*args).tobytes()
    except tk.DayUnusable as exc:
        return str(exc)


def _parse(path, schema=SCHEMA, spec=None, instrument=""):
    """parse_ticks' trades as the held-tick parser returned them: the blocks handed to
    TickDays.add, joined and sorted stably, with the counts of the reduction. Each date's
    reduction samples and counts bins as the held trades do."""
    spec = spec or _spec()
    blocks, add = [], tk.TickDays.add

    def recorded(reduced, times, prices, rows):
        blocks.append((times, prices))
        add(reduced, times, prices, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tk.TickDays, "add", recorded)
        reduced = tk.parse_ticks(path, schema, spec, instrument)
    times = np.concatenate([t for t, _ in blocks])
    order = np.argsort(times, kind="stable")
    series = _Held(reduced.instrument, times[order],
                   np.concatenate([p for _, p in blocks])[order], reduced.rejected,
                   reduced.total_rows)
    assert sorted(reduced.days) == _held_dates(series)
    for date in reduced.days:
        assert _sampled(tk.sample_last_tick, reduced, date) == _sampled(
            _held_sample, series, spec, date)
        assert tk.trade_fraction(reduced, date) == _held_fraction(series, spec, date)
    return series


def _rec(stamp, price):
    return _wall_us(dt.datetime.fromisoformat(stamp)), price


def test_session_spec_geometry():
    spec = _spec("07:00", "16:00", 300)
    assert spec.session_seconds == 9 * 3600
    assert spec.n_intervals == 108
    grid = tk.grid_us(spec, dt.date(2017, 3, 15))
    assert len(grid) == 109
    assert grid[0] == _wall_us(dt.datetime(2017, 3, 15, 7, 0))
    assert grid[-1] == _wall_us(dt.datetime(2017, 3, 15, 16, 0))
    assert grid[1] - grid[0] == 300_000_000
    labels = spec.grid_labels()
    assert len(labels) == 108
    assert labels[:2] == ["07:00:00", "07:05:00"] and labels[-1] == "15:55:00"
    assert spec.grid_labels(1800)[:3] == ["07:00:00", "07:30:00", "08:00:00"]


def _label(us):
    return (dt.datetime(1970, 1, 1) + dt.timedelta(microseconds=int(us))).strftime("%H:%M:%S")


@pytest.mark.parametrize("date", [dt.date(2017, 3, 12), dt.date(2017, 11, 5)],
                         ids=["spring-forward", "fall-back"])
def test_grid_labels_across_dst_switches(date):
    """Labels step along the wall clock on the dates Chicago skips or repeats 01:00-03:00."""
    spec = _spec("00:30", "03:30", 1800)
    expected = ["00:30:00", "01:00:00", "01:30:00", "02:00:00", "02:30:00", "03:00:00"]
    assert spec.grid_labels() == expected
    assert [_label(us) for us in tk.grid_us(spec, date)[:-1]] == expected
    berlin = tk.SessionSpec(dt.time(1), dt.time(2), "Europe/Berlin", 900)
    assert berlin.grid_labels() == ["01:00:00", "01:15:00", "01:30:00", "01:45:00"]


@pytest.mark.parametrize("start, end, interval, step", [
    ("07:00", "16:00", 60, 0),
    ("00:00", "23:59", 1, 0),
    ("09:30:15", "15:45:45", 15, 0),
    ("08:20:07", "08:59:59", 2, 0),
    ("07:00", "16:00", 300, 1800),
    ("09:30:15", "15:45:45", 15, 420),
])
def test_grid_labels_match_datetime_formatting(start, end, interval, step):
    """Integer-second labels equal datetime + timedelta formatted with strftime."""
    spec = _spec(start, end, interval)
    width = step or interval
    base = dt.datetime.combine(dt.date(1970, 1, 1), spec.session_start)
    expected = [
        (base + dt.timedelta(seconds=i * width)).strftime("%H:%M:%S")
        for i in range(spec.session_seconds // width)
    ]
    assert spec.grid_labels(step) == expected


def test_grid_labels_are_a_fresh_list_per_call():
    """Labels are built once per session and step, but a caller that edits its list
    does not change what the next call returns."""
    spec = _spec("07:00", "16:00", 300)
    first = spec.grid_labels()
    expected = list(first)
    first[0] = "edited"
    first.append("appended")
    coarse = spec.grid_labels(1800)
    coarse.clear()
    assert spec.grid_labels() == expected
    assert spec.grid_labels() is not spec.grid_labels()
    assert _spec("07:00", "16:00", 300).grid_labels() == expected
    assert spec.grid_labels(1800)[:3] == ["07:00:00", "07:30:00", "08:00:00"]


def test_session_spec_validation():
    with pytest.raises(ValueError, match="precede"):
        _spec("10:00", "09:00")
    with pytest.raises(ValueError, match="divide"):
        _spec("09:00", "10:00", interval=700)
    with pytest.raises(Exception):
        tk.SessionSpec(dt.time(9), dt.time(10), "Not/AZone", 60)


def test_parse_ticks_field_mapping(tmp_path):
    path = _tick_file(tmp_path, ["2017-03-15 13:00:01,124.53125,12"])
    series = _parse(path, SCHEMA, _spec(), instrument="ZN")
    assert series.total_rows == 1 and series.rejected == 0
    assert series.prices.tolist() == [124.53125]
    assert series.times.dtype == np.int64
    assert series.times.tolist() == [_wall_us(dt.datetime(2017, 3, 15, 13, 0, 1))]
    assert series.instrument == "ZN"


def test_parse_ticks_empty_file(tmp_path):
    path = _tick_file(tmp_path, [])
    with pytest.raises(tk.ZeroValidRows):
        tk.parse_ticks(path, SCHEMA, _spec())


def test_parse_ticks_rejects_bad_rows(tmp_path):
    path = _tick_file(
        tmp_path,
        [
            "2017-03-15 13:00:01,124.5,12",
            "2017-03-15 13:00:02,-1,5",
            "not a timestamp,130.0,2",
            "2017-03-15 13:00:03,130.0,banana",
            "2017-03-15 13:00:04,131.0,7",
        ],
    )
    series = _parse(path, SCHEMA, _spec(), instrument="ZN")
    assert series.total_rows == 5
    assert series.rejected == 3
    assert len(series.times) == 2
    assert len(series.times) + series.rejected == series.total_rows


def test_parse_ticks_rejects_short_rows(tmp_path):
    """A row without its timestamp field is rejected, not a crash."""
    path = _tick_file(tmp_path, ["100.0,5,2017-03-15T09:00:01", "100.5,3"], header="px,vol,ts")
    series = _parse(path, {"timestamp": "ts", "price": "px", "volume": "vol"}, _spec())
    assert series.total_rows == 2 and series.rejected == 1
    assert series.prices.tolist() == [100.0]


def test_parse_ticks_sorts_and_missing_file(tmp_path):
    path = _tick_file(
        tmp_path,
        ["2017-03-15 13:00:05,10,1", "2017-03-15 13:00:01,11,1"],
    )
    series = _parse(path, SCHEMA, _spec())
    assert series.times.tolist() == sorted(series.times.tolist())
    assert series.prices.tolist() == [11.0, 10.0]
    with pytest.raises(OSError):
        tk.parse_ticks(tmp_path / "absent.csv", SCHEMA, _spec())


def test_parse_ticks_orders_by_session_wall_clock(tmp_path):
    """Stamps order by wall clock in the session zone, ignoring the DST fold;
    equal stamps keep their file order."""
    path = _tick_file(
        tmp_path,
        [
            "2017-11-05T01:30:00-06:00,1,1",  # second 01:30 (CST)
            "2017-11-05T06:40:00+00:00,2,1",  # 01:40 CDT, the first pass
            "2017-11-05 01:30:00,3,1",  # naive: same wall clock as line 2
            "2017-11-05T06:30:00+00:00,4,1",  # 01:30 CDT, the first 01:30
            "2017-11-06T05:59:59+00:00,5,1",  # 23:59:59 CST on Nov 5
        ],
    )
    series = _parse(path, SCHEMA, _spec())
    assert series.prices.tolist() == [1.0, 3.0, 4.0, 2.0, 5.0]
    at = dt.datetime(2017, 11, 5, 1, 30)
    assert series.times[:3].tolist() == [_wall_us(at)] * 3
    assert _held_dates(series) == [dt.date(2017, 11, 5)]
    _, prices = _held_day(series, dt.date(2017, 11, 5))
    assert prices.tolist() == [1.0, 3.0, 4.0, 2.0, 5.0]
    assert _held_day(series, dt.date(2017, 11, 6))[0].size == 0


def test_parse_ticks_rejects_non_finite_prices_and_overflowing_volumes(tmp_path):
    path = _tick_file(
        tmp_path,
        [
            "2017-03-15 13:00:01,nan,1",
            "2017-03-15 13:00:02,inf,1",
            "2017-03-15 13:00:03,-inf,1",
            "2017-03-15 13:00:04,1e400,1",
            "2017-03-15 13:00:05,124.5,1e400",
            "2017-03-15 13:00:06,124.5,3",
        ],
    )
    series = _parse(path, SCHEMA, _spec())
    assert series.total_rows == 6 and series.rejected == 5
    assert series.prices.tolist() == [124.5]


def test_parse_ticks_rejects_offset_stamps_outside_the_calendar(tmp_path):
    """An offset stamp whose conversion leaves datetime's range is a rejected row."""
    path = _tick_file(
        tmp_path, ["0001-01-01T00:30:00+01:00,100,1", "2017-03-15 13:00:01,100,1"]
    )
    series = _parse(path, SCHEMA, _spec())
    assert series.total_rows == 2 and series.rejected == 1
    assert series.prices.tolist() == [100.0]


def _dictreader_parse(path, schema, spec):
    """The csv.DictReader loop that parse_ticks replaced, kept as its oracle.

    It accepts a non-finite price and crashes on an overflowing volume or
    offset stamp, so it is compared only on inputs without them.
    """
    tz = spec.tzinfo()
    vol_col = schema.get("volume")
    times, prices = [], []
    rejected = total = 0
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle, restval=""):
            total += 1
            try:
                stamp = dt.datetime.fromisoformat(row[schema["timestamp"]].strip())
                price = float(row[schema["price"]])
                volume = int(float(row[vol_col])) if vol_col else 0
            except (KeyError, TypeError, ValueError):
                rejected += 1
                continue
            if price <= 0.0 or volume < 0:
                rejected += 1
                continue
            if stamp.tzinfo is not None:
                stamp = stamp.astimezone(tz).replace(tzinfo=None)
            times.append(_wall_us(stamp))
            prices.append(price)
    if not times:
        raise tk.ZeroValidRows(f"{path}: no valid tick rows ({rejected} rejected)")
    order = np.argsort(np.array(times, dtype=np.int64), kind="stable")
    return _Held("", np.array(times, dtype=np.int64)[order], np.array(prices)[order],
                 rejected, total)


def _outcome(parse, path, schema):
    try:
        s = parse(path, schema, _spec())
    except tk.ZeroValidRows as exc:
        return str(exc)
    return s.times.dtype, s.times.tolist(), s.prices.tobytes(), s.rejected, s.total_rows


_HEADERS = (  # the schema reads ts, px and vol
    ["ts", "px", "vol"],
    ["vol", "ts", "px"],
    ["ts", "px", "vol", "px"],  # a duplicated column: the last one wins
    ["ts", "note", "px", "vol"],
    ["ts", "px"],  # no volume column: every row is rejected
)
_STAMPS = st.builds(
    lambda day, hour, minute, second, micro, sep, offset: (
        f"2017-11-{day:02d}{sep}{hour:02d}:{minute:02d}:{second:02d}{micro}{offset}"
    ),
    st.integers(4, 6),
    st.integers(0, 25),  # 24 and 25 are impossible clock times
    st.sampled_from([0, 1, 30, 59, 61]),
    st.integers(0, 59),
    st.sampled_from(["", ".250000", ".5"]),
    st.sampled_from(["T", " ", "X"]),
    st.sampled_from(["", "", "+00:00", "-06:00", "-05:00", "+01:30"]),
) | st.sampled_from(["", "not a time", " 2017-11-05T01:30:00 "])
_FIELDS = {
    "ts": _STAMPS,
    "px": st.sampled_from(["101.25", "99.5", " 100 ", "1e2", "n/a", "0", "0.0", "-3.5", "",
                           "1,5", 'a "quoted" 7']),
    "vol": st.sampled_from(["5", "0", "-5", "2.5", "-0.5", "0.9", "1e3", "x", ""]),
    "note": st.sampled_from(["", "a,b", "c"]),
}


@st.composite
def _tick_files(draw):
    header = draw(st.sampled_from(_HEADERS))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["full", "full", "full", "short", "long", "blank"]))
        row = [draw(_FIELDS[name]) for name in header]
        if kind == "short":
            row = row[: draw(st.integers(1, len(header) - 1))]
        elif kind == "long":
            row += draw(st.lists(_FIELDS["px"], min_size=1, max_size=3))
        lines.append(None if kind == "blank" else row)
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    return header, lines, quoting


@st.composite
def _unordered_tick_files(draw):
    """Trades written out of wall-clock order, with repeated stamps and some rejected rows,
    so that parse_ticks has to sort."""
    stamps = draw(st.lists(st.integers(0, 3 * 86_400 - 1), min_size=2, max_size=16))
    assume(stamps != sorted(stamps))
    lines = []
    for k, second in enumerate(stamps):
        stamp = dt.datetime(2017, 11, 4) + dt.timedelta(seconds=second)
        lines.append([stamp.isoformat(draw(st.sampled_from(["T", " "]))), f"{100 + k / 8}", "1"])
        if draw(st.booleans()):
            lines.append([stamp.isoformat(), "n/a", "1"])
    return ["ts", "px", "vol"], lines, csv.QUOTE_MINIMAL


def _write_case(path, case):
    header, lines, quoting = case
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, quoting=quoting, lineterminator="\n")
        writer.writerow(header)
        for row in lines:
            if row is None:
                handle.write("\n")
            else:
                writer.writerow(row)
    return path


@settings(max_examples=300, deadline=None)
@given(_tick_files() | _unordered_tick_files())
def test_parse_ticks_matches_dictreader_oracle(tmp_path_factory, case):
    """The streamed reader and the DictReader loop agree on every finite input:
    blank, short, long and quoted rows, duplicated headers, bad fields and
    files out of wall-clock order."""
    path = _write_case(tmp_path_factory.mktemp("ticks") / "ticks.csv", case)
    schema = {"timestamp": "ts", "price": "px", "volume": "vol"}
    assert _outcome(_parse, path, schema) == _outcome(_dictreader_parse, path, schema)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(case=_tick_files() | _unordered_tick_files())
def test_parse_ticks_matches_dictreader_oracle_across_block_edges(tmp_path_factory, block_rows,
                                                                   case):
    """Blocks of one, two and three records give the oracle's series and counts."""
    path = _write_case(tmp_path_factory.mktemp("ticks") / "ticks.csv", case)
    schema = {"timestamp": "ts", "price": "px", "volume": "vol"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tk, "PARSE_BLOCK_ROWS", block_rows)
        outcome = _outcome(_parse, path, schema)
    assert outcome == _outcome(_dictreader_parse, path, schema)


def _second_rows(n):
    """``n`` in-order trades one second apart from 2017-03-15 00:00."""
    start = dt.datetime(2017, 3, 15)
    return [f"{(start + dt.timedelta(seconds=k)).isoformat()},{100 + k % 997 / 64},1"
            for k in range(n)]


@pytest.mark.parametrize("block_rows", [3, None], ids=["3", "default"])
def test_parse_ticks_file_of_whole_blocks(tmp_path, monkeypatch, block_rows):
    """A record count that is an exact multiple of the block size ends the loop
    with every record parsed."""
    if block_rows:
        monkeypatch.setattr(tk, "PARSE_BLOCK_ROWS", block_rows)
    n = 2 * tk.PARSE_BLOCK_ROWS
    series = _parse(_tick_file(tmp_path, _second_rows(n)), SCHEMA, _spec())
    assert series.total_rows == n and series.rejected == 0
    start = _wall_us(dt.datetime(2017, 3, 15))
    assert series.times.tolist() == [start + k * 1_000_000 for k in range(n)]
    assert series.prices.tolist() == [100 + k % 997 / 64 for k in range(n)]


@pytest.mark.parametrize("block_rows", [2, None], ids=["2", "default"])
def test_parse_ticks_all_rejected_across_blocks(tmp_path, monkeypatch, block_rows):
    """ZeroValidRows counts the rejected rows of every block, not of the last one."""
    if block_rows:
        monkeypatch.setattr(tk, "PARSE_BLOCK_ROWS", block_rows)
    n = 3 * tk.PARSE_BLOCK_ROWS + 1
    path = _tick_file(tmp_path, ["2017-03-15 13:00:01,n/a,1"] * n)
    with pytest.raises(tk.ZeroValidRows, match=rf"\({n} rejected\)"):
        tk.parse_ticks(path, SCHEMA, _spec())


def _rule_parse(path, schema, spec):
    """The DictReader oracle with the rules it lacks: a price outside (0, inf), a volume
    that int() refuses and an offset stamp whose conversion leaves the calendar are
    rejected rows."""
    tz = spec.tzinfo()
    vol_col = schema.get("volume")
    times, prices = [], []
    rejected = total = 0
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle, restval=""):
            total += 1
            try:
                stamp = dt.datetime.fromisoformat(row[schema["timestamp"]].strip())
                if stamp.tzinfo is not None:
                    stamp = stamp.astimezone(tz)
                price = float(row[schema["price"]])
                volume = int(float(row[vol_col])) if vol_col else 0
            except (OverflowError, ValueError):
                rejected += 1
                continue
            if not 0.0 < price < math.inf or volume < 0:
                rejected += 1
                continue
            times.append(_wall_us(stamp))
            prices.append(price)
    if not times:
        raise tk.ZeroValidRows(f"{path}: no valid tick rows ({rejected} rejected)")
    order = np.argsort(np.array(times, dtype=np.int64), kind="stable")
    return _Held("", np.array(times, dtype=np.int64)[order], np.array(prices)[order],
                 rejected, total)


_EDGE_FIELDS = {
    "ts": ["2017-11-05T01:30:00-05:00", "2017-11-05T07:30:00+00:00", "2017-11-05",
           "2017-11-05T24:00:00", "2016-02-29T10:00:00", "2017-02-29T10:00:00",
           "2000-02-29T10:00:00", "1900-02-29T10:00:00", " 2017-11-05T10:00:00",
           "2017-11-05T10:00:00 ", "\uff12\uff10\uff11\uff17-11-05T10:00:00",
           "2017-11-05T10:00:0\u0665", "2017-11-05 10:00:00", "2017-11-05T10:00:00.5",
           "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
           "0001-01-01T00:30:00+01:00", "2017-13-01T00:00:00", "2017-00-01T00:00:00",
           "2017-11-31T00:00:00", "2017-11-00T00:00:00", "2017-11-05T23:59:60",
           "2017-11-05T10:60:00", "2017-11-05t10:00:00", "2017/11/05T10:00:00", "x" * 19,
           "2017-11-05T10:00:00+00:60", "2017-11-05T10:00:00+23:59", "2017-11-05T10:00:00-23:59",
           "2017-11-05T10:00:00+24:00", "2017-11-05T10:00:00-00:00", "2017-11-05T10:00:00Z",
           "2017-11-05T10:00:00+0530", "2017-11-05T10:00:00.5+01:00",
           "9999-12-31T23:30:00-01:00", "2017-11-05T06:30:00+00:00"],
    "px": ["nan", "inf", "-inf", "1e400", "-0.5", "1_0", " 100 ", "\uff11\uff10\uff10", "0",
           "", "n/a", "1e2", "+7", "1e-400"],
    "vol": ["nan", "inf", "-inf", "1e400", "-0.5", "-1", "-0.9999", "1_0", " 5 ",
            "\uff15", "", "x", "1e18", "-0"],
    "note": ["", "\u00e9t\u00e9"],
}


@st.composite
def _mixed_tick_files(draw):
    """Clean rows, some of them reaching past one block, with edge rows mixed in."""
    header = draw(st.sampled_from([["ts", "px", "vol"], ["vol", "ts", "px"],
                                   ["px", "note", "ts", "vol"]]))
    n = draw(st.sampled_from([1, 5, tk.PARSE_BLOCK_ROWS - 1, tk.PARSE_BLOCK_ROWS + 3]))
    start = dt.datetime(2017, 11, 4, 22)
    clean = {"ts": lambda k: (start + dt.timedelta(seconds=7 * k)).isoformat(),
             "px": lambda k: f"{100 + k % 89 / 16}", "vol": lambda k: str(k % 50), "note": str}
    lines = [[clean[name](k) for name in header] for k in range(n)]
    edits = st.sampled_from([(header.index(name), value) for name in header
                             for value in _EDGE_FIELDS[name]])
    for column, value in draw(st.lists(edits, min_size=1, max_size=40)):
        lines[draw(st.integers(0, n - 1))][column] = value
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, n - 1))
        # a blank, a short or a long line
        lines[k] = draw(st.sampled_from([[], lines[k][:-1], lines[k] + ["7"]]))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"]))] * (len(lines) + 1)
    if draw(st.booleans()):  # one line ended by a lone carriage return
        ends[draw(st.integers(0, len(lines)))] = "\r"
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(",".join(line) + end for line, end in zip([header, *lines], ends))


@settings(max_examples=150, deadline=None)
@given(case=_mixed_tick_files())
@example(case="ts,px,vol\n2017-11-05T01:00:00,100\r7,1\n2017-11-05T01:00:01,101,1\n")
@example(case="ts,px,vol\n" + "".join(f"{ts},100,1\n" for ts in _EDGE_FIELDS["ts"]))
def test_parse_ticks_column_path_matches_dictreader_oracle(tmp_path_factory, case):
    """Blocks whose clean rows take the column path and whose edge rows (non-finite,
    overflowing, padded or non-ASCII numbers, offset, date-only, impossible or
    non-ASCII stamps, leap days, short, long and blank lines, carriage returns) take
    either path give the DictReader oracle's series and counts. A lone carriage
    return ends a record even where the next line would complete its fields."""
    path = tmp_path_factory.mktemp("ticks") / "ticks.csv"
    path.write_bytes(case.encode())
    schema = {"timestamp": "ts", "price": "px", "volume": "vol"}
    assert _outcome(_parse, path, schema) == _outcome(_rule_parse, path, schema)


def test_parse_ticks_same_series_when_no_block_qualifies(tmp_path, monkeypatch):
    """On five-second ticks across a DST switch with offset stamps and malformed rows,
    refusing every block to the column path changes no bit of the series or counts."""
    rng = random.Random(3)
    lines = []
    for k in range(3 * tk.PARSE_BLOCK_ROWS + 17):
        stamp = dt.datetime(2017, 3, 11, 20) + dt.timedelta(seconds=5 * k + rng.randrange(5))
        text = stamp.isoformat()
        if rng.random() < 0.1:  # an explicit offset, local or UTC
            local = stamp.replace(tzinfo=ZoneInfo(TZ))
            text = local.isoformat() if rng.random() < 0.5 else local.astimezone(
                dt.timezone.utc).isoformat()
        lines.append(f"{text},{100 + rng.random():.6f},{rng.randrange(1, 50)}")
        if rng.random() < 0.01:
            bad = stamp.date().isoformat()
            lines.append(rng.choice([f"{bad}T25:61:00,100.0,1", f"{bad}T12:00:00,n/a,1",
                                     f"{bad}T12:00:00,0.0,1", f"{bad}T12:00:00,100.0,-5"]))
    path = _tick_file(tmp_path, lines)
    gate = tk._clean_block
    verdicts = []
    monkeypatch.setattr(tk, "_clean_block",
                        lambda *args: verdicts.append(gate(*args)) or verdicts[-1])
    columns = _parse(path, SCHEMA, _spec())
    assert len(verdicts) == 4 and None not in verdicts  # every block took the column path
    monkeypatch.setattr(tk, "_clean_block", lambda *args: None)
    rows = _parse(path, SCHEMA, _spec())
    assert columns.rejected > 0
    assert (columns.times.tobytes(), columns.prices.tobytes(), columns.rejected,
            columns.total_rows) == (rows.times.tobytes(), rows.prices.tobytes(), rows.rejected,
                                    rows.total_rows)


@pytest.mark.parametrize("zone", ["Europe/London", "Australia/Lord_Howe", "Asia/Kathmandu",
                                  "America/St_Johns"])
def test_parse_ticks_offset_stamps_match_astimezone_near_transitions(tmp_path, monkeypatch,
                                                                      zone):
    """Offset stamps of every UTC second within an hour of a zone's 2017 transitions
    (or of 2017's first instant, where it has none), written with offsets of whole hours,
    half hours and odd minutes, are all decoded in bulk and give the oracle's series."""
    tz = ZoneInfo(zone)
    hours = [dt.datetime(2017, 1, 1, tzinfo=dt.timezone.utc) + dt.timedelta(hours=k)
             for k in range(365 * 24)]
    moves = [b for a, b in zip(hours, hours[1:]) if a.astimezone(tz).utcoffset()
             != b.astimezone(tz).utcoffset()] or hours[:1]
    suffixes = [dt.timedelta(minutes=m) for m in (0, 60, -150, 345, 811, -839)]
    rows = []
    for k, instant in enumerate(m + dt.timedelta(seconds=s) for m in moves
                                for s in range(-3600, 3600)):
        shift = dt.timezone(suffixes[k % len(suffixes)])
        rows.append(f"{instant.astimezone(shift).isoformat()},{100 + k % 97 / 8},1")
    path = _tick_file(tmp_path, rows)
    spec = tk.SessionSpec(dt.time(9), dt.time(10), zone, 60)
    convert, converted = tk._zone_wall_us, []
    monkeypatch.setattr(tk, "_zone_wall_us",
                        lambda utc, tz: converted.append(utc.size) or convert(utc, tz))
    series = _parse(path, SCHEMA, spec)
    oracle = _rule_parse(path, SCHEMA, spec)
    assert len(moves) == (1 if zone == "Asia/Kathmandu" else 2)
    assert sum(converted) == len(rows) == series.total_rows and series.rejected == 0
    assert (series.times.tolist(), series.prices.tobytes()) == (oracle.times.tolist(),
                                                                oracle.prices.tobytes())


def test_no_zone_has_two_transitions_within_an_hour():
    """_zone_wall_us reads one UTC hour's offset from its two ends: no two transitions of
    any installed zone may lie within an hour of each other."""
    from zoneinfo import _zoneinfo, available_timezones

    closest = min(((b - a, key) for key in available_timezones()
                   for a, b in itertools.pairwise(_zoneinfo.ZoneInfo(key)._trans_utc)),
                  default=(math.inf, ""))
    assert closest[0] > 3600, closest


def test_parse_ticks_quoted_and_crlf_files_decode_offset_stamps_in_bulk(tmp_path, monkeypatch):
    """One tick file written with "\\n" line ends, with csv.QUOTE_ALL and with "\\r\\n" line
    ends gives the same series and counts all three ways, and every offset stamp of each
    copy is converted in bulk, though only the first copy's blocks pass _clean_block."""
    rows, zoned = [["time", "px", "vol"]], 0
    for k in range(2 * tk.PARSE_BLOCK_ROWS + 17):
        stamp = dt.datetime(2017, 11, 4, 22) + dt.timedelta(seconds=5 * k)
        text = stamp.isoformat()
        if k % 3 == 0:  # an explicit offset, across the fall-back switch
            text, zoned = stamp.replace(tzinfo=ZoneInfo(TZ)).isoformat(), zoned + 1
        rows.append([text, "n/a" if k % 101 == 0 else f"{100 + k % 89 / 16}", str(k % 7)])
    convert, converted = tk._zone_wall_us, []
    monkeypatch.setattr(tk, "_zone_wall_us",
                        lambda utc, tz: converted.append(utc.size) or convert(utc, tz))
    outcomes = []
    for name, options in [("lf", {"lineterminator": "\n"}),
                          ("quoted", {"lineterminator": "\n", "quoting": csv.QUOTE_ALL}),
                          ("crlf", {})]:
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle, **options).writerows(rows)
        converted.clear()
        series = _parse(path, SCHEMA, _spec())
        assert sum(converted) == zoned, name
        outcomes.append((series.times.tobytes(), series.prices.tobytes(), series.rejected,
                         series.total_rows))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][2:] == (len(rows[1::101]), len(rows) - 1)


def test_parse_ticks_stamp_holding_a_line_end(tmp_path):
    """A quoted stamp that holds a line end sends every stamp of its block to be read on
    its own, and the block gives the oracle's series and counts."""
    path = tmp_path / "ticks.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([
            ["time", "px", "vol"], ["2017-11-05T01:30:00-05:00", "100", "1"],
            ["2017-11-05T01:40:00\n", "101", "1"], ["2017-11-05T06:50:00+00:00", "102", "1"],
            ["2017-11-05\nT01:55:00", "103", "1"], ["2017-11-05T02:00:00", "104", "1"]])
    assert _outcome(_parse, path, SCHEMA) == _outcome(_rule_parse, path, SCHEMA)
    assert tk.parse_ticks(path, SCHEMA, _spec()).total_rows == 5


def test_parse_ticks_reduces_trades_across_blocks(tmp_path, monkeypatch):
    """Trades reduced seven records at a time, rejected rows among them, give the
    oracle's series, and each date's reduction samples as the held trades do."""
    monkeypatch.setattr(tk, "PARSE_BLOCK_ROWS", 7)
    start = dt.datetime(2017, 3, 15, 8, 40)
    rows = [f"{(start + dt.timedelta(seconds=47 * k)).isoformat()},{100 + k % 89 / 16},1"
            for k in range(200)]
    rows[3::11] = ["2017-03-15T09:30:00,n/a,1"] * len(rows[3::11])
    path = _tick_file(tmp_path, rows, header="ts,px,vol")
    schema = {"timestamp": "ts", "price": "px", "volume": "vol"}
    assert _outcome(_parse, path, schema) == _outcome(_dictreader_parse, path, schema)


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
def test_parse_ticks_peak_memory_per_row(tmp_path, shuffled):
    """No trade is held once its block is read, in or out of wall-clock order: the
    peak of Python and numpy allocations while parsing 4n rows stays within 64 KiB
    of the peak at n rows, and under the 32 bytes per row that held trades took."""
    peaks = []
    for n in (50_000, 200_000):
        rows = _second_rows(n)
        if shuffled:
            random.Random(0).shuffle(rows)
        path = _tick_file(tmp_path, rows, name=f"{n}.csv")
        del rows
        gc.collect()
        tracemalloc.start()
        try:
            series = tk.parse_ticks(path, SCHEMA, _spec())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert series.total_rows == n and series.rejected == 0
        assert peaks[-1] / n <= 32, f"peak {peaks[-1] / n:.1f} B per row"
    assert peaks[1] - peaks[0] <= 64 << 10, f"peaks {peaks}"


def test_last_tick_sampling_rule():
    date = dt.date(2017, 3, 15)
    recs = [
        _rec("2017-03-15 09:00:12", 100.1),
        _rec("2017-03-15 09:00:48", 100.3),
        _rec("2017-03-15 09:01:30", 100.2),
    ]
    prices = tk.sample_last_tick(_series(recs), date)
    assert prices[1] == 100.3  # 09:01 takes the last trade at or before it
    assert prices[2] == 100.2
    assert prices[3] == 100.2  # carry-forward when (09:02, 09:03] is silent
    assert prices[-1] == 100.2
    assert prices[0] == 100.1  # 09:00 precedes the first trade: back-filled


def test_single_tick_constant_path():
    date = dt.date(2017, 3, 15)
    recs = [_rec("2017-03-15 09:00:30", 101.5)]
    prices = tk.sample_last_tick(_series(recs), date)
    assert np.all(prices == 101.5)
    panel = tk.build_panel({"X": prices}, date)
    assert np.all(panel.returns == 0.0)


def test_no_session_trades_unusable():
    date = dt.date(2017, 3, 15)
    recs = [_rec("2017-03-15 14:00:00", 100.0)]  # after the session
    with pytest.raises(tk.DayUnusable):
        tk.sample_last_tick(_series(recs), date)


def test_sampling_idempotent_on_gridded_series():
    date = dt.date(2017, 3, 15)
    spec = _spec()
    grid = tk.grid_us(spec, date)
    base = [100.0 + 0.1 * k for k in range(len(grid))]
    recs = [(int(t), p) for t, p in zip(grid, base)]
    prices = tk.sample_last_tick(_series(recs), date)
    assert prices == pytest.approx(base, rel=0)


def test_array_sampling_matches_per_tick_loops():
    """The held trades' day cut, sample_last_tick and trade_fraction equal the per-tick
    loops they replaced."""
    rng = np.random.default_rng(3)
    spec = _spec(interval=60)
    day0 = dt.date(2017, 3, 14)
    midnight = _wall_us(dt.datetime.combine(day0, dt.time()))
    secs = rng.integers(0, 3, 90) * 86_400 + rng.integers(8 * 3600, 11 * 3600, 90)
    secs[::3] -= secs[::3] % 60  # some trades sit exactly on a grid instant
    edges = [k * 86_400 + h * 3600 for k in range(3) for h in (9, 10)]  # session bounds
    times = np.sort(midnight + np.repeat(np.append(secs, edges), 2) * 1_000_000)  # with ties
    held = _Held("X", times, rng.uniform(99.0, 101.0, times.size))
    series = tk.TickDays("X", spec)
    series.add(held.times, held.prices, times.size)
    assert sorted(series.days) == [day0 + dt.timedelta(days=k) for k in range(3)]
    for k in range(3):
        date = day0 + dt.timedelta(days=k)
        day = [(t, p) for t, p in zip(held.times.tolist(), held.prices.tolist())
               if (t - midnight) // 86_400_000_000 == k]
        grid = tk.grid_us(spec, date).tolist()
        expected, last, idx = [], None, 0
        for g in grid:
            while idx < len(day) and day[idx][0] <= g:
                last = day[idx][1]
                idx += 1
            expected.append(day[0][1] if last is None else last)
        hit = {min(11, (t - grid[0]) // 300_000_000) for t, _ in day if grid[0] < t <= grid[-1]}
        assert _held_day(held, date)[1].tolist() == [p for _, p in day]
        assert tk.sample_last_tick(series, date).tolist() == expected
        assert tk.trade_fraction(series, date) == len(hit) / 12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3 * _DAY, 40 * _DAY), max_size=60)
       | st.lists(st.sampled_from([-_DAY - 1, -_DAY, -1, 0, 1, _DAY - 1, _DAY]), max_size=8))
def test_dates_and_trade_fraction_match_np_unique(stamps):
    """The reduction's dates and trade_fraction count the distinct values of sorted arrays
    as np.unique did: days before 1970, stamps on and next to midnight, no trades."""
    times = np.sort(np.array(stamps, dtype=np.int64))
    spec = _spec("00:00", "23:00", 60)
    series = tk.TickDays("X", spec)
    series.add(times, np.ones(times.size), times.size)
    expected = [dt.date(1970, 1, 1) + dt.timedelta(days=int(d)) for d in np.unique(times // _DAY)]
    assert sorted(series.days) == expected
    for date in [*expected, dt.date(1970, 1, 1)]:
        grid = tk.grid_us(spec, date)
        day = times[times // _DAY == (date - dt.date(1970, 1, 1)).days]
        offsets = day[(day > grid[0]) & (day <= grid[-1])] - grid[0]
        bins = np.minimum(275, offsets // 300_000_000)
        assert tk.trade_fraction(series, date) == len(np.unique(bins)) / 276


def test_log_return_definition():
    date = dt.date(2017, 3, 15)
    panel = tk.build_panel({"X": [100.0, 101.0]}, date)  # one interval
    assert panel.returns[0, 0] == pytest.approx(math.log(1.01), rel=1e-12)
    assert panel.returns[0, 0] == pytest.approx(0.00995, abs=5e-6)


def test_build_panel_validation():
    date = dt.date(2017, 3, 15)
    with pytest.raises(ValueError):  # grids of two lengths make no d x N panel
        tk.build_panel({"X": [100.0, 101.0], "Y": [100.0, 101.0, 102.0]}, date)


def test_return_panel_invariants():
    date = dt.date(2017, 3, 15)
    with pytest.raises(ValueError, match="matrix"):
        tk.ReturnPanel(date, ["A", "B"], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="finite"):
        tk.ReturnPanel(date, ["A"], np.array([[np.nan, 0.0]]))
    panel = tk.ReturnPanel(date, ["A"], np.zeros((1, 2)))
    assert np.array_equal(panel.series("A"), np.zeros(2))


def _dense_day(date_str, every_seconds=30, price=100.0):
    """Trades every few seconds across the whole session."""
    base = dt.datetime.fromisoformat(f"{date_str} 09:00:00")
    recs = []
    for k in range(3600 // every_seconds):
        recs.append((_wall_us(base + dt.timedelta(seconds=k * every_seconds + 1)),
                     price + 0.01 * (k % 3)))
    return recs


def _sparse_day(date_str, fraction, price=100.0):
    """Trades in only the first ``fraction`` of the session's 5-min bins."""
    base = dt.datetime.fromisoformat(f"{date_str} 09:00:00")
    n_bins = 12
    hit = round(fraction * n_bins)
    recs = []
    for b in range(hit):
        recs.append((_wall_us(base + dt.timedelta(seconds=300 * b + 10)), price))
    return recs


def test_trade_fraction_counts_bins():
    date = dt.date(2017, 3, 15)
    series = _series(_sparse_day("2017-03-15", 0.55))
    # 0.55 rounds to 7 of 12 bins hit
    assert tk.trade_fraction(series, date) == pytest.approx(7 / 12)


def test_build_panels_filters():
    cal = tk.TradingCalendar(excluded_dates=frozenset({dt.date(2017, 3, 16)}))
    x = _series(
        _dense_day("2017-03-15")
        + _dense_day("2017-03-16")
        + _sparse_day("2017-03-17", 6 / 12)  # 50% of bins, below 0.60
        + _dense_day("2017-03-20"),
        instrument="X",
    )
    y = _series(
        _dense_day("2017-03-15")
        + _dense_day("2017-03-16")
        + _sparse_day("2017-03-17", 6 / 12),
        instrument="Y",
    )
    panels = []
    kept, drop_log = tk.build_panels({"X": x, "Y": y}, cal, panels.append)
    assert kept == 1
    assert [p.date for p in panels] == [dt.date(2017, 3, 15)]
    reasons = dict((d.isoformat(), r) for d, r in drop_log)
    assert reasons["2017-03-16"] == "excluded_date"
    assert reasons["2017-03-17"] == "low_trade"
    assert reasons["2017-03-20"].startswith("missing_instrument:Y")
    panel = panels[0]
    assert panel.instruments == ["X", "Y"]
    assert panel.returns.shape == (2, 60)
    assert np.all(np.isfinite(panel.returns))


def test_thin_day_kept_when_one_leg_active():
    """The low-trade drop fires only when every instrument is thin."""
    cal = tk.TradingCalendar()
    x = _series(_sparse_day("2017-03-15", 6 / 12), instrument="X")
    y = _series(_dense_day("2017-03-15"), instrument="Y")
    panels = []
    assert tk.build_panels({"X": x, "Y": y}, cal, panels.append) == (1, [])
    assert len(panels) == 1


# Trades around Chicago's 02:00 switches: the session 00:30-03:30 (N = 12, 36 five-minute
# bins) holds the hour that 2017-03-12 skips and the one that 2017-11-05 repeats.
_ORACLE_SPEC = _spec("00:30", "03:30", 900)
_ORACLE_DATES = [dt.date(2017, 3, 10), dt.date(2017, 3, 12), dt.date(2017, 3, 13),
                 dt.date(2017, 11, 5)]
_GRID_SECONDS = [1800 + 900 * k for k in range(13)]
_SECONDS = {  # seconds of the day by what a date holds for one instrument
    "absent": st.nothing(),
    "outside": st.integers(0, 1799) | st.integers(12_601, 18_000),  # before open, after close
    "open": st.integers(0, 1800) | st.just(1800),  # the one session trade, if any, at the open
    "thin": st.integers(1800, 2700) | st.sampled_from([1800, 1805, 2700]),
    "dense": st.integers(0, 18_000) | st.sampled_from(_GRID_SECONDS + [1805, 9000, 9001]),
}


@st.composite
def _oracle_trades(draw):
    """One instrument's rows as (date, second of the day, price text, stamp form)."""
    rows = []
    for date in _ORACLE_DATES:
        kind = draw(st.sampled_from(list(_SECONDS)))
        for _ in range(0 if kind == "absent" else draw(st.integers(1, 14))):
            price = draw(st.sampled_from(["99.5", "100", "100.25", "101.0625", "n/a"]))
            form = draw(st.sampled_from(["naive", "naive", "local", "folded", "utc"]))
            rows.append((date, draw(_SECONDS[kind]), price, form))
    order = draw(st.sampled_from(["drawn", "sorted", "shuffled"]))
    if order == "sorted":
        rows.sort(key=lambda row: row[:2])
    elif order == "shuffled":
        rows = draw(st.permutations(rows))
    return rows


def _oracle_line(date, second, price, form):
    wall = dt.datetime.combine(date, dt.time()) + dt.timedelta(seconds=second)
    if form == "naive":
        return f"{wall.isoformat()},{price},1"
    local = wall.replace(tzinfo=ZoneInfo(TZ), fold=int(form == "folded"))
    stamp = local.astimezone(dt.timezone.utc) if form == "utc" else local
    return f"{stamp.isoformat()},{price},1"


def _built_panels(series, calendar):
    """build_panels' panels, as written in turn, and its drop log."""
    panels = []
    kept, drop_log = tk.build_panels(series, calendar, panels.append)
    assert kept == len(panels)
    return panels, drop_log


def _oracle_outcome(parse, build, paths, calendar):
    """The panels' dates, legs and return bytes and the drop log, or ZeroValidRows."""
    try:
        series = {name: parse(path, SCHEMA, _ORACLE_SPEC, name) for name, path in paths.items()}
    except tk.ZeroValidRows as exc:
        return str(exc)
    panels, drop_log = build(series, calendar)
    return [(p.date, p.instruments, p.returns.tobytes()) for p in panels], drop_log


_ORACLE_EXAMPLE = (  # every kind of date, and equal stamps within and across blocks of 3
    3, set(), 0.02,
    {"A": [(_ORACLE_DATES[0], 2000, "100", "naive"), (_ORACLE_DATES[0], 2700, "101.0625", "utc"),
           (_ORACLE_DATES[0], 1805, "99.5", "naive"), (_ORACLE_DATES[0], 1805, "100.25", "local"),
           (_ORACLE_DATES[0], 3600, "n/a", "naive"), (_ORACLE_DATES[0], 3600, "100", "naive"),
           (_ORACLE_DATES[0], 3600, "101.0625", "utc"), (_ORACLE_DATES[0], 12_700, "99.5", "naive"),
           (_ORACLE_DATES[1], 100, "100", "naive"), (_ORACLE_DATES[1], 13_000, "101.0625", "utc"),
           (_ORACLE_DATES[2], 4000, "100.25", "naive"),
           (_ORACLE_DATES[3], 5400, "100", "folded"), (_ORACLE_DATES[3], 5400, "99.5", "local"),
           (_ORACLE_DATES[3], 1800, "101.0625", "naive")],
     "B": [(_ORACLE_DATES[3], 12_600, "100.25", "naive"), (_ORACLE_DATES[0], 9000, "100", "naive"),
           (_ORACLE_DATES[0], 1800, "100.25", "utc"), (_ORACLE_DATES[3], 0, "99.5", "naive"),
           (_ORACLE_DATES[1], 3600, "100", "local"), (_ORACLE_DATES[3], 7200, "101.0625", "local")]},
)


@settings(max_examples=200, deadline=None)
@given(case=st.tuples(st.sampled_from([1, 2, 3, 7, tk.PARSE_BLOCK_ROWS]),
                      st.sets(st.sampled_from(_ORACLE_DATES), max_size=1),
                      st.sampled_from([0.02, 0.1, 0.3]),
                      st.fixed_dictionaries({"A": _oracle_trades(), "B": _oracle_trades()})))
@example(case=_ORACLE_EXAMPLE)
@example(case=(2, set(), 0.02, {"A": [(_ORACLE_DATES[0], 1800, "100", "naive"),
                                      (_ORACLE_DATES[0], 900, "101.0625", "naive"),
                                      (_ORACLE_DATES[1], 1800, "99.5", "naive")],
                                "B": [(_ORACLE_DATES[0], 3600, "100", "naive"),
                                      (_ORACLE_DATES[1], 600, "100", "naive"),
                                      (_ORACLE_DATES[1], 1800, "100.25", "naive")]}))
def test_build_panels_matches_held_tick_oracle(tmp_path_factory, case):
    """Panels and drop log from the per-date reduction equal, bit for bit, those of the
    held-tick path on drawn files: rows in, out of and shuffled from wall-clock order,
    equal stamps within and across blocks, trades before the open, after the close and
    on grid instants (a date whose one session trade is at the open included), offset stamps on both DST switch dates, thin dates, dates with
    out-of-session trades only and dates that one instrument lacks."""
    block_rows, excluded, threshold, trades = case
    folder = tmp_path_factory.mktemp("oracle")
    paths = {name: _tick_file(folder, [_oracle_line(*row) for row in rows], name=f"{name}.csv")
             for name, rows in trades.items()}
    calendar = tk.TradingCalendar(frozenset(excluded), threshold)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tk, "PARSE_BLOCK_ROWS", block_rows)
        reduced = _oracle_outcome(tk.parse_ticks, _built_panels, paths, calendar)
        held = _oracle_outcome(
            _held_parse, lambda series, cal: _held_panels(series, _ORACLE_SPEC, cal), paths, calendar)
    assert reduced == held


def test_calendar_threshold_validation():
    with pytest.raises(ValueError, match="low_trade_threshold"):
        tk.TradingCalendar(low_trade_threshold=0.0)
    assert tk.TradingCalendar().low_trade_threshold == 0.60


def test_panel_csv_roundtrip(tmp_path):
    date = dt.date(2017, 3, 15)
    spec = _spec(interval=900)
    rng = np.random.default_rng(5)
    panel = tk.ReturnPanel(date, ["X", "Y"], rng.standard_normal((2, 4)) * 1e-4)
    path = tmp_path / "panel.csv"
    tk.write_panel_csv(panel, path, spec)
    back = tk.read_panel_csv(path, spec)
    assert back.date == date
    assert back.instruments == ["X", "Y"]
    assert np.array_equal(back.returns, panel.returns)  # repr round-trips exactly
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["date", "grid_time", "X", "Y"]
    with pytest.raises(tk.MalformedFile, match="not a panel file"):
        tk.read_panel_csv(__file__, spec)


def _write_csv_panel(panel, path, spec):
    """The panel writer as it was: every row through ``write_csv``."""
    date = panel.date.isoformat()
    rows = ([date, t, *r] for t, r in zip(spec.grid_labels(), panel.returns.T.tolist()))
    write_csv(path, ["date", "grid_time", *panel.instruments], rows)


_EDGE_RETURNS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e-05, -1e-05, 1e16, -1e16,
                 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def _panels(draw):
    interval = draw(st.sampled_from([3600, 900, 300, 60]))
    names = draw(st.lists(st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True), max_size=3))
    values = st.sampled_from(_EDGE_RETURNS) | st.floats(allow_nan=False, allow_infinity=False)
    n = 3600 // interval
    returns = draw(st.lists(st.lists(values, min_size=n, max_size=n),
                            min_size=len(names), max_size=len(names)))
    date = draw(st.dates())
    return _spec(interval=interval), tk.ReturnPanel(date, names, np.array(returns).reshape(-1, n))


@settings(max_examples=200, deadline=None)
@given(_panels())
@example((_spec(interval=900), tk.ReturnPanel(dt.date(2017, 3, 15), ["TU", "FV", "TY"],
                                              np.array(_EDGE_RETURNS + [1.0]).reshape(3, 4))))
@example((_spec(interval=3600), tk.ReturnPanel(dt.date(1, 1, 1), [], np.empty((0, 1)))))
def test_write_panel_csv_matches_write_csv(tmp_path_factory, case):
    """A panel written line by line has the bytes of the same rows through write_csv:
    signed zeros, subnormals, the largest float, no legs and years before 1000."""
    spec, panel = case
    folder = tmp_path_factory.mktemp("panel")
    tk.write_panel_csv(panel, folder / "lines.csv", spec)
    _write_csv_panel(panel, folder / "rows.csv", spec)
    assert (folder / "lines.csv").read_bytes() == (folder / "rows.csv").read_bytes()


@pytest.mark.parametrize("start, end, interval", [("10:00", "11:00", 900), ("09:00", "10:00", 600)])
def test_panel_csv_other_session_rejected(tmp_path, start, end, interval):
    """A panel written under another session (same N, or another N) is refused."""
    date = dt.date(2017, 3, 15)
    spec = _spec(interval=900)
    panel = tk.ReturnPanel(date, ["X"], np.zeros((1, 4)))
    path = tmp_path / "panel.csv"
    tk.write_panel_csv(panel, path, spec)
    with pytest.raises(tk.SessionMismatch, match="panel.csv"):
        tk.read_panel_csv(path, _spec(start, end, interval))



def test_drop_log_csv(tmp_path):
    """The drop log ingest writes holds one (date, reason) row per dropped date, in date order."""
    def minutes(day, every):  # one trade each ``every`` minutes from 09:00:30
        return [f"{day} 09:{m:02d}:30,100.{m % 7},1" for m in range(0, 60, every)]
    x = minutes("2017-03-13", 1) + minutes("2017-03-14", 1) + minutes("2017-03-15", 1)
    y = minutes("2017-03-13", 1) + minutes("2017-03-15", 1)
    _tick_file(tmp_path, x + minutes("2017-03-16", 30), name="x.csv")
    _tick_file(tmp_path, y + minutes("2017-03-16", 30), name="y.csv")
    config = {
        "session": {"start": "09:00", "end": "10:00", "timezone": TZ, "sampling_seconds": 60},
        "instruments": ["X", "Y"],
        "ticks": {n: {"path": f"{n.lower()}.csv", "schema": SCHEMA} for n in ("X", "Y")},
        "calendar": {"excluded_dates": ["2017-03-15"]},
        "output": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["ingest", "--config", str(tmp_path / "config.json")]) == cli.EXIT_OK
    rows = list(csv.reader(open(tmp_path / "out" / "drop_log.csv", newline="")))
    assert rows == [["date", "reason"], ["2017-03-14", "missing_instrument:Y"],
                    ["2017-03-15", "excluded_date"], ["2017-03-16", "low_trade"]]
    assert os.listdir(tmp_path / "out" / "panels") == ["panel_2017-03-13.csv"]
