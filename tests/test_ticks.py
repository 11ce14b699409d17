"""Tick parsing, last-tick sampling, and panel construction."""

import csv
import datetime as dt
import math

import numpy as np
import pytest

from cojump import ticks as tk

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


def _wall_us(stamp):
    """Wall-clock microseconds of a naive or session-zone stamp."""
    return (stamp.replace(tzinfo=None) - dt.datetime(1970, 1, 1)) // dt.timedelta(microseconds=1)


def _series(recs, instrument="X"):
    recs = sorted(recs)
    return tk.TickSeries(
        instrument=instrument,
        times=np.array([t for t, _ in recs], dtype=np.int64),
        prices=np.array([p for _, p in recs]),
    )


def _rec(stamp, price):
    return _wall_us(dt.datetime.fromisoformat(stamp)), price


def test_session_spec_geometry():
    spec = _spec("07:00", "16:00", 300)
    assert spec.session_seconds == 9 * 3600
    assert spec.n_intervals == 108
    grid = spec.grid_us(dt.date(2017, 3, 15))
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
    assert [_label(us) for us in spec.grid_us(date)[:-1]] == expected
    berlin = tk.SessionSpec(dt.time(1), dt.time(2), "Europe/Berlin", 900)
    assert berlin.grid_labels() == ["01:00:00", "01:15:00", "01:30:00", "01:45:00"]


def test_session_spec_validation():
    with pytest.raises(ValueError, match="precede"):
        _spec("10:00", "09:00")
    with pytest.raises(ValueError, match="divide"):
        _spec("09:00", "10:00", interval=700)
    with pytest.raises(Exception):
        tk.SessionSpec(dt.time(9), dt.time(10), "Not/AZone", 60)


def test_parse_ticks_field_mapping(tmp_path):
    path = _tick_file(tmp_path, ["2017-03-15 13:00:01,124.53125,12"])
    series = tk.parse_ticks(path, SCHEMA, _spec(), instrument="ZN")
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
    series = tk.parse_ticks(path, SCHEMA, _spec(), instrument="ZN")
    assert series.total_rows == 5
    assert series.rejected == 3
    assert len(series.times) == 2
    assert len(series.times) + series.rejected == series.total_rows
    assert len(series.diagnostics) == 3


def test_parse_ticks_rejects_short_rows(tmp_path):
    """A row without its timestamp field is rejected, not a crash."""
    path = _tick_file(tmp_path, ["100.0,5,2017-03-15T09:00:01", "100.5,3"], header="px,vol,ts")
    series = tk.parse_ticks(path, {"timestamp": "ts", "price": "px", "volume": "vol"}, _spec())
    assert series.total_rows == 2 and series.rejected == 1
    assert series.prices.tolist() == [100.0]
    assert len(series.diagnostics) == 1 and series.diagnostics[0].startswith("line 3:")


def test_parse_ticks_sorts_and_schema_validation(tmp_path):
    path = _tick_file(
        tmp_path,
        ["2017-03-15 13:00:05,10,1", "2017-03-15 13:00:01,11,1"],
    )
    series = tk.parse_ticks(path, SCHEMA, _spec())
    assert series.times.tolist() == sorted(series.times.tolist())
    assert series.prices.tolist() == [11.0, 10.0]
    with pytest.raises(ValueError, match="price"):
        tk.parse_ticks(path, {"timestamp": "time"}, _spec())
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
    series = tk.parse_ticks(path, SCHEMA, _spec())
    assert series.prices.tolist() == [1.0, 3.0, 4.0, 2.0, 5.0]
    at = dt.datetime(2017, 11, 5, 1, 30)
    assert series.times[:3].tolist() == [_wall_us(at)] * 3
    assert series.dates() == [dt.date(2017, 11, 5)]
    _, prices = series.day(dt.date(2017, 11, 5))
    assert prices.tolist() == [1.0, 3.0, 4.0, 2.0, 5.0]
    assert series.day(dt.date(2017, 11, 6))[0].size == 0


def test_last_tick_sampling_rule():
    date = dt.date(2017, 3, 15)
    recs = [
        _rec("2017-03-15 09:00:12", 100.1),
        _rec("2017-03-15 09:00:48", 100.3),
        _rec("2017-03-15 09:01:30", 100.2),
    ]
    prices = tk.sample_last_tick(_series(recs), _spec(), date)
    assert prices[1] == 100.3  # 09:01 takes the last trade at or before it
    assert prices[2] == 100.2
    assert prices[3] == 100.2  # carry-forward when (09:02, 09:03] is silent
    assert prices[-1] == 100.2
    assert prices[0] == 100.1  # 09:00 precedes the first trade: back-filled


def test_single_tick_constant_path():
    date = dt.date(2017, 3, 15)
    recs = [_rec("2017-03-15 09:00:30", 101.5)]
    prices = tk.sample_last_tick(_series(recs), _spec(), date)
    assert np.all(prices == 101.5)
    panel = tk.build_panel({"X": prices}, date, _spec())
    assert np.all(panel.returns == 0.0)


def test_no_session_trades_unusable():
    date = dt.date(2017, 3, 15)
    recs = [_rec("2017-03-15 14:00:00", 100.0)]  # after the session
    with pytest.raises(tk.DayUnusable):
        tk.sample_last_tick(_series(recs), _spec(), date)


def test_sampling_idempotent_on_gridded_series():
    date = dt.date(2017, 3, 15)
    spec = _spec()
    grid = spec.grid_us(date)
    base = [100.0 + 0.1 * k for k in range(len(grid))]
    recs = [(int(t), p) for t, p in zip(grid, base)]
    prices = tk.sample_last_tick(_series(recs), spec, date)
    assert prices == pytest.approx(base, rel=0)


def test_array_sampling_matches_per_tick_loops():
    """day, sample_last_tick and trade_fraction equal the per-tick loops they replaced."""
    rng = np.random.default_rng(3)
    spec = _spec(interval=60)
    day0 = dt.date(2017, 3, 14)
    midnight = _wall_us(dt.datetime.combine(day0, dt.time()))
    secs = rng.integers(0, 3, 90) * 86_400 + rng.integers(8 * 3600, 11 * 3600, 90)
    secs[::3] -= secs[::3] % 60  # some trades sit exactly on a grid instant
    edges = [k * 86_400 + h * 3600 for k in range(3) for h in (9, 10)]  # session bounds
    times = np.sort(midnight + np.repeat(np.append(secs, edges), 2) * 1_000_000)  # with ties
    series = tk.TickSeries("X", times, rng.uniform(99.0, 101.0, times.size))
    for k in range(3):
        date = day0 + dt.timedelta(days=k)
        day = [(t, p) for t, p in zip(series.times.tolist(), series.prices.tolist())
               if (t - midnight) // 86_400_000_000 == k]
        grid = spec.grid_us(date).tolist()
        expected, last, idx = [], None, 0
        for g in grid:
            while idx < len(day) and day[idx][0] <= g:
                last = day[idx][1]
                idx += 1
            expected.append(day[0][1] if last is None else last)
        hit = {min(11, (t - grid[0]) // 300_000_000) for t, _ in day if grid[0] < t <= grid[-1]}
        assert series.day(date)[1].tolist() == [p for _, p in day]
        assert tk.sample_last_tick(series, spec, date).tolist() == expected
        assert tk.trade_fraction(series, spec, date) == len(hit) / 12


def test_log_return_definition():
    date = dt.date(2017, 3, 15)
    spec = _spec(interval=3600)  # one interval
    panel = tk.build_panel({"X": [100.0, 101.0]}, date, spec)
    assert panel.returns[0, 0] == pytest.approx(math.log(1.01), rel=1e-12)
    assert panel.returns[0, 0] == pytest.approx(0.00995, abs=5e-6)


def test_build_panel_validation():
    date = dt.date(2017, 3, 15)
    spec = _spec(interval=3600)
    with pytest.raises(ValueError, match="N \\+ 1"):
        tk.build_panel({"X": [100.0, 101.0, 102.0]}, date, spec)
    with pytest.raises(ValueError, match="non-positive"):
        tk.build_panel({"X": [100.0, 0.0]}, date, spec)


def test_return_panel_invariants():
    date = dt.date(2017, 3, 15)
    with pytest.raises(ValueError, match="matrix"):
        tk.ReturnPanel(date, ["A", "B"], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="finite"):
        tk.ReturnPanel(date, ["A"], np.array([[np.nan, 0.0]]))
    panel = tk.ReturnPanel(date, ["A"], np.zeros((1, 2)))
    assert panel.n_intervals == 2
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
    assert tk.trade_fraction(series, _spec(), date) == pytest.approx(7 / 12)


def test_build_panels_filters():
    cal = tk.TradingCalendar(excluded_dates=frozenset({dt.date(2017, 3, 16)}))
    spec = _spec()
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
    panels, drop_log = tk.build_panels({"X": x, "Y": y}, spec, cal)
    assert [p.date for p in panels] == [dt.date(2017, 3, 15)]
    reasons = dict((d.isoformat(), r) for d, r in drop_log)
    assert reasons["2017-03-16"] == "excluded_date"
    assert reasons["2017-03-17"] == "low_trade"
    assert reasons["2017-03-20"].startswith("missing_instrument:Y")
    panel = panels[0]
    assert panel.instruments == ["X", "Y"]
    assert panel.n_intervals == 60
    assert np.all(np.isfinite(panel.returns))


def test_thin_day_kept_when_one_leg_active():
    """The low-trade drop fires only when every instrument is thin."""
    cal = tk.TradingCalendar()
    spec = _spec()
    x = _series(_sparse_day("2017-03-15", 6 / 12), instrument="X")
    y = _series(_dense_day("2017-03-15"), instrument="Y")
    panels, drop_log = tk.build_panels({"X": x, "Y": y}, spec, cal)
    assert len(panels) == 1
    assert drop_log == []


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
    path = tmp_path / "drops.csv"
    tk.write_drop_log([(dt.date(2017, 3, 16), "excluded_date")], path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows == [["date", "reason"], ["2017-03-16", "excluded_date"]]
