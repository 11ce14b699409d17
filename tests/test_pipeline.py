"""Day orchestration: detection, estimation, testing, labeling, CSV io."""

import concurrent.futures
import csv
import datetime as dt
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import estimator
from test_cli import _fail_days, _write_config

from cojump import cli, jumps, jwc, pipeline, sim
from cojump import events as ev
from cojump.spec import write_csv
from cojump.ticks import ReturnPanel, SessionSpec

SPEC = SessionSpec(dt.time(7, 0), dt.time(16, 0), "America/Chicago", 60)
EST = estimator(540, g_spacing=5)
START = dt.date(2017, 3, 13)


def _panels(sc, names, start=START):
    """The scenario's days as return panels on the weekdays from ``start``, as simulate
    writes them."""
    return [ReturnPanel(date, names, day.observed)
            for date, day in zip(sim.business_dates(start, sc.n_days), sim.simulate(sc))]


def _two_leg_panels():
    """Day 0 quiet, day 1 common jump at 270, day 2 disjoint jumps."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=3, sigma=(0.01, 0.012), rho=0.6, seed=100,
        jumps=((1, 270, 0.1, 0.12), (2, 100, 0.1, 0.0), (2, 400, 0.0, -0.12)),
    )
    return _panels(sc, ["TU", "FV"])


def _run_two_leg(jobs=1, b_reps=150, seed=0):
    return pipeline.process_panels(
        _two_leg_panels(), [("TU", "FV")], EST,
        b_reps=b_reps, alpha=0.05, seed=seed, jobs=jobs,
    )


def _write_tables(results, failures, out, spec, b_reps=150, alpha=0.05):
    """The six tables of ``results`` and ``failures`` through one Tables writer, as decompose
    writes them."""
    with pipeline.Tables(out, spec, b_reps, alpha) as tables:
        for res in results:
            tables.write_day(res)
        tables.write_failures(failures)


@pytest.fixture(scope="module")
def two_leg():
    results, failures = _run_two_leg()
    assert failures == []
    return results


def test_detect_panel_jumps_localization():
    panels = _two_leg_panels()
    js = pipeline.detect_panel_jumps(panels[1])
    assert js["TU"].jump_indices.tolist() == [270]
    assert js["FV"].jump_indices.tolist() == [270]
    # detected size is the raw return at the flagged interval
    assert js["TU"].jump_sizes[270] == panels[1].series("TU")[270]
    quiet = pipeline.detect_panel_jumps(panels[0])
    assert quiet["TU"].count == 0 and quiet["FV"].count == 0


def test_detect_panel_jumps_is_haar_detect():
    for panel in _two_leg_panels():
        detected = pipeline.detect_panel_jumps(panel)
        assert list(detected) == panel.instruments
        for name, js in detected.items():
            direct = jumps.haar_detect(panel.series(name))
            assert js.jump_indices.tolist() == direct.jump_indices.tolist()
            assert np.array_equal(js.jump_sizes, direct.jump_sizes)


def test_day_classifications(two_leg):
    cls = [r.decomps[0].classification for r in two_leg]
    assert cls == ["no_discontinuity", "co_jump", "disjoint_only"]


def test_quiet_day_record(two_leg):
    rec = two_leg[0].decomps[0]
    assert rec.cj == 0.0
    assert rec.events == ()
    assert not rec.rejected
    # accepted days keep QV as the continuous part, so both correlations agree
    assert rec.ic == rec.qv
    assert rec.corr_cont == pytest.approx(rec.corr_total, abs=1e-12)
    assert abs(rec.corr_total - 0.6) < 0.15


def test_co_jump_day_record(two_leg, tmp_path):
    rec = two_leg[1].decomps[0]
    assert rec.rejected
    assert rec.classification == "co_jump"
    panel = _two_leg_panels()[1]
    expected_cj = panel.series("TU")[270] * panel.series("FV")[270]
    assert rec.cj == pytest.approx(expected_cj, rel=1e-12)
    assert rec.cj == pytest.approx(0.1 * 0.12, rel=0.1)
    assert rec.events == (270,)
    _write_tables(two_leg, [], tmp_path, SPEC)
    rows = list(csv.DictReader(open(tmp_path / "events.csv", newline="")))
    assert [(r["index"], r["time"]) for r in rows] == [("270", "11:30:00")]
    js = two_leg[1].jump_series
    assert (js["TU"].jump_sizes[270], js["FV"].jump_sizes[270]) == (
        panel.series("TU")[270], panel.series("FV")[270])
    # rejected day: continuous part switches to the jump-robust estimate
    adjusted = np.vstack([jumps.adjust_returns(panel.series(n), js[n]) for n in panel.instruments])
    assert rec.ic == jwc.jwc_integrated_covariance(adjusted, EST).values[0, 1]
    assert rec.ic != rec.qv


def test_inconclusive_day_record():
    """A floored IC diagonal leaves the test without a verdict: robust entry, no corr_cont."""
    legs = np.vstack([
        np.tile([1e-3, -1e-3], 270),  # slow-grid blocks cancel: negative two-scale variance
        np.random.default_rng(5).standard_normal(540) * 1e-3,
    ])
    est = estimator(540, g_spacing=2)
    ic = jwc.jwc_integrated_covariance(legs, est)
    assert bool(ic.floored[0])
    day = pipeline.process_day(
        ReturnPanel(date=START, instruments=["TU", "FV"], returns=legs),
        [("TU", "FV")], est, b_reps=150, alpha=0.05, seed=0,
    )
    assert all(js.count == 0 for js in day.jump_series.values())
    rec = day.decomps[0]
    assert rec.inconclusive and not rec.rejected
    assert rec.ic == ic.values[0, 1]
    assert rec.ic != rec.qv
    assert np.isnan(rec.corr_cont) and np.isnan(rec.z)


def test_disjoint_day_record(two_leg):
    rec = two_leg[2].decomps[0]
    assert rec.rejected
    assert rec.cj == 0.0  # disjoint indices carry no co-jump variation
    assert rec.events == ()
    js = two_leg[2].jump_series
    assert js["TU"].jump_indices.tolist() == [100]
    assert js["FV"].jump_indices.tolist() == [400]


@pytest.mark.parametrize("prs", [
    [("TU", "FV"), ("TU", "TY"), ("FV", "TY")],
    [("FV", "TU"), ("TY", "TU"), ("TY", "FV")],
], ids=["tuple-order", "reversed"])
def test_three_leg_tuple_rotation(prs):
    """A tuple's constituent pairs are found in either configured orientation."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=1, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=200,
        jumps=((0, 270, 0.1, 0.12, -0.11),),
    )
    panels = _panels(sc, ["TU", "FV", "TY"])
    results, failures = pipeline.process_panels(
        panels, prs, EST, b_reps=150, alpha=0.05, seed=0,
        tuples=[("TU", "FV", "TY")],
    )
    assert failures == []
    day = results[0]
    assert all(rec.classification == "co_jump" for rec in day.decomps)
    assert day.tuple_labels == {("TU", "FV", "TY"): "Rotation"}
    for rec in day.decomps:
        assert rec.events[0] == 270


def test_tuple_label_requires_all_pairs():
    """A tuple without a full common index yields no label."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=1, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=200,
        jumps=((0, 270, 0.1, 0.12, 0.0),),  # third leg does not jump
    )
    panels = _panels(sc, ["TU", "FV", "TY"])
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]
    results, failures = pipeline.process_panels(
        panels, prs, EST, b_reps=150, alpha=0.05, seed=0,
        tuples=[("TU", "FV", "TY")],
    )
    assert failures == []
    assert results[0].tuple_labels == {}


def _seed_table(seed, dates, pairs):
    return {(date, pair): pipeline.pair_seed(seed, date, pair) for date in dates for pair in pairs}


def test_pair_seed_table_properties():
    dates = [START + dt.timedelta(days=k) for k in range(4)]
    pairs = [("TU", "FV"), ("TU", "TY")]
    table = _seed_table(7, dates, pairs)
    assert len(table) == 8
    assert len(set(table.values())) == 8  # distinct streams per day-pair
    # insertion order of the dates and the pairs must not matter
    assert _seed_table(7, dates[::-1], pairs[::-1]) == table
    assert _seed_table(8, dates, pairs) != table
    # nor which other dates and pairs are present
    assert _seed_table(7, dates[1:], pairs[1:] + [("FV", "TY")]) == {
        key: value for key, value in table.items() if key[0] != dates[0] and key[1] != pairs[0]
    } | _seed_table(7, dates[1:], [("FV", "TY")])
    # a pair's stream is keyed in its configured orientation
    assert pipeline.pair_seed(7, dates[0], ("FV", "TU")) != table[dates[0], ("TU", "FV")]


def test_rerun_subset_keeps_each_days_test():
    """A day-pair's seed, Z and p do not depend on the other days or on jobs."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=4, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=300,
        jumps=((1, 270, 0.1, 0.12, 0.0), (3, 100, 0.0, 0.0, 0.11)),
    )
    panels = _panels(sc, ["TU", "FV", "TY"])
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]

    def run(days, jobs):
        results, failures = pipeline.process_panels(
            days, prs, EST, b_reps=150, alpha=0.05, seed=11, jobs=jobs
        )
        assert failures == []
        return {
            (day.date, rec.pair): (rec.seed, rec.z, rec.p_value)
            for day in results
            for rec in day.decomps
        }

    full = run(panels, jobs=1)
    subset = run(panels[1:], jobs=2)
    assert len(subset) == 9
    assert all(np.isfinite(z) for _, z, _ in subset.values())
    assert subset == {key: value for key, value in full.items() if key[0] != START}


def test_worker_count_does_not_change_results(two_leg):
    parallel, failures = _run_two_leg(jobs=2)
    assert failures == []
    for serial_day, parallel_day in zip(two_leg, parallel):
        for a, b in zip(serial_day.decomps, parallel_day.decomps):
            assert a.z == b.z
            assert a.p_value == b.p_value
            assert a.cj == b.cj
            assert a.ic == b.ic
            assert a.classification == b.classification


def test_pool_has_at_most_one_worker_per_day(two_leg, monkeypatch):
    """jobs = 8 on three days asks for three workers (a pool forks all of its workers at once),
    and one day runs in this process."""
    workers = []

    class InlinePool:  # records the pool's size and runs each day here, so nothing is forked
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    results, failures = _run_two_leg(jobs=8)
    assert workers == [3] and failures == []
    assert [[rec.z for rec in r.decomps] for r in results] == [
        [rec.z for rec in r.decomps] for r in two_leg]
    one_day = pipeline.process_panels(_two_leg_panels()[:1], [("TU", "FV")], EST, b_reps=150,
                                      jobs=2)
    assert workers == [3] and one_day[0][0].decomps[0].z == two_leg[0].decomps[0].z


def _eight_days():
    sc = sim.SimScenario(n_intervals=540, n_days=8, sigma=(0.01, 0.012), rho=0.6, seed=400,
                         jumps=((2, 270, 0.1, 0.12),))
    return _panels(sc, ["TU", "FV"])


def _zs(results):
    return [[rec.z for rec in day.decomps] for day in results]


def test_pool_reads_and_holds_a_bounded_window_of_days(monkeypatch):
    """At jobs = 2 over eight days the parent reads each panel as it submits its day and
    passes each day on in date order, with at most two days a worker read and not yet
    passed on."""
    panels = _eight_days()
    pending, drawn, ahead, written = [], [], [], []

    class LazyPool:  # runs a day only when its result is asked for, so nothing is forked
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            def result():
                pending.remove(future)
                return fn(*args)

            future = SimpleNamespace(result=result)
            pending.append(future)
            return future

    def read():
        for panel in panels:
            drawn.append(panel.date)
            yield panel

    def write(res):
        written.append(res)
        ahead.append((len(drawn) - len(written), len(pending)))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LazyPool)
    kept, failures = pipeline.process_panels(read(), [("TU", "FV")], EST, b_reps=150, jobs=2,
                                             write=write)
    assert kept == [] and failures == []
    assert [res.date for res in written] == [panel.date for panel in panels]
    assert _zs(written) == _zs(pipeline.process_panels(panels, [("TU", "FV")], EST,
                                                       b_reps=150)[0])
    assert max(read_ahead for read_ahead, _ in ahead) <= 2 * 2
    assert max(in_pool for _, in_pool in ahead) <= 2 * 2


def test_days_submitted_after_a_worker_dies_run_here(tmp_path, monkeypatch):
    """A worker that dies on the first of eight days breaks the pool before the later days
    are submitted: they run in this process, as the days it took down do, and every result
    equals a jobs = 1 run's."""
    panels = _eight_days()
    serial, _ = pipeline.process_panels(panels, [("TU", "FV")], EST, b_reps=150)
    main_pid, real = os.getpid(), pipeline.process_day
    marker = tmp_path / "crashed"

    def crash_in_worker(panel, *args):
        if os.getpid() != main_pid and panel.date == panels[0].date:
            marker.touch()
            os._exit(1)
        return real(panel, *args)

    # the pool's workers are forked, so they inherit the patched module
    monkeypatch.setattr(pipeline, "process_day", crash_in_worker)
    parallel, failures = pipeline.process_panels(iter(panels), [("TU", "FV")], EST, b_reps=150,
                                                 jobs=2)
    assert marker.exists() and failures == []
    assert [res.date for res in parallel] == [panel.date for panel in panels]
    assert _zs(parallel) == _zs(serial)


def _panels_with_bad_day():
    panels = _two_leg_panels()
    # a day whose panel lacks the pair's second leg cannot be tested
    bad = sim.SimScenario(n_intervals=540, n_days=1, sigma=(0.01, 0.012), seed=3)
    bad_panel = _panels(bad, ["TU", "TY"], START + dt.timedelta(days=40))[0]
    panels.insert(1, bad_panel)
    return panels, bad_panel


def test_per_day_failure_isolation():
    panels, bad_panel = _panels_with_bad_day()
    results, failures = pipeline.process_panels(
        panels, [("TU", "FV")], EST, b_reps=150, alpha=0.05, seed=0
    )
    assert len(results) == 3
    assert len(failures) == 1
    assert failures[0][0] == bad_panel.date
    assert "ValueError" in failures[0][1]


def test_failures_same_serial_and_parallel():
    panels, _ = _panels_with_bad_day()
    runs = [
        pipeline.process_panels(
            panels, [("TU", "FV")], EST, b_reps=150, alpha=0.05, seed=0, jobs=jobs
        )
        for jobs in (1, 2)
    ]
    (serial_results, serial_failures), (parallel_results, parallel_failures) = runs
    assert serial_failures == parallel_failures
    assert [r.date for r in serial_results] == [r.date for r in parallel_results]


def test_decomposition_csv_roundtrip(two_leg, tmp_path):
    _write_tables(two_leg, [], tmp_path, SPEC)
    back = ev.read_decompositions(tmp_path / "decompositions.csv")
    flat = [rec for day in two_leg for rec in day.decomps]
    flat.sort(key=lambda r: (r.date, r.pair))
    assert len(back) == len(flat)
    for a, b in zip(flat, back):
        assert a.date == b.date and a.pair == b.pair
        assert a.qv == b.qv and a.ic == b.ic and a.cj == b.cj
        assert a.z == b.z and a.rejected == b.rejected
        assert a.classification == b.classification
        assert a.corr_cont == b.corr_cont


def test_events_csv_roundtrip(two_leg, tmp_path):
    """An event row names its day, pair, index and label; its sizes are the join of
    events.csv onto the legs' jumps.csv rows; read_events_csv gives the index."""
    _write_tables(two_leg, [], tmp_path, SPEC)
    assert ev.read_events_csv(tmp_path / "events.csv", SPEC) == [270]
    [row] = csv.DictReader(open(tmp_path / "events.csv", newline=""))
    assert row == {"date": (START + dt.timedelta(days=1)).isoformat(), "pair": "TU-FV",
                   "index": "270", "time": "11:30:00"}  # interval 270 of a 07:00 session
    sizes = {(r["date"], r["instrument"], r["index"]): float(r["size"])
             for r in csv.DictReader(open(tmp_path / "jumps.csv", newline=""))}
    legs = [sizes[row["date"], leg, row["index"]] for leg in row["pair"].split("-")]
    assert legs == pytest.approx([0.1, 0.12], rel=0.05)


def test_jump_report_roundtrip(two_leg, tmp_path):
    _write_tables(two_leg, [], tmp_path, SPEC)
    with open(tmp_path / "jumps.csv", newline="") as handle:
        rows = [
            {
                "date": dt.date.fromisoformat(row["date"]),
                "instrument": row["instrument"],
                "index": int(row["index"]),
                "time": dt.time.fromisoformat(row["time"]),
                "size": float(row["size"]),
            }
            for row in csv.DictReader(handle)
        ]
    assert [(r["date"], r["instrument"], r["index"]) for r in rows] == [
        (START + dt.timedelta(days=1), "FV", 270),
        (START + dt.timedelta(days=1), "TU", 270),
        (START + dt.timedelta(days=2), "FV", 400),
        (START + dt.timedelta(days=2), "TU", 100),
    ]
    assert all(r["size"] != 0.0 for r in rows)
    assert rows[0]["time"] == dt.time(11, 30)


def test_tuple_labels_csv_roundtrip(tmp_path):
    sc = sim.SimScenario(
        n_intervals=540, n_days=1, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=200,
        jumps=((0, 270, 0.1, 0.12, -0.11),),
    )
    panels = _panels(sc, ["TU", "FV", "TY"])
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]
    results, _ = pipeline.process_panels(
        panels, prs, EST, b_reps=150, alpha=0.05, seed=0,
        tuples=[("TU", "FV", "TY")],
    )
    _write_tables(results, [], tmp_path, SPEC)
    back = ev.read_tuple_labels(tmp_path / "tuple_days.csv")
    assert back == {"TU-FV-TY": {START: "Rotation"}}


def test_failures_csv(tmp_path):
    _write_tables([], [(START, "ValueError: boom")], tmp_path, SPEC)
    rows = list(csv.reader(open(tmp_path / "failures.csv", newline="")))
    assert rows == [["date", "error"], ["2017-03-13", "ValueError: boom"]]


def test_tables_that_cannot_open_leave_no_part(tmp_path):
    """A table that fails to open removes the parts opened before it: only the obstacle,
    a directory in the place of events.csv.part, is left."""
    (tmp_path / "events.csv.part").mkdir()
    with pytest.raises(IsADirectoryError):
        _write_tables([], [], tmp_path, SPEC)
    assert os.listdir(tmp_path) == ["events.csv.part"]



def _per_table_writers(results, failures, out, spec, b_reps, alpha):
    """decompose's six tables as six writers wrote them, each sorting the whole run's rows."""
    labels = spec.grid_labels()
    decomps = sorted((rec for res in results for rec in res.decomps), key=lambda r: (r.date, r.pair))
    write_csv(
        out / "decompositions.csv",
        "date pair qv ic cj z p rejected inconclusive classification corr_total corr_cont".split(),
        ([r.date.isoformat(), "-".join(r.pair), r.qv, r.ic, r.cj, r.z, r.p_value,
          int(r.rejected), int(r.inconclusive), r.classification, r.corr_total, r.corr_cont]
         for r in decomps),
    )
    events = sorted(
        ([rec.date.isoformat(), "-".join(rec.pair), i, labels[i]]
         for res in results for rec in res.decomps for i in rec.events),
        key=lambda r: r[:3],
    )
    write_csv(out / "events.csv", ["date", "pair", "index", "time"], events)
    jump_rows = sorted(
        ([res.date.isoformat(), name, idx, labels[idx], js.jump_sizes[idx]]
         for res in results
         for name, js in sorted(res.jump_series.items())
         for idx in js.jump_indices.tolist()),
        key=lambda r: r[:3],
    )
    write_csv(out / "jumps.csv", ["date", "instrument", "index", "time", "size"], jump_rows)
    write_csv(out / "tuple_days.csv", ["date", "tuple", "label"], sorted(
        [res.date.isoformat(), "-".join(members), label]
        for res in results for members, label in res.tuple_labels.items()))
    write_csv(out / "failures.csv", ["date", "error"],
              [(date.isoformat(), message) for date, message in failures])
    write_csv(
        out / "outcomes.csv",
        ["date", "pair", "Z", "p", "rejected", "classification", "B", "alpha", "seed"],
        ([r.date.isoformat(), "-".join(r.pair), r.z, r.p_value, int(r.rejected),
          r.classification, b_reps, alpha, r.seed] for r in decomps),
    )


@pytest.mark.parametrize("run", ["golden", "two_leg"])
def test_write_tables_matches_the_per_table_writers(tmp_path, monkeypatch, run):
    """Tables, appending each day's rows sorted alone as decompose passes the day on, writes
    the bytes of six writers that each sort the whole run: on the golden run, and on a
    two-leg run with a failed day, a disjoint-jump day and a tuple label."""
    if run == "golden":
        cfg = Path(__file__).parent / "golden" / "config.json"
    else:
        cfg = _write_config(tmp_path, tuples=[["TU", "FV"]])
        _fail_days(monkeypatch, 13)
    results, failures = [], []
    write_day, write_failures = pipeline.Tables.write_day, pipeline.Tables.write_failures

    def record_day(tables, res):
        results.append(res)
        write_day(tables, res)

    def record_failures(tables, failed):
        failures.extend(failed)
        write_failures(tables, failed)

    monkeypatch.setattr(pipeline.Tables, "write_day", record_day)
    monkeypatch.setattr(pipeline.Tables, "write_failures", record_failures)
    for stage in ("simulate", "decompose"):
        assert cli.main([stage, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    monkeypatch.undo()  # the writers below write unrecorded
    config = cli.load_config(str(cfg), {})
    if run == "two_leg":
        assert [date for date, _ in failures] == [START]
        assert [rec.classification for res in results for rec in res.decomps] == [
            "co_jump", "disjoint_only"]
        assert [res.tuple_labels for res in results] == [{("TU", "FV"): "UpShift"}, {}]
    for folder, write in (("one_pass", _write_tables), ("per_table", _per_table_writers)):
        (tmp_path / folder).mkdir()
        write(results, failures, tmp_path / folder, config.session, config.b_reps, config.alpha)
    for name in ("decompositions.csv", "events.csv", "jumps.csv", "tuple_days.csv",
                 "failures.csv", "outcomes.csv"):
        one_pass = (tmp_path / "one_pass" / name).read_bytes()
        assert one_pass == (tmp_path / "per_table" / name).read_bytes(), name
        assert one_pass == (tmp_path / "out" / name).read_bytes(), name  # as decompose wrote it
        assert one_pass.count(b"\n") > 1 or name == "failures.csv" and run == "golden", name
