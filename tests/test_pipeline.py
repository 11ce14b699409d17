"""Day orchestration: detection, estimation, testing, labeling, CSV io."""

import csv
import datetime as dt

import numpy as np
import pytest

from cojump import jwc, pipeline, sim
from cojump.ticks import SessionSpec

SPEC = SessionSpec(dt.time(7, 0), dt.time(16, 0), "America/Chicago", 60)
EST = jwc.JwcConfig(g_spacing=5)
START = dt.date(2017, 3, 13)


def _two_leg_panels():
    """Day 0 quiet, day 1 common jump at 270, day 2 disjoint jumps."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=3, sigma=(0.01, 0.012), rho=0.6, seed=100,
        jumps=((1, 270, 0.1, 0.12), (2, 100, 0.1, 0.0), (2, 400, 0.0, -0.12)),
    )
    return sim.panels_from_sim(sim.simulate(sc), ["TU", "FV"], SPEC, START)


def _run_two_leg(jobs=1, b_reps=150, seed=0):
    return pipeline.process_panels(
        _two_leg_panels(), [("TU", "FV")], EST,
        b_reps=b_reps, alpha=0.05, seed=seed, jobs=jobs,
    )


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
    assert len(rec.events) == 1
    event = rec.events[0]
    assert event.index == 270
    pipeline.write_events_csv(two_leg, tmp_path / "events.csv", SPEC)
    rows = list(csv.DictReader(open(tmp_path / "events.csv", newline="")))
    assert [(r["index"], r["time"]) for r in rows] == [("270", "11:30:00")]
    assert event.sizes == (panel.series("TU")[270], panel.series("FV")[270])
    # rejected day: continuous part switches to the jump-robust estimate
    assert rec.ic == two_leg[1].ic.values[0, 1]
    assert rec.ic != rec.qv


def test_disjoint_day_record(two_leg):
    rec = two_leg[2].decomps[0]
    assert rec.rejected
    assert rec.cj == 0.0  # disjoint indices carry no co-jump variation
    assert rec.events == ()
    js = two_leg[2].jump_series
    assert js["TU"].jump_indices.tolist() == [100]
    assert js["FV"].jump_indices.tolist() == [400]


def test_three_leg_tuple_rotation():
    sc = sim.SimScenario(
        n_intervals=540, n_days=1, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=200,
        jumps=((0, 270, 0.1, 0.12, -0.11),),
    )
    panels = sim.panels_from_sim(sim.simulate(sc), ["TU", "FV", "TY"], SPEC, START)
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]
    results, failures = pipeline.process_panels(
        panels, prs, EST, b_reps=150, alpha=0.05, seed=0,
        tuples=[("TU", "FV", "TY")],
    )
    assert failures == []
    day = results[0]
    assert all(o.classification == "co_jump" for o in day.outcomes.values())
    assert day.tuple_labels == {("TU", "FV", "TY"): "Rotation"}
    for rec in day.decomps:
        assert rec.events[0].index == 270


def test_tuple_label_requires_all_pairs():
    """A tuple without a full common index yields no label."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=1, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=200,
        jumps=((0, 270, 0.1, 0.12, 0.0),),  # third leg does not jump
    )
    panels = sim.panels_from_sim(sim.simulate(sc), ["TU", "FV", "TY"], SPEC, START)
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]
    results, failures = pipeline.process_panels(
        panels, prs, EST, b_reps=150, alpha=0.05, seed=0,
        tuples=[("TU", "FV", "TY")],
    )
    assert failures == []
    assert results[0].tuple_labels == {}


def _seed_table(seed, dates, pairs):
    return {
        (date, pair): pipeline.pair_seed(seed, date, k)
        for date in dates
        for k, pair in enumerate(pairs)
    }


def test_pair_seed_table_properties():
    dates = [START + dt.timedelta(days=k) for k in range(4)]
    pairs = [("TU", "FV"), ("TU", "TY")]
    table = _seed_table(7, dates, pairs)
    assert len(table) == 8
    assert len(set(table.values())) == 8  # distinct streams per day-pair
    # insertion order of the dates argument must not matter
    shuffled = _seed_table(7, dates[::-1], pairs)
    assert shuffled == table
    assert _seed_table(8, dates, pairs) != table
    # nor which other dates are present
    assert _seed_table(7, dates[1:], pairs) == {
        key: value for key, value in table.items() if key[0] != dates[0]
    }


def test_rerun_subset_keeps_each_days_test():
    """A day-pair's seed, Z and p do not depend on the other days or on jobs."""
    sc = sim.SimScenario(
        n_intervals=540, n_days=4, sigma=(0.01, 0.012, 0.011), rho=0.6, seed=300,
        jumps=((1, 270, 0.1, 0.12, 0.0), (3, 100, 0.0, 0.0, 0.11)),
    )
    panels = sim.panels_from_sim(sim.simulate(sc), ["TU", "FV", "TY"], SPEC, START)
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]

    def run(days, jobs):
        results, failures = pipeline.process_panels(
            days, prs, EST, b_reps=150, alpha=0.05, seed=11, jobs=jobs
        )
        assert failures == []
        return {
            (day.date, pair): (out.seed, out.z, out.p_value)
            for day in results
            for pair, out in day.outcomes.items()
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


def _panels_with_short_day():
    panels = _two_leg_panels()
    # a short day cannot supply a single coarse return at this spacing
    bad = sim.SimScenario(n_intervals=8, n_days=1, sigma=(0.01, 0.012), seed=3)
    spec8 = SessionSpec(dt.time(7, 0), dt.time(7, 8), "America/Chicago", 60)
    short_panel = sim.panels_from_sim(sim.simulate(bad), ["TU", "FV"], spec8,
                                      START + dt.timedelta(days=40))[0]
    panels.insert(1, short_panel)
    return panels, short_panel


def test_per_day_failure_isolation():
    panels, short_panel = _panels_with_short_day()
    results, failures = pipeline.process_panels(
        panels, [("TU", "FV")], EST, b_reps=150, alpha=0.05, seed=0
    )
    assert len(results) == 3
    assert len(failures) == 1
    assert failures[0][0] == short_panel.date
    assert "ValueError" in failures[0][1]


def test_failures_same_serial_and_parallel():
    panels, _ = _panels_with_short_day()
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
    path = tmp_path / "decomps.csv"
    pipeline.write_decompositions(two_leg, path)
    back = pipeline.read_decompositions(path)
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
    path = tmp_path / "events.csv"
    pipeline.write_events_csv(two_leg, path, SPEC)
    rows = pipeline.read_events_csv(path, SPEC)
    assert len(rows) == 1
    row = rows[0]
    assert row["date"] == START + dt.timedelta(days=1)
    assert row["pair"] == ("TU", "FV")
    assert row["index"] == 270
    assert row["time"] == dt.time(11, 30)  # interval 270 of a 07:00 session
    assert row["sizes"][0] == pytest.approx(0.1, rel=0.05)
    assert row["sizes"][1] == pytest.approx(0.12, rel=0.05)


def test_jump_report_roundtrip(two_leg, tmp_path):
    path = tmp_path / "jumps.csv"
    pipeline.write_jump_report(two_leg, path, SPEC)
    with open(path, newline="") as handle:
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
    panels = sim.panels_from_sim(sim.simulate(sc), ["TU", "FV", "TY"], SPEC, START)
    prs = [("TU", "FV"), ("TU", "TY"), ("FV", "TY")]
    results, _ = pipeline.process_panels(
        panels, prs, EST, b_reps=150, alpha=0.05, seed=0,
        tuples=[("TU", "FV", "TY")],
    )
    path = tmp_path / "tuples.csv"
    pipeline.write_tuple_labels(results, path)
    back = pipeline.read_tuple_labels(path)
    assert back == {"TU-FV-TY": {START: "Rotation"}}


def test_failures_csv(tmp_path):
    path = tmp_path / "failures.csv"
    pipeline.write_failures([(START, "ValueError: boom")], path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows == [["date", "error"], ["2017-03-13", "ValueError: boom"]]

