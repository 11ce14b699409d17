"""Command-line interface: exit codes, overrides, determinism, outputs."""

import argparse
import csv
import datetime as dt
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cojump import cli, pipeline, sim, ticks

SESSION = {"start": "07:00", "end": "16:00", "timezone": "America/Chicago",
           "sampling_seconds": 60}

SCENARIO = """\
n_intervals = 540
n_days = 3
sigma = 0.01, 0.012
rho = 0.6
seed = 100
# day 1 common jump, day 2 disjoint jumps
jump = 1, 270, 0.1, 0.12
jump = 2, 100, 0.1, 0.0
jump = 2, 400, 0.0, -0.12
"""


def _write_config(tmp_path, name="config.json", **extra):
    raw = {
        "session": SESSION,
        "instruments": ["TU", "FV"],
        "pairs": [["TU", "FV"]],
        "scenario": "scenario.txt",
        "bootstrap": {"b_reps": 150, "alpha": 0.05},
        "seed": 0,
        "output": "out",
        "start_date": "2017-03-13",
        "announcements": {
            "events": [{"date": "2017-03-14", "time": "13:00",
                        "timezone": "America/Chicago"}],
            "windows": [[0, 30]],
        },
        "estimator": {"g_spacing": 5},
    }
    raw.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=1))
    (tmp_path / "scenario.txt").write_text(SCENARIO)
    return path


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_no_config_anywhere(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    assert cli.main(["decompose"]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert cli.ENV_CONFIG in msg["message"]


def test_config_file_missing(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    missing = tmp_path / "nope.json"
    assert cli.main(["report", "--config", str(missing)]) == cli.EXIT_IO
    msg = _stderr_json(capsys)
    assert msg["error"] == "io"
    assert str(missing) in msg["message"]


def test_invalid_json_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["report", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert _stderr_json(capsys)["error"] == "config"


def test_unknown_instrument_in_pair(capsys, tmp_path):
    cfg = _write_config(tmp_path, pairs=[["TU", "US"]])
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert "US" in msg["message"]


@pytest.mark.parametrize(
    "pairs, tuples",
    [
        ([["TU", "TU"]], []),
        ([["TU", "FV"], ["TU", "FV"]], []),
        ([["TU", "FV"], ["FV", "TU"]], []),
        ([["TU", "FV"]], [["TU", "FV", "TU"]]),
        ([["TU", "FV"]], [["TU", "FV"], ["TU", "FV"]]),
        ([["TU", "FV"]], [["TU", "FV"], ["FV", "TU"]]),
    ],
    ids=["self-pair", "duplicate-pair", "reversed-pair", "repeated-tuple-member",
         "duplicate-tuple", "reordered-tuple"],
)
def test_degenerate_pairs_and_tuples_rejected(capsys, tmp_path, pairs, tuples):
    cfg = _write_config(tmp_path, pairs=pairs, tuples=tuples)
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert repr(tuple((pairs + tuples)[-1])) in msg["message"]  # the item, as declared


def test_bad_alpha_and_reps(capsys, tmp_path):
    cfg = _write_config(tmp_path, bootstrap={"b_reps": 150, "alpha": 1.5})
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    cfg = _write_config(tmp_path, name="c2.json")
    assert cli.main(
        ["simulate", "--config", str(cfg), "--bootstrap-reps", "10"]
    ) == cli.EXIT_CONFIG


@pytest.mark.parametrize("args, flag", [
    (["decompose", "--jobs", "two"], "--jobs"),
    (["decompose", "--jobz", "2"], "--jobz"),
    (["decompose", "--alpha"], "--alpha"),
    (["ingest", "--seed", "1"], "--seed"),
    (["ingest", "--bootstrap-reps", "10"], "--bootstrap-reps"),
    (["simulate", "--jobs", "2"], "--jobs"),
    (["simulate", "--alpha", "0.1"], "--alpha"),
    (["report", "--jobs", "2"], "--jobs"),
    (["decompse"], "decompse"),
    ([], "command"),
    (["--config", "{cfg}", "report"], "--config"),
], ids=["wrong-kind", "misspelled", "no-value", "ingest-seed", "ingest-reps", "simulate-jobs",
        "simulate-alpha", "report-jobs", "unknown-stage", "no-stage", "config-first"])
def test_bad_flag_exits_3_naming_it(capsys, tmp_path, args, flag):
    """A flag that its stage does not take, or that does not parse, exits 3 with one JSON
    line on stderr naming it, as a bad config value does, before any stage runs. A flag
    given before the command is named, not read as the command. Args with no "{cfg}"
    place get ``--config`` right after the command."""
    cfg = _write_config(tmp_path)
    if "{cfg}" in args:
        argv = [a.format(cfg=cfg) for a in args]
    else:
        argv = [*args[:1], "--config", str(cfg), *args[1:]]
    code = cli.main(argv)
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    msg = json.loads(line)
    assert msg["error"] == "config" and flag in msg["message"], msg
    if "{cfg}" in args:
        assert "flags follow it" in msg["message"] and str(cfg) not in msg["message"], msg
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["-h"], ["decompose", "-h"], ["ingest", "--help"]])
def test_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 0
    assert "usage: cojump" in capsys.readouterr().out


def stage_flags() -> dict:
    """The long flags, but --help, that ``build_parser`` gives each stage, sorted."""
    parser = cli.build_parser()
    stages = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sorted(o for a in p._actions for o in a.option_strings
                         if o.startswith("--") and o != "--help")
            for name, p in stages.choices.items()}


def test_each_stage_takes_the_overrides_it_reads():
    """ingest and simulate take only --config and --output; report takes the three values
    it records in manifest.json; decompose takes every override."""
    assert stage_flags() == {
        "ingest": ["--config", "--output"],
        "simulate": ["--config", "--output"],
        "decompose": ["--alpha", "--bootstrap-reps", "--config", "--jobs", "--output", "--seed"],
        "report": ["--alpha", "--bootstrap-reps", "--config", "--output", "--seed"],
    }


@pytest.mark.parametrize("flag", ["--bootstrap-reps", "--jobs"])
def test_zero_override_is_rejected_not_ignored(capsys, tmp_path, flag):
    cfg = _write_config(tmp_path)
    assert cli.main(["decompose", "--config", str(cfg), flag, "0"]) == cli.EXIT_CONFIG
    assert _stderr_json(capsys)["error"] == "config"


@pytest.mark.parametrize(
    "key, value",
    [("filters", "d4"), ("boundary", "reflecting"), ("levels", None),
     pytest.param("detection", {"filters": "haar", "boundary": "reflecting"}, id="detection")],
)
def test_removed_estimator_keys_rejected(capsys, tmp_path, key, value):
    if key == "detection":  # a removed top-level block
        cfg = _write_config(tmp_path, detection=value)
    else:
        cfg = _write_config(tmp_path, estimator={"g_spacing": 5, key: value})
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert key in msg["message"]


@pytest.mark.parametrize(
    "key, value",
    [("session.sampling_seconds", 60.7), ("report.histogram_bin_minutes", 30.9),
     ("seed", 1.9), ("jobs", 1.5), ("jobs", True), ("bootstrap.b_reps", 150.7),
     ("bootstrap.b_reps", "150"), ("estimator.s_spacing", 1.5),
     ("estimator.g_spacing", True), ("estimator.g_spacing", 5.5),
     ("estimator.g_spacing", "5")],
)
def test_non_integer_config_value_rejected(capsys, tmp_path, key, value):
    """An integer key holding a bool, a fraction or a string exits 3 before any stage."""
    raw = json.loads(_write_config(tmp_path).read_text())
    *blocks, last = key.split(".")
    target = raw
    for block in blocks:
        target = target.setdefault(block, {})
    target[last] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert key in msg["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("estimator.c_n", True), ("estimator.c_n", "1.0"), ("bootstrap.alpha", "0.05"),
     ("bootstrap.alpha", False), ("calendar.low_trade_threshold", True),
     ("calendar.low_trade_threshold", "0.6")],
)
def test_non_real_config_value_rejected(capsys, tmp_path, key, value):
    """A real key holding a bool or a string exits 3 and names the key."""
    raw = json.loads(_write_config(tmp_path).read_text())
    block, last = key.split(".")
    raw.setdefault(block, {})[last] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert key in msg["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "estimator, text",
    [({"g_spacing": 300}, "G=300"), ({"g_spacing": 0}, "G=0"),
     ({"g_spacing": 5, "s_spacing": 5}, "smaller than G"),
     ({"c_n": 0}, "c_n"), ({"c_n": -1}, "c_n"), ({"c_n": "1e400"}, "c_n"),
     ({"c_n": "NaN"}, "c_n")],
    ids=["g_spacing=300", "g_spacing=0", "s_spacing=g_spacing", "c_n=0", "c_n=-1",
         "c_n=1e400", "c_n=NaN"],
)
def test_estimator_that_cannot_run_on_the_session_rejected(capsys, tmp_path, estimator, text):
    """An estimator the 540-interval session cannot run exits 3 before any stage."""
    raw = json.loads(_write_config(tmp_path).read_text())
    raw["estimator"] = estimator
    cfg = tmp_path / "bad.json"
    # a quoted c_n is written as the bare JSON number it spells
    cfg.write_text(re.sub(r'"c_n": "([^"]+)"', r'"c_n": \1', json.dumps(raw)))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "estimator" in msg["message"] and text in msg["message"]
    assert not (tmp_path / "out").exists()


def test_integer_real_config_value_accepted(tmp_path):
    raw = json.loads(_write_config(tmp_path).read_text())
    raw["estimator"]["c_n"] = 2
    raw["calendar"] = {"low_trade_threshold": 1}
    cfg = tmp_path / "ints.json"
    cfg.write_text(json.dumps(raw))
    config = cli.load_config(str(cfg), {})
    assert config.estimator.c_n == 2.0 and config.calendar.low_trade_threshold == 1.0


def test_tuple_with_unconfigured_pair_rejected(capsys, tmp_path):
    cfg = _write_config(tmp_path, instruments=["TU", "FV", "TY"], tuples=[["TU", "FV", "TY"]])
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert msg["message"].endswith("pairs not configured: TU-TY, FV-TY")


def test_missing_tick_file_is_io_error(capsys, tmp_path):
    cfg = _write_config(
        tmp_path,
        ticks={"TU": {"path": "absent.csv",
                      "schema": {"timestamp": "t", "price": "p", "volume": "v"}}},
    )
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_IO
    msg = _stderr_json(capsys)
    assert msg["error"] == "io"
    assert "absent.csv" in msg["message"]


def test_missing_scenario_file_is_io_error(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    os.remove(tmp_path / "scenario.txt")
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_IO
    assert "scenario" in _stderr_json(capsys)["message"]


def test_decompose_without_panels(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_IO
    assert "panel" in _stderr_json(capsys)["message"]


def test_scenario_leg_mismatch(capsys, tmp_path):
    cfg = _write_config(tmp_path, instruments=["TU", "FV", "TY"],
                        pairs=[["TU", "FV"]])
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "legs" in _stderr_json(capsys)["message"]


def test_scenario_interval_mismatch_exits_before_simulating(capsys, tmp_path):
    """A 540-interval scenario under a 270-interval session writes no panel."""
    cfg = _write_config(tmp_path, session=dict(SESSION, sampling_seconds=120))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "540 intervals" in msg["message"] and "270" in msg["message"]
    assert not list(tmp_path.glob("out/panels/*"))


def test_simulate_writes_day_k_as_the_panel_of_the_kth_weekday(tmp_path):
    """From a Friday, the three days land on Friday, Monday and Tuesday; day k's panel holds
    its observed returns bit for bit, legs in the config's order (TU before FV)."""
    cfg = _write_config(tmp_path, start_date="2017-03-17")
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    dates = ["2017-03-17", "2017-03-20", "2017-03-21"]
    panels = tmp_path / "out" / "panels"
    assert sorted(os.listdir(panels)) == [f"panel_{d}.csv" for d in dates]
    session = cli.load_config(str(cfg), {}).session
    days = sim.simulate(sim.read_scenario(tmp_path / "scenario.txt"))
    for date, day in zip(dates, days, strict=True):
        panel = ticks.read_panel_csv(panels / f"panel_{date}.csv", session)
        assert panel.instruments == ["TU", "FV"]
        assert np.array_equal(panel.returns, day.observed)


@pytest.mark.parametrize("jump_lines", [
    ["2, 5, 1.7e308, 0.0"],
    ["2, 5, 1.7e308, 0.0"] * 2,
    ["2, 5, 1.7e308, 1.7e308", "2, 6, -1.7e308, 1.7e308"],
    ["2, 5, 1e308, 1.0", "2, 6, 1e308, 1.0"],
], ids=["square", "sum", "signs", "finite-terms"])
def test_simulate_day_whose_truth_overflows_is_numerical_error(tmp_path, jump_lines):
    """A planted jump whose square (or, written twice, whose sum) overflows, jump products
    that overflow to both signs, or finite products whose sum overflows: each exits 4 with
    one JSON line naming its day and nothing else on stderr; truth.csv gets no inf. The
    stage runs in a subprocess, where no test harness captures numpy's warnings."""
    cfg = _write_config(tmp_path)
    (tmp_path / "scenario.txt").write_text(SCENARIO + "".join(f"jump = {line}\n"
                                                              for line in jump_lines))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "cojump.cli", "simulate", "--config", str(cfg)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == cli.EXIT_NUMERICAL, out.stderr
    [line] = out.stderr.splitlines()
    msg = json.loads(line)
    assert msg["error"] == "numerical"
    assert "2017-03-15" in msg["message"]
    assert "inf" not in (tmp_path / "out" / "truth.csv").read_text()


def _simulate_peak(tmp_path, n_days):
    """The traced peak of one simulate run of the two-leg scenario at ``n_days``, in bytes
    over the memory held before it."""
    cfg = _write_config(tmp_path)
    (tmp_path / "scenario.txt").write_text(SCENARIO.replace("n_days = 3", f"n_days = {n_days}"))
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    return tracemalloc.get_traced_memory()[1] - held


def test_simulate_memory_stays_flat_in_days(tmp_path):
    """simulate holds one day at a time: at 200 days it peaks within 64 KiB of its peak at
    10 days, where holding every day would add about 30 KiB a day."""
    tracemalloc.start()
    try:
        _simulate_peak(tmp_path, 10)  # imports and first-call caches
        short, long = _simulate_peak(tmp_path, 10), _simulate_peak(tmp_path, 200)
    finally:
        tracemalloc.stop()
    assert long - short < 64 * 1024, (short, long)


def _decompose_peak(tmp_path, n_days):
    """The traced peak of one decompose --jobs 1 run of the two-leg scenario at ``n_days``,
    simulated first, in bytes over the memory held before it."""
    cfg = _write_config(tmp_path, bootstrap={"b_reps": 100, "alpha": 0.05})
    (tmp_path / "scenario.txt").write_text(SCENARIO.replace("n_days = 3", f"n_days = {n_days}"))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    gc.collect()  # garbage of earlier tests is not freed inside the traced run
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    assert cli.main(["decompose", "--config", str(cfg), "--jobs", "1"]) == cli.EXIT_OK
    return tracemalloc.get_traced_memory()[1] - held


def test_decompose_memory_stays_flat_in_days(tmp_path):
    """decompose reads each panel as its day starts and writes each day as it ends: at 40
    days it peaks within 64 KiB of its peak at 10 days, where holding every panel and every
    day's result would add about 20 KiB a day."""
    tracemalloc.start()
    try:
        _decompose_peak(tmp_path, 10)  # imports and first-call caches
        short, long = _decompose_peak(tmp_path, 10), _decompose_peak(tmp_path, 40)
    finally:
        tracemalloc.stop()
    assert long - short < 64 * 1024, (short, long)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fault, code", [("date", cli.EXIT_CONFIG),
                                         ("instruments", cli.EXIT_CONFIG),
                                         ("number", cli.EXIT_IO)])
def test_decompose_stopped_by_a_late_panel_leaves_no_table(capsys, tmp_path, monkeypatch, jobs,
                                                            fault, code):
    """A last panel that fails its date or instrument check (exit 3) or does not parse
    (exit 2) is read after earlier days ran and were written: the run still exits with the
    panel's code and names its file, and leaves no table, finished or in part, in the
    output directory."""
    cfg = _write_config(tmp_path)
    (tmp_path / "scenario.txt").write_text(SCENARIO.replace("n_days = 3", "n_days = 8"))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    last = tmp_path / "out" / "panels" / "panel_2017-03-22.csv"
    lines = last.read_text().splitlines(keepends=True)
    if fault == "date":
        lines = [line.replace("2017-03-22", "2017-03-23") for line in lines]
    elif fault == "instruments":
        lines[0] = lines[0].replace(",FV", ",US")
    else:
        lines[9] = lines[9].replace(lines[9].split(",")[2], "abc", 1)
    last.write_text("".join(lines))
    written, write_day = [], pipeline.Tables.write_day

    def record_day(tables, res):
        written.append(res.date)
        write_day(tables, res)

    monkeypatch.setattr(pipeline.Tables, "write_day", record_day)
    assert cli.main(["decompose", "--config", str(cfg), "--jobs", str(jobs)]) == code
    msg = _stderr_json(capsys)
    assert msg["error"] == {cli.EXIT_CONFIG: "config", cli.EXIT_IO: "io"}[code]
    assert "panel_2017-03-22.csv" in msg["message"]
    assert written[:3] == sim.business_dates(dt.date(2017, 3, 13), 3)  # days ran before it
    assert sorted(os.listdir(tmp_path / "out")) == ["panels", "truth.csv"]


def _write_tick_config(tmp_path, **extra):
    """Two instruments trading every 30 s through 2017-03-13 and 2017-03-14."""
    rows = ["t,p,v"]
    for day in ("2017-03-13", "2017-03-14"):
        for k in range(0, 3600 * 9, 30):
            h, rem = divmod(k, 3600)
            m, s = divmod(rem, 60)
            rows.append(f"{day} {7 + h:02d}:{m:02d}:{s:02d},{100 + 0.01 * (k % 7):.4f},1")
    (tmp_path / "tu.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "fv.csv").write_text("\n".join(rows) + "\n")
    schema = {"timestamp": "t", "price": "p", "volume": "v"}
    return _write_config(
        tmp_path,
        ticks={"TU": {"path": "tu.csv", "schema": schema},
               "FV": {"path": "fv.csv", "schema": schema}},
        **extra,
    )


def test_ingest_writes_panels_and_drop_log(tmp_path):
    cfg = _write_tick_config(tmp_path)
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_OK
    panels = sorted(os.listdir(tmp_path / "out" / "panels"))
    assert panels == ["panel_2017-03-13.csv", "panel_2017-03-14.csv"]
    assert (tmp_path / "out" / "drop_log.csv").read_text() == "date,reason\n"
    cfg = _write_tick_config(tmp_path, name="drop.json", calendar={"excluded_dates": ["2017-03-14"]})
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_OK
    rows = list(csv.reader(open(tmp_path / "out" / "drop_log.csv", newline="")))
    assert rows == [["date", "reason"], ["2017-03-14", "excluded_date"]]


@pytest.mark.parametrize("stage", ["ingest", "simulate"])
def test_rerun_replaces_every_panel(tmp_path, stage):
    """A rerun that keeps fewer days leaves no panel of the earlier run for decompose
    to read; a file in panels/ that is no panel stays."""
    if stage == "ingest":
        first, rerun = _write_tick_config(tmp_path), _write_tick_config(
            tmp_path, name="rerun.json", calendar={"excluded_dates": ["2017-03-14"]})
        kept = ["panel_2017-03-13.csv"]
    else:
        first, rerun = _write_config(tmp_path), _write_config(
            tmp_path, name="rerun.json", start_date="2017-03-20")
        kept = ["panel_2017-03-20.csv", "panel_2017-03-21.csv", "panel_2017-03-22.csv"]
    panels = tmp_path / "out" / "panels"
    assert cli.main([stage, "--config", str(first)]) == cli.EXIT_OK
    (panels / "notes.txt").write_text("not a panel\n")
    assert cli.main([stage, "--config", str(rerun)]) == cli.EXIT_OK
    assert sorted(os.listdir(panels)) == ["notes.txt", *kept]
    assert cli.main(["decompose", "--config", str(rerun)]) == cli.EXIT_OK
    rows = list(csv.DictReader(open(tmp_path / "out" / "outcomes.csv", newline="")))
    assert [f"panel_{r['date']}.csv" for r in rows] == kept


def test_output_path_with_glob_metacharacters(tmp_path):
    """decompose finds the panels that simulate wrote under an output path that glob
    would read as a pattern."""
    cfg = _write_config(tmp_path)
    for stage in ("simulate", "decompose"):
        assert cli.main([stage, "--config", str(cfg), "--output", "gl[1]"]) == cli.EXIT_OK
    assert (tmp_path / "gl[1]" / "outcomes.csv").exists()


def test_ingest_rejects_non_finite_price_and_overflowing_volume(tmp_path):
    """A nan price as the last tick at a grid instant, or a volume of 1e400,
    is a rejected row; the panels equal those of the file without them."""
    cfg = _write_tick_config(tmp_path)
    assert cli.main(["ingest", "--config", str(cfg), "--output", "clean"]) == cli.EXIT_OK
    with open(tmp_path / "tu.csv", "a") as handle:
        handle.write("2017-03-13 07:01:00,nan,1\n2017-03-13 07:02:00,inf,1\n"
                     "2017-03-14 09:00:00,101.0,1e400\n")
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_OK
    panels = sorted(os.listdir(tmp_path / "clean" / "panels"))
    assert sorted(os.listdir(tmp_path / "out" / "panels")) == panels
    for name in panels:
        clean = (tmp_path / "clean" / "panels" / name).read_bytes()
        assert (tmp_path / "out" / "panels" / name).read_bytes() == clean
    assert (tmp_path / "out" / "drop_log.csv").read_bytes() == (
        tmp_path / "clean" / "drop_log.csv").read_bytes()


def test_ingest_writes_tick_counts(tmp_path):
    """tick_counts.csv gives each instrument's non-blank records and rejected rows."""
    cfg = _write_tick_config(tmp_path)
    with open(tmp_path / "tu.csv", "a") as handle:
        handle.write("2017-03-13 07:01:00,nan,1\n\nnot a time,100,1\n"
                     "2017-03-14 09:00:00,101.0,-1\n")
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_OK
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["drop_log.csv", "panels", "tick_counts.csv"]
    assert (out / "tick_counts.csv").read_text() == (
        "instrument,rows,rejected\nTU,2163,3\nFV,2160,0\n")


def test_ingest_that_keeps_no_day_fails(capsys, tmp_path):
    cfg = _write_tick_config(
        tmp_path, calendar={"excluded_dates": ["2017-03-13", "2017-03-14"]}
    )
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_IO
    msg = _stderr_json(capsys)
    assert msg["error"] == "io"
    assert "2 dates" in msg["message"]
    assert os.listdir(tmp_path / "out" / "panels") == []
    drops = list(csv.reader(open(tmp_path / "out" / "drop_log.csv", newline="")))
    assert drops == [
        ["date", "reason"], ["2017-03-13", "excluded_date"], ["2017-03-14", "excluded_date"]
    ]


@pytest.mark.parametrize("column", [["t"], 3, None])
def test_non_string_schema_column_rejected(capsys, tmp_path, column):
    (tmp_path / "tu.csv").write_text("t,p,v\n2017-03-13 07:00:01,100.0,1\n")
    cfg = _write_config(
        tmp_path, instruments=["TU"], pairs=[],
        ticks={"TU": {"path": "tu.csv", "schema": {"timestamp": column, "price": "p"}}},
    )
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "schema column names" in _stderr_json(capsys)["message"]


@pytest.mark.parametrize("role", ["instrument", "volumes"])
def test_unknown_schema_role_rejected(capsys, tmp_path, role):
    (tmp_path / "tu.csv").write_text("t,p,v,sym\n2017-03-13 07:00:01,100.0,1,TU\n")
    schema = {"timestamp": "t", "price": "p", role: "sym" if role == "instrument" else "v"}
    cfg = _write_config(
        tmp_path, instruments=["TU"], pairs=[],
        ticks={"TU": {"path": "tu.csv", "schema": schema}},
    )
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert role in msg["message"]


def test_ingest_requires_sources_for_all_instruments(capsys, tmp_path):
    cfg = _write_config(tmp_path, ticks={})
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "tick source" in _stderr_json(capsys)["message"]


@pytest.fixture()
def full_run(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_OK
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    return tmp_path, cfg


def test_decompose_refuses_panels_of_another_session(capsys, tmp_path):
    """Panels simulated at 07:00-16:00 do not decompose under 08:00-17:00 (same N)."""
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    shifted = _write_config(tmp_path, name="shifted.json",
                            session=dict(SESSION, start="08:00", end="17:00"))
    assert cli.main(["decompose", "--config", str(shifted)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "panel_2017-03-13.csv" in msg["message"]
    assert not (tmp_path / "out" / "decompositions.csv").exists()


def test_pipeline_end_to_end(full_run):
    tmp_path, _ = full_run
    out = tmp_path / "out"
    for name in (
        "panels/panel_2017-03-13.csv", "truth.csv", "decompositions.csv",
        "events.csv", "jumps.csv", "outcomes.csv", "failures.csv",
        "cj_qv_share.csv", "correlation_regression.csv", "announcement_logit.csv",
        "shift_rotation.csv", "histogram.csv", "manifest.json",
    ):
        assert (out / name).exists(), name

    rows = list(csv.DictReader(open(out / "decompositions.csv", newline="")))
    assert [r["classification"] for r in rows] == [
        "no_discontinuity", "co_jump", "disjoint_only"
    ]
    cj_day = rows[1]
    assert float(cj_day["cj"]) == pytest.approx(0.1 * 0.12, rel=0.1)

    ev_rows = list(csv.DictReader(open(out / "events.csv", newline="")))
    assert len(ev_rows) == 1
    assert ev_rows[0]["index"] == "270"
    assert ev_rows[0]["time"] == "11:30:00"

    hist = list(csv.DictReader(open(out / "histogram.csv", newline="")))
    assert sum(int(r["count"]) for r in hist) == 1
    hit = next(r for r in hist if r["count"] == "1")
    assert hit["bin_start"] == "11:30:00"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["b_reps"] == 150
    assert set(manifest["inputs"]) == {"decompositions.csv", "events.csv", "tuple_days.csv"}
    # the one co-jump day is the one news day, so no quiet day co-jumps: the blank row is recorded
    assert manifest["degenerate_fits"] == [
        ["announcement_logit", "TU-FV", "outcome is constant (0) on the news=0 cell"]
    ]

    # every table reads back: plain cells, floats as their shortest round-trip repr
    for row in csv.DictReader(open(out / "truth.csv", newline="")):
        for col in ("ic", "cj"):
            float(row[col])
    for path in out.rglob("*.csv"):
        for row in csv.reader(open(path, newline="")):
            for cell in row:
                assert "(" not in cell, (path.name, cell)
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not re.fullmatch(r"-?\d+", cell):
                    assert repr(value) == cell, (path.name, cell)


FOUR_LEG_SCENARIO = """\
n_intervals = 540
n_days = 4
sigma = 0.01, 0.012, 0.011, 0.009
rho = 0.6
seed = 300
jump = 1, 270, 0.1, 0.12, 0.0, 0.09
jump = 3, 100, 0.0, 0.0, 0.11, 0.0
"""
FOUR_LEGS = ["TU", "FV", "TY", "US"]
BASE_PAIRS = [["TU", "FV"], ["TU", "TY"], ["FV", "US"]]
ROW_KEYS = {"decompositions.csv": ("date", "pair"), "outcomes.csv": ("date", "pair"),
            "events.csv": ("date", "pair", "index"), "jumps.csv": ("date", "instrument", "index")}


def _four_leg_config(root, pairs):
    cfg = _write_config(root, instruments=FOUR_LEGS, pairs=pairs, seed=11,
                        bootstrap={"b_reps": 100, "alpha": 0.05})
    (root / "scenario.txt").write_text(FOUR_LEG_SCENARIO)
    return cfg


def _tree(out):
    return {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*")
            if path.is_file()}


def _rows(out, name):
    with open(out / name, newline="") as handle:
        return {tuple(row[k] for k in ROW_KEYS[name]): row for row in csv.DictReader(handle)}


@pytest.fixture(scope="module")
def four_leg_runs(tmp_path_factory):
    """The full run (four days, three pairs) and one work tree every variant is rerun in."""
    full = tmp_path_factory.mktemp("full")
    cfg = _four_leg_config(full, BASE_PAIRS)
    for stage in ("simulate", "decompose", "report"):
        assert cli.main([stage, "--config", str(cfg)]) == cli.EXIT_OK
    return full / "out", tmp_path_factory.mktemp("variant")


_ORDERED_PAIRS = [[a, b] for a in FOUR_LEGS for b in FOUR_LEGS if a != b]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs=st.lists(st.sampled_from(_ORDERED_PAIRS), min_size=1, max_size=4,
                      unique_by=frozenset),
       days=st.sets(st.integers(0, 3), min_size=1),
       jobs=st.sampled_from([1, 2]))
@example(pairs=BASE_PAIRS, days={0, 1, 2, 3}, jobs=1)
@example(pairs=BASE_PAIRS, days={0, 1, 2, 3}, jobs=2)
def test_kept_rows_do_not_depend_on_the_other_pairs_days_or_jobs(four_leg_runs, pairs, days,
                                                                 jobs):
    """Rerun over the full run's panels with any subset, permutation or insertion of pairs
    (new pairs in either orientation), any subset of its days and --jobs 1 or 2: every
    decompositions, outcomes, events and jumps row of a kept day (and, where the table has a
    pair, a configured pair of the full run in its orientation) equals the full run's.
    The full configuration rerun gives a byte-identical tree, report included."""
    full_out, root = four_leg_runs
    out = root / "out"
    cfg = _four_leg_config(root, pairs)
    panels = sorted((full_out / "panels").glob("panel_*.csv"))
    (out / "panels").mkdir(parents=True, exist_ok=True)
    for stale in (out / "panels").glob("*"):
        stale.unlink()
    for day in days:
        (out / "panels" / panels[day].name).write_bytes(panels[day].read_bytes())
    assert cli.main(["decompose", "--config", str(cfg), "--jobs", str(jobs)]) == cli.EXIT_OK
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK

    dates = {panels[day].name[6:16] for day in days}
    names = {"-".join(pair) for pair in pairs} & {"-".join(pair) for pair in BASE_PAIRS}
    for table, keys in ROW_KEYS.items():
        want = {key: row for key, row in _rows(full_out, table).items() if key[0] in dates
                and ("pair" not in keys or key[1] in names)}
        got = _rows(out, table)
        assert {key: got.get(key) for key in want} == want, table
    if pairs == BASE_PAIRS and len(days) == len(panels):
        full = _tree(full_out)
        del full["truth.csv"]
        assert _tree(out) == full


def test_rerun_is_byte_identical(full_run):
    tmp_path, cfg = full_run
    out = tmp_path / "out"
    first = {
        name: (out / name).read_bytes()
        for name in ("decompositions.csv", "events.csv", "outcomes.csv",
                     "jumps.csv", "manifest.json", "histogram.csv")
    }
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_OK
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_tree_does_not_depend_on_the_hash_seed(tmp_path):
    """simulate, decompose and report of the three-day config, each chain in its own
    interpreter under PYTHONHASHSEED 1 and 977, write byte-identical trees, manifest.json
    included: no output follows the order of a set or a dict keyed by strings."""
    cfg = _write_config(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    trees = []
    for hash_seed in ("1", "977"):
        out = tmp_path / f"out{hash_seed}"
        chain = (f"from cojump import cli\nfor stage in ('simulate', 'decompose', 'report'):\n"
                 f"    assert cli.main([stage, '--config', {str(cfg)!r}, '--output', "
                 f"{str(out)!r}]) == 0")
        subprocess.run([sys.executable, "-c", chain], check=True,
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed})
        trees.append(_tree(out))
    assert "manifest.json" in trees[0] and "panels/panel_2017-03-15.csv" in trees[0]
    assert trees[0] == trees[1]


@pytest.mark.parametrize("run", ["full_run", "golden"])
def test_events_agree_with_jumps(request, tmp_path, run):
    """Each events.csv row joins onto jumps.csv: its index is flagged for both legs of its
    pair, at the same time label, and its pair's day is a co_jump day."""
    if run == "full_run":
        out = request.getfixturevalue("full_run")[0] / "out"
    else:
        out, cfg = tmp_path / "golden", Path(__file__).parent / "golden" / "config.json"
        for stage in ("simulate", "decompose"):
            assert cli.main([stage, "--config", str(cfg), "--output", str(out)]) == cli.EXIT_OK
    times = {(r["date"], r["instrument"], r["index"]): r["time"]
             for r in csv.DictReader(open(out / "jumps.csv", newline=""))}
    labels = {(r["date"], r["pair"]): r["classification"]
              for r in csv.DictReader(open(out / "decompositions.csv", newline=""))}
    events = list(csv.DictReader(open(out / "events.csv", newline="")))
    assert events
    for row in events:
        assert list(row) == ["date", "pair", "index", "time"], row
        legs = [times.get((row["date"], leg, row["index"])) for leg in row["pair"].split("-")]
        assert legs == [row["time"]] * 2, row
        assert labels[row["date"], row["pair"]] == "co_jump", row


def test_outcomes_agree_with_decompositions(full_run):
    """Each outcomes.csv row carries the Z, p, verdict and label of its decompositions.csv row."""
    out = full_run[0] / "out"
    decomps = {(r["date"], r["pair"]): r
               for r in csv.DictReader(open(out / "decompositions.csv", newline=""))}
    outcomes = list(csv.DictReader(open(out / "outcomes.csv", newline="")))
    assert [(r["date"], r["pair"]) for r in outcomes] == list(decomps)
    for row in outcomes:
        dec = decomps[row["date"], row["pair"]]
        assert [row["Z"], row["p"], row["rejected"], row["classification"]] == [
            dec["z"], dec["p"], dec["rejected"], dec["classification"]]


def test_seed_override_changes_outcomes(full_run):
    tmp_path, cfg = full_run
    out = tmp_path / "out"
    baseline = (out / "outcomes.csv").read_bytes()
    assert cli.main(
        ["decompose", "--config", str(cfg), "--seed", "99", "--output",
         str(tmp_path / "out99")]
    ) == cli.EXIT_IO  # panels live under the new output dir, none found yet
    # reuse the simulated panels: decompose in place with a new seed
    assert cli.main(["decompose", "--config", str(cfg), "--seed", "99"]) == cli.EXIT_OK
    changed = (out / "outcomes.csv").read_bytes()
    assert changed != baseline
    rows = list(csv.DictReader(open(out / "outcomes.csv", newline="")))
    assert all(r["seed"] != "" for r in rows)


def test_manifest_hash_tracks_config_content(full_run):
    tmp_path, cfg = full_run
    out = tmp_path / "out"
    h1 = json.loads((out / "manifest.json").read_text())["config_hash"]
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config_hash"] == h1
    raw = json.loads(cfg.read_text())
    raw["seed"] = 1
    cfg.write_text(json.dumps(raw, indent=1))
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config_hash"] != h1


def test_env_var_config(full_run, monkeypatch):
    tmp_path, cfg = full_run
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    assert cli.main(["report"]) == cli.EXIT_OK


def test_report_on_empty_decompositions(capsys, tmp_path):
    """No day to aggregate is an error, not a run of header-only tables."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "decompositions.csv").write_text(
        "date,pair,qv,ic,cj,z,p,rejected,inconclusive,classification,"
        "corr_total,corr_cont\n"
    )
    (out / "events.csv").write_text("date,pair,index,time\n")
    (out / "tuple_days.csv").write_text("date,tuple,label\n")
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    msg = _stderr_json(capsys)
    assert msg["error"] == "io"
    assert "no rows" in msg["message"]
    assert not (out / "cj_qv_share.csv").exists()
    assert not (out / "manifest.json").exists()


def _fail_days(monkeypatch, *days):
    """Make process_day raise on the given days of March 2017 (a --jobs 1 run)."""
    real = pipeline.process_day

    def process_day(panel, *args):
        if panel.date.day in days:
            raise ValueError(f"no estimate on {panel.date}")
        return real(panel, *args)

    monkeypatch.setattr(pipeline, "process_day", process_day)


def test_decompose_when_every_day_fails(capsys, tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    _fail_days(monkeypatch, 13, 14, 15)
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_NUMERICAL
    msg = _stderr_json(capsys)
    assert msg["error"] == "numerical"
    assert msg["message"].startswith("all 3 days failed")
    assert "2017-03-13: ValueError" in msg["message"]
    out = tmp_path / "out"
    failures = list(csv.DictReader(open(out / "failures.csv", newline="")))
    assert [r["date"] for r in failures] == ["2017-03-13", "2017-03-14", "2017-03-15"]
    assert (out / "decompositions.csv").exists()
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    assert "no rows" in _stderr_json(capsys)["message"]


def test_decompose_with_one_failed_day_succeeds(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    _fail_days(monkeypatch, 14)
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_OK
    out = tmp_path / "out"
    failures = list(csv.DictReader(open(out / "failures.csv", newline="")))
    assert [r["date"] for r in failures] == ["2017-03-14"]
    rows = list(csv.DictReader(open(out / "decompositions.csv", newline="")))
    assert [r["date"] for r in rows] == ["2017-03-13", "2017-03-15"]
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK


def test_decompose_refuses_panel_with_mixed_dates(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    edited = tmp_path / "out" / "panels" / "panel_2017-03-14.csv"
    lines = edited.read_text().splitlines(keepends=True)
    lines[5] = lines[5].replace("2017-03-14", "2017-03-16", 1)
    edited.write_text("".join(lines))
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "panel_2017-03-14.csv" in msg["message"]
    assert "date" in msg["message"]


@pytest.mark.parametrize("where", ["config", "panel"])
def test_decompose_refuses_panels_of_other_instruments(capsys, tmp_path, where):
    """Panels of TU and FV under a config naming US, or one panel naming US."""
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    if where == "config":
        cfg = _write_config(tmp_path, name="renamed.json", instruments=["TU", "US"],
                            pairs=[["TU", "US"]])
        name = "panel_2017-03-13.csv"
    else:
        _edit_panel(tmp_path, 0, lambda text: text.replace(",FV", ",US"))
        name = "panel_2017-03-14.csv"
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert name in msg["message"] and "instruments" in msg["message"]
    assert not (tmp_path / "out" / "decompositions.csv").exists()


def test_decompose_refuses_panel_dated_unlike_its_file(capsys, tmp_path):
    """panel_2017-03-13.csv holding the rows of 2017-03-14 would test that day twice."""
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    path = tmp_path / "out" / "panels" / "panel_2017-03-13.csv"
    path.write_text(path.read_text().replace("2017-03-13", "2017-03-14"))
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "panel_2017-03-13.csv" in msg["message"] and "2017-03-14" in msg["message"]
    assert not (tmp_path / "out" / "decompositions.csv").exists()


def test_report_requires_decomposition_outputs(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    assert "decomposition" in _stderr_json(capsys)["message"]


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_announcement_times_zones_and_windows_change_no_output(full_run):
    """Only announcement dates are read: the rest of the block moves no byte."""
    tmp_path, cfg = full_run
    raw = json.loads(cfg.read_text())
    del raw["announcements"]["windows"]
    raw["announcements"]["events"] = [
        {"date": "2017-03-14", "time": "08:45", "timezone": "Europe/Berlin"}
    ]
    raw["output"] = "out2"
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(raw, indent=1))
    for stage in ("simulate", "decompose", "report"):
        assert cli.main([stage, "--config", str(moved)]) == cli.EXIT_OK
    first, second = _tree(tmp_path / "out"), _tree(tmp_path / "out2")
    manifests = [json.loads(t.pop("manifest.json")) for t in (first, second)]
    assert first == second
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    for m in manifests:
        del m["config_hash"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_rejected_before_any_day(capsys, tmp_path, where):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    if where == "flag":
        args = ["decompose", "--config", str(cfg), "--seed", "-1"]
    else:
        args = ["decompose", "--config", str(_write_config(tmp_path, "neg.json", seed=-1))]
    assert cli.main(args) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "seed" in msg["message"]
    assert not (tmp_path / "out" / "decompositions.csv").exists()


@pytest.mark.parametrize("minutes", [7, 0])
def test_histogram_bin_that_does_not_divide_session_rejected(capsys, tmp_path, minutes):
    cfg = _write_config(tmp_path, report={"histogram_bin_minutes": minutes})
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "histogram_bin_minutes" in msg["message"]
    assert not (tmp_path / "out").exists()


REPORT_FILES = ("cj_qv_share.csv", "correlation_regression.csv", "announcement_logit.csv",
                "shift_rotation.csv", "histogram.csv", "manifest.json")


def _report_fails_before_any_table(capsys, full_run, name, edit, config=None):
    """``edit`` one intermediate of a finished run and delete its report files: report
    exits 2 naming the file and writes no report file. Returns the error message."""
    tmp_path, cfg = full_run
    out = tmp_path / "out"
    edit(out / name)
    for table in REPORT_FILES:
        (out / table).unlink()
    assert cli.main(["report", "--config", str(config or cfg)]) == cli.EXIT_IO
    message = _io_error_message(capsys, name)
    assert not any((out / table).exists() for table in REPORT_FILES)
    return message


@pytest.mark.parametrize("column, value", [("index", "9999"), ("index", "-1"),
                                           ("time", "11:31:00")])
def test_event_off_the_session_grid_is_io_error(capsys, full_run, column, value):
    """An events.csv row off the grid fails report with exit 2 before any table is written."""
    def edit(path):
        rows = list(csv.reader(open(path, newline="")))
        rows[1][rows[0].index(column)] = value
        path.write_text("".join(",".join(r) + "\n" for r in rows))

    message = _report_fails_before_any_table(capsys, full_run, "events.csv", edit)
    assert "not an interval of the session" in message


@pytest.mark.parametrize("announcements", [True, False], ids=["news", "no_news"])
@pytest.mark.parametrize("fault", ["missing", "no_label", "unknown_label"])
def test_unreadable_tuple_days_is_io_error(capsys, full_run, announcements, fault):
    """tuple_days.csv is required and read, with or without announcements, before any
    table is written; a label other than UpShift, DownShift or Rotation does not parse."""
    def edit(path):
        if fault == "missing":
            path.unlink()
        elif fault == "no_label":
            path.write_text(path.read_text().replace(",label", ",kind", 1))
        else:
            path.write_text(path.read_text() + "2017-03-14,TU-FV,Foo\n")

    config = None if announcements else _write_config(full_run[0], "quiet.json", announcements=None)
    message = _report_fails_before_any_table(capsys, full_run, "tuple_days.csv", edit, config)
    assert {"missing": "missing decomposition output", "no_label": "missing columns ['label']",
            "unknown_label": "line 2: unknown label 'Foo'"}[fault] in message


def test_unknown_classification_is_io_error(capsys, full_run):
    """A decompositions.csv classification outside classify's three labels does not parse."""
    def edit(path):
        text = path.read_text()
        assert ",no_discontinuity," in text
        path.write_text(text.replace(",no_discontinuity,", ",co_jmp,", 1))

    message = _report_fails_before_any_table(capsys, full_run, "decompositions.csv", edit)
    assert "line 2: unknown classification 'co_jmp'" in message


def _edit_panel(tmp_path, line, edit):
    path = tmp_path / "out" / "panels" / "panel_2017-03-14.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[line] = edit(lines[line])
    path.write_text("".join(lines))


def _io_error_message(capsys, name):
    msg = _stderr_json(capsys)
    assert msg["error"] == "io"
    assert name in msg["message"]
    return msg["message"]


def test_panel_with_non_numeric_value_is_io_error(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    _edit_panel(tmp_path, 3, lambda text: text.replace(text.split(",")[2], "abc", 1))
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_IO
    assert "abc" in _io_error_message(capsys, "panel_2017-03-14.csv")
    assert not (tmp_path / "out" / "decompositions.csv").exists()


def test_panel_with_wrong_header_is_io_error(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    _edit_panel(tmp_path, 0, lambda text: text.replace("date", "day", 1))
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_IO
    assert "not a panel file" in _io_error_message(capsys, "panel_2017-03-14.csv")


def test_scenario_line_without_equals_is_io_error(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    (tmp_path / "scenario.txt").write_text(SCENARIO.replace("rho = 0.6", "rho 0.6"))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_IO
    assert "key = value" in _io_error_message(capsys, "scenario.txt:4")


@pytest.mark.parametrize("edit, reason", [
    (("rho = 0.6", "rho = 1.5"), "|rho| must not exceed 1"),
    (("jump = 2, 400", "jump = 3, 400"), "outside the panel"),
    (("sigma = 0.01, 0.012\nrho = 0.6", "sigma = 0.01, 0.012, 0.011\nrho = -0.9"),
     "not a valid equicorrelation"),
], ids=["rho", "jump_day", "equicorrelation"])
def test_scenario_value_that_makes_no_scenario_is_io_error(capsys, tmp_path, edit, reason):
    """A value out of range, or values that do not fit together, exit 2 naming the file."""
    legs = ["TU", "FV", "TY"] if reason.startswith("not a valid") else ["TU", "FV"]
    cfg = _write_config(tmp_path, instruments=legs)
    scenario = SCENARIO.replace(*edit)
    if len(legs) == 3:
        scenario = "\n".join(line for line in scenario.split("\n") if "jump" not in line)
    (tmp_path / "scenario.txt").write_text(scenario)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_IO
    assert reason in _io_error_message(capsys, "scenario.txt")
    assert not list(tmp_path.glob("out/panels/*"))


def test_decompositions_without_ic_column_is_io_error(capsys, full_run):
    tmp_path, cfg = full_run
    path = tmp_path / "out" / "decompositions.csv"
    rows = list(csv.reader(open(path, newline="")))
    col = rows[0].index("ic")
    path.write_text("".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows))
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    assert "'ic'" in _io_error_message(capsys, "decompositions.csv")


@pytest.mark.parametrize("keep", [1, 5])
def test_decompositions_with_short_row_is_io_error(capsys, full_run, keep):
    """A row with fewer fields than the header exits 2 naming its line; blank lines are skipped."""
    tmp_path, cfg = full_run
    path = tmp_path / "out" / "decompositions.csv"
    rows = list(csv.reader(open(path, newline="")))
    rows[2] = rows[2][:keep]
    path.write_text("\n".join(",".join(r) for r in rows) + "\n\n")
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    assert "line 3: " in _io_error_message(capsys, "decompositions.csv")
    path.write_text("\n\n".join(",".join(r) for r in rows[:2]) + "\n\n")
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK


def test_shift_rotation_without_announcements_counts_every_day_as_quiet(tmp_path):
    """Without an announcements block the tuple still gets its two rows: no announcement
    day, and every processed day a non_announcement day."""
    cfg = _write_config(tmp_path, announcements=None, tuples=[["TU", "FV"]])
    for stage in ("simulate", "decompose", "report"):
        assert cli.main([stage, "--config", str(cfg)]) == cli.EXIT_OK
    out = tmp_path / "out"
    processed = list(csv.DictReader(open(out / "decompositions.csv", newline="")))
    rows = list(csv.DictReader(open(out / "shift_rotation.csv", newline="")))
    assert [(r["tuple"], r["segment"]) for r in rows] == [
        ("TU-FV", "announcement"), ("TU-FV", "non_announcement")]
    assert rows[0]["n_segment_days"] == "0"
    assert int(rows[1]["n_segment_days"]) == len(processed) == 3


def test_degenerate_fits_leave_blank_rows(capsys, full_run):
    """A pair without a co-jump day, or with under 3 finite correlation days, gets a blank row."""
    tmp_path, cfg = full_run
    capsys.readouterr()
    out = tmp_path / "out"
    path = out / "decompositions.csv"
    rows = list(csv.DictReader(open(path, newline="")))
    for row in rows:
        if row["classification"] == "co_jump":
            row.update(classification="disjoint_only", cj="0.0")
    rows[2]["corr_total"] = "nan"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_OK
    assert (out / "announcement_logit.csv").read_text().splitlines()[1:] == ["TU-FV,,,,,"]
    assert (out / "correlation_regression.csv").read_text().splitlines()[1:] == ["TU-FV,,,,"]
    expected = [
        ["announcement_logit", "TU-FV", "both outcome classes must be present"],
        ["correlation_regression", "TU-FV", "need at least 3 paired observations"],
    ]
    assert json.loads((out / "manifest.json").read_text())["degenerate_fits"] == expected
    warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [[w["table"], w["pair"], w["message"]] for w in warnings] == expected
    assert {w["warning"] for w in warnings} == {"degenerate_fit"}


def test_crashed_worker_day_is_rerun_serially(tmp_path, monkeypatch):
    """A day whose worker process dies reruns in the main process: --jobs 2 equals --jobs 1."""
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    assert cli.main(["decompose", "--config", str(cfg), "--jobs", "1"]) == cli.EXIT_OK
    serial = _tree(tmp_path / "out")
    main_pid, real = os.getpid(), pipeline.process_day
    marker = tmp_path / "crashed"

    def crash_in_worker(panel, *args):
        if os.getpid() != main_pid and panel.date == dt.date(2017, 3, 14):
            marker.touch()
            os._exit(1)
        return real(panel, *args)

    # the pool's workers are forked, so they inherit the patched module
    monkeypatch.setattr(pipeline, "process_day", crash_in_worker)
    assert cli.main(["decompose", "--config", str(cfg), "--jobs", "2"]) == cli.EXIT_OK
    assert marker.exists()  # the worker really died
    assert _tree(tmp_path / "out") == serial


def test_readme_config_example_loads(tmp_path):
    """The README's config block passes load_config and yields its announcement dates."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    raw = json.loads(block)
    (tmp_path / "config.json").write_text(block)
    (tmp_path / raw["scenario"]).write_text(SCENARIO)
    for src in raw["ticks"].values():
        (tmp_path / src["path"]).write_text("ts,px,vol\n")
    config = cli.load_config(str(tmp_path / "config.json"), {})
    assert config.announcements == {dt.date(2017, 3, 15), dt.date(2017, 5, 3)}
    assert config.instruments == ["TU", "FV", "TY"]


@pytest.mark.parametrize("role", ["timestamp", "price"])
def test_schema_without_timestamp_or_price_rejected_on_load(capsys, tmp_path, role):
    """A schema missing a required role exits 3 when the config loads, before any tick is read."""
    (tmp_path / "tu.csv").write_text("t,p,v\n2017-03-13 07:00:01,100.0,1\n")
    schema = {"timestamp": "t", "price": "p", "volume": "v"}
    del schema[role]
    cfg = _write_config(
        tmp_path, instruments=["TU"], pairs=[],
        ticks={"TU": {"path": "tu.csv", "schema": schema}},
    )
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert f"ticks.TU.schema.{role}" in msg["message"]
    assert not (tmp_path / "out").exists()


def _set(raw, key, value):
    """``raw`` with the dotted ``key`` set to ``value``, creating blocks on the way."""
    *blocks, last = key.split(".")
    target = raw
    for block in blocks:
        target = target.setdefault(block, {})
    target[last] = value
    return raw


@pytest.mark.parametrize("instruments", [[], ["TU", "TU"]], ids=["none", "repeated"])
def test_empty_or_repeated_instruments_rejected(capsys, tmp_path, instruments):
    """A repeated name would label two panel columns alike; decompose would read only one."""
    cfg = _write_config(tmp_path, instruments=instruments, pairs=[])
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config" and "instruments" in msg["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("instruments", "TU"), ("pairs", "TU"), ("tuples", "TU"),
     ("calendar.excluded_dates", "2017-03-14"), ("announcements.events", "2017-03-14")],
)
def test_string_where_a_list_is_read_rejected(capsys, tmp_path, key, value):
    """A string is not read as the list of its characters: it exits 3 and names the key."""
    raw = _set(json.loads(_write_config(tmp_path).read_text()), key, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert f"{key} must be a list" in msg["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, text",
    [("session.timezone", "Nowhere/Zone", "no time zone"),
     ("session.timezone", "../zoneinfo", "no time zone"),
     ("session.end", "06:30", "must precede"),
     ("session.start", "07:00+02:00", "no UTC offset"),
     ("session.end", "16:00Z", "no UTC offset"),
     ("session.start", "07:00:00.5", "whole seconds"),
     ("session.end", "16:00:00.000001", "whole seconds"),
     ("announcements.events", [["2017-03-14", "13:00", "America/Chicago", "2017-03-15"]],
      "[0] must be [date, time, timezone]"),
     ("session.sampling_seconds", 7, "grid step of 7 s"),
     ("calendar.low_trade_threshold", 1.5, "(0, 1], got 1.5")],
)
def test_session_and_calendar_errors_name_the_key(capsys, tmp_path, key, value, text):
    """A zone, window, grid step or threshold the session or calendar refuses, and an event
    list longer than [date, time, timezone], exits 3 naming its dotted key, never a name that
    is in no config."""
    raw = _set(json.loads(_write_config(tmp_path).read_text()), key, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert msg["message"].startswith(key) and text in msg["message"]
    assert "sampling_interval" not in msg["message"] and "bad.json" not in msg["message"]
    assert not (tmp_path / "out").exists()


def test_tick_field_over_the_csv_limit_is_io_error(capsys, tmp_path):
    """A field longer than csv's field size limit exits 2 naming the file, also on a
    line whose block would otherwise be converted as columns."""
    cfg = _write_tick_config(tmp_path)
    rows = (tmp_path / "tu.csv").read_text().splitlines()
    rows[5] = rows[5].rsplit(",", 1)[0] + "," + "1" * (csv.field_size_limit() + 1)
    (tmp_path / "tu.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["ingest", "--config", str(cfg)]) == cli.EXIT_IO
    assert "field larger than field limit" in _io_error_message(capsys, "tu.csv")


@pytest.mark.parametrize("where", ["ticks", "panel", "decompositions"])
def test_file_that_is_not_utf8_is_io_error(capsys, tmp_path, where):
    """A byte that is not UTF-8 in a tick, panel or decompositions file exits 2 naming it."""
    stage, cfg = "ingest", _write_tick_config(tmp_path)
    path = tmp_path / "tu.csv"
    if where != "ticks":
        stage = "decompose" if where == "panel" else "report"
        for done in ("simulate", "decompose")[: 1 + (where != "panel")]:
            assert cli.main([done, "--config", str(cfg)]) == cli.EXIT_OK
        path = (tmp_path / "out" / "panels" / "panel_2017-03-14.csv" if where == "panel"
                else tmp_path / "out" / "decompositions.csv")
    data = path.read_bytes()
    path.write_bytes(data[:-20] + b"\xff" + data[-20:])
    assert cli.main([stage, "--config", str(cfg)]) == cli.EXIT_IO
    assert "can't decode byte 0xff" in _io_error_message(capsys, path.name)


def test_config_that_is_not_utf8_is_config_error(capsys, tmp_path):
    """A latin-1 copy of the golden config with a non-ASCII output exits 3 naming the file."""
    raw = json.loads((Path(__file__).parent / "golden" / "config.json").read_text())
    raw["output"] = "r\u00e9sultats"
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(json.dumps(raw, ensure_ascii=False).encode("latin-1"))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert "latin1.json" in msg["message"] and "can't decode byte 0xe9" in msg["message"]


def test_scenario_that_is_not_utf8_is_io_error(capsys, tmp_path):
    """A latin-1 byte in a scenario comment exits 2 naming the file, not 4 (numerical)."""
    cfg = _write_config(tmp_path)
    (tmp_path / "scenario.txt").write_bytes(SCENARIO.replace("# day 1", "# caf\u00e9, day 1")
                                            .encode("latin-1"))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_IO
    assert "can't decode byte 0xe9" in _io_error_message(capsys, "scenario.txt")
    assert not (tmp_path / "out" / "panels").exists()


def test_utf8_config_runs_under_an_ascii_locale(tmp_path):
    """A UTF-8 config naming a non-ASCII tick column is read as UTF-8 where the locale's
    encoding is ASCII, and ingest finds the column in the UTF-8 tick files."""
    raw = json.loads(_write_tick_config(tmp_path).read_text())
    for name in ("TU", "FV"):
        raw["ticks"][name]["schema"]["price"] = "prix \u00e9"
        path = tmp_path / raw["ticks"][name]["path"]
        path.write_bytes(path.read_bytes().replace(b"t,p,v", "t,prix \u00e9,v".encode(), 1))
    cfg = tmp_path / "config.json"
    cfg.write_bytes(json.dumps(raw, ensure_ascii=False).encode())
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "cojump.cli", "ingest", "--config", str(cfg)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == cli.EXIT_OK, out.stderr
    panels = sorted(os.listdir(tmp_path / "out" / "panels"))
    assert panels == ["panel_2017-03-13.csv", "panel_2017-03-14.csv"]


def test_output_path_the_filesystem_cannot_encode_is_io_error(tmp_path):
    """An output directory whose name the ASCII filesystem encoding cannot write exits 2
    naming it, not 4 as a numerical failure."""
    cfg = _write_config(tmp_path, output="r\u00e9sultats")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "cojump.cli", "simulate", "--config", str(cfg)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == cli.EXIT_IO, out.stderr
    error = json.loads(out.stderr)
    assert error["error"] == "io"
    assert str(tmp_path / "r\u00e9sultats") in error["message"]


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_example():
    """The README's config example, with the accepted but unread ``announcements.windows``."""
    raw = json.loads(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    raw["announcements"]["windows"] = [[0, 30]]
    return raw


def _key_paths(node, path=()):
    """The path (keys and list indices) of every object key in a JSON tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, path + (i,))


def _dotted(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


@pytest.mark.parametrize("path", list(_key_paths(_readme_example())), ids=_dotted)
def test_misspelled_config_key_rejected(capsys, tmp_path, path):
    """Every key of the README example, misspelled by one doubled character, exits 3 naming it."""
    raw = _readme_example()
    (tmp_path / raw["scenario"]).write_text(SCENARIO)
    (tmp_path / raw["ticks"]["TU"]["path"]).write_text("ts,px,vol\n")
    *parents, key = path
    block = raw
    for step in parents:
        block = block[step]
    block[key + key[-1]] = block.pop(key)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_CONFIG
    msg = _stderr_json(capsys)
    assert msg["error"] == "config"
    assert _dotted((*parents, key + key[-1])) in msg["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, key", [
    (lambda raw: raw.update(bootstrp=raw.pop("bootstrap")), "bootstrp"),
    (lambda raw: raw["estimator"].update(g_spacinng=7), "estimator.g_spacinng"),
], ids=["bootstrp", "g_spacinng"])
def test_golden_config_with_a_misspelled_key_rejected(capsys, tmp_path, edit, key):
    """A misspelled block or key no longer runs another experiment with exit 0."""
    raw = json.loads((Path(__file__).parent / "golden" / "config.json").read_text())
    edit(raw)
    (tmp_path / "scenario.txt").write_text(SCENARIO)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert _stderr_json(capsys)["message"] == f"unknown config key {key}"
