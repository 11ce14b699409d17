"""Command-line interface: exit codes, overrides, determinism, outputs."""

import csv
import datetime as dt
import json
import os
import re
from pathlib import Path

import pytest

from cojump import cli, pipeline

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
    ],
    ids=["self-pair", "duplicate-pair", "reversed-pair", "repeated-tuple-member"],
)
def test_degenerate_pairs_and_tuples_rejected(capsys, tmp_path, pairs, tuples):
    cfg = _write_config(tmp_path, pairs=pairs, tuples=tuples)
    assert cli.main(["decompose", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert _stderr_json(capsys)["error"] == "config"


def test_bad_alpha_and_reps(capsys, tmp_path):
    cfg = _write_config(tmp_path, bootstrap={"b_reps": 150, "alpha": 1.5})
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    cfg = _write_config(tmp_path, name="c2.json")
    assert cli.main(
        ["simulate", "--config", str(cfg), "--bootstrap-reps", "10"]
    ) == cli.EXIT_CONFIG


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
    assert (tmp_path / "out" / "drop_log.csv").exists()


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

    # every table reads back: plain cells, floats as their shortest round-trip repr
    for row in csv.DictReader(open(out / "truth.csv", newline="")):
        for col in ("ic", "cj", "qv"):
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
    (out / "events.csv").write_text("date,pair,index,time,size_1,size_2\n")
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    msg = _stderr_json(capsys)
    assert msg["error"] == "io"
    assert "no rows" in msg["message"]
    assert not (out / "cj_qv_share.csv").exists()
    assert not (out / "manifest.json").exists()


def test_decompose_when_every_day_fails(capsys, tmp_path):
    """Panels simulated for TU and FV, decomposed for a renamed instrument."""
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    renamed = _write_config(tmp_path, name="renamed.json", instruments=["TU", "US"],
                            pairs=[["TU", "US"]])
    assert cli.main(["decompose", "--config", str(renamed)]) == cli.EXIT_NUMERICAL
    msg = _stderr_json(capsys)
    assert msg["error"] == "numerical"
    assert msg["message"].startswith("all 3 days failed")
    assert "2017-03-13: ValueError" in msg["message"]
    out = tmp_path / "out"
    failures = list(csv.DictReader(open(out / "failures.csv", newline="")))
    assert [r["date"] for r in failures] == ["2017-03-13", "2017-03-14", "2017-03-15"]
    assert (out / "decompositions.csv").exists()
    assert cli.main(["report", "--config", str(renamed)]) == cli.EXIT_IO
    assert "no rows" in _stderr_json(capsys)["message"]


def test_decompose_with_one_failed_day_succeeds(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_OK
    bad = tmp_path / "out" / "panels" / "panel_2017-03-14.csv"
    lines = bad.read_text().splitlines(keepends=True)
    bad.write_text(lines[0].replace(",FV", ",US") + "".join(lines[1:]))
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


@pytest.mark.parametrize("column, value", [("index", "9999"), ("index", "-1"),
                                           ("time", "11:31:00")])
def test_event_off_the_session_grid_is_io_error(capsys, full_run, column, value):
    """An events.csv row off the grid fails report with exit 2 before any table is written."""
    tmp_path, cfg = full_run
    out = tmp_path / "out"
    rows = list(csv.reader(open(out / "events.csv", newline="")))
    rows[1][rows[0].index(column)] = value
    (out / "events.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    for name in REPORT_FILES:
        (out / name).unlink()
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    assert "not an interval of the session" in _io_error_message(capsys, "events.csv")
    assert not any((out / name).exists() for name in REPORT_FILES)


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


def test_decompositions_without_ic_column_is_io_error(capsys, full_run):
    tmp_path, cfg = full_run
    path = tmp_path / "out" / "decompositions.csv"
    rows = list(csv.reader(open(path, newline="")))
    col = rows[0].index("ic")
    path.write_text("".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows))
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_IO
    assert "'ic'" in _io_error_message(capsys, "decompositions.csv")


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
