"""Tiny-size self-tests of the benchmark's generators, checks and tracer.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "cojump.cli", *map(str, args)], env=env, capture_output=True
    ).returncode


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    """Six days across the DST change, a two-hour session, ingested once."""
    work = tmp_path_factory.mktemp("ingest")
    truth = gen.make_ingest(work / "in", seed=5, n_days=6, close=gen.INGEST_OPEN + 7200, malformed=6)
    assert _cli("ingest", "--config", work / "in" / "config.json", "--output", work / "out") == 0
    return work, truth


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Eight-day scenario at B = 100 through simulate, decompose and report."""
    work = tmp_path_factory.mktemp("chain")
    truth = gen.make_chain(work / "in", seed=5, n_days=8, b_reps=100)
    for stage in ("simulate", "decompose", "report"):
        assert _cli(stage, "--config", work / "in" / "config.json", "--output", work / "out") == 0
    return work, truth


def test_generators_are_deterministic(tmp_path):
    for name in ("a", "b"):
        gen.make_ingest(tmp_path / name, seed=3, n_days=3, close=gen.INGEST_OPEN + 600, malformed=2)
        gen.make_chain(tmp_path / name / "chain", seed=3, n_days=8)
    assert checks.tree_digest(tmp_path / "a") == checks.tree_digest(tmp_path / "b")
    gen.make_ingest(tmp_path / "c", seed=4, n_days=3, close=gen.INGEST_OPEN + 600, malformed=2)
    assert (tmp_path / "c" / "tu.csv").read_bytes() != (tmp_path / "a" / "tu.csv").read_bytes()


def test_ingest_inputs_cover_the_planted_cases(ingest):
    work, truth = ingest
    text = (work / "in" / "tu.csv").read_text()
    assert "+00:00" in text and "-06:00" in text and "-05:00" in text
    assert truth["dates"][0] < "2017-03-12" < truth["dates"][-1]
    assert sorted(r for _, r in truth["drop_log"]) == [
        "excluded_date", "low_trade", "missing_instrument:FV"
    ]
    assert truth["rejected"] == 12


def test_ingest_check_passes_then_catches_a_corrupted_panel(ingest, tmp_path):
    work, truth = ingest
    assert checks.check("ingest-5s", work / "out", work / "in") == set()
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    victim = out / "panels" / f"panel_{truth['kept'][1]}.csv"
    lines = victim.read_text().splitlines()
    cells = lines[7].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-15) + 1e-18)
    lines[7] = ",".join(cells)
    victim.write_text("\n".join(lines) + "\n")
    assert checks.check("ingest-5s", out, work / "in") == {truth["kept"][1]}


def test_ingest_check_catches_a_wrong_drop_reason(ingest, tmp_path):
    work, truth = ingest
    shutil.copytree(work / "out", tmp_path / "out")
    log = tmp_path / "out" / "drop_log.csv"
    log.write_text(log.read_text().replace("low_trade", "excluded_date"))
    thin = next(d for d, r in truth["drop_log"] if r == "low_trade")
    assert checks.check("ingest-5s", tmp_path / "out", work / "in") == {thin}


def test_chain_check_passes_then_catches_a_dropped_jump(chain, tmp_path):
    work, truth = chain
    assert checks.check("chain-b999", work / "out", work / "in") == set()
    shutil.copytree(work / "out", tmp_path / "out")
    planted = truth["jumps"][0]
    path = tmp_path / "out" / "jumps.csv"
    key = f"{planted['date']},{planted['instrument']},{planted['index']},"
    kept = [ln for ln in path.read_text().splitlines() if not ln.startswith(key)]
    path.write_text("\n".join(kept) + "\n")
    assert checks.check("chain-b999", tmp_path / "out", work / "in") == {planted["date"]}


def test_chain_truth_plants_every_kind(chain):
    _, truth = chain
    assert sorted(set(truth["tuple_labels"].values())) == ["DownShift", "Rotation", "UpShift"]
    assert list(truth["disjoint"].values()) == ["TU-FV"]


def test_golden_table_comparison_tolerance(tmp_path):
    expected = ROOT / "tests" / "golden" / "expected"
    table = "correlation_regression.csv"
    rows = (expected / table).read_text().splitlines()
    cells = rows[1].split(",")
    value = float(cells[1])
    for scale, same in ((1 + 1e-13, True), (1 + 1e-6, False)):
        cells[1] = repr(value * scale)
        (tmp_path / table).write_text("\n".join([rows[0], ",".join(cells)] + rows[2:]) + "\n")
        assert checks.compare_table(tmp_path / table, expected / table) is same
    assert checks.identical_tables(tmp_path, expected) == 0


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = layers.derive([], [], 1, 0.0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [v["unit"] for v in metrics.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, run.UNITS[name]) for name in run.END_TO_END
    ]


def test_traced_stage_records_nested_spans(chain, tmp_path):
    work, _ = chain
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), "report",
           "--config", str(work / "in" / "config.json"), "--output", str(tmp_path / "out")]
    shutil.copytree(work / "out", tmp_path / "out")
    assert subprocess.run(cmd, env=env).returncode == 0
    raw = json.loads(spans.read_text())["spans"]
    names = [s[0] for s in raw]
    assert names[0] == "cli.main" and raw[0][3] == -1
    assert "cli.cmd_report" in names and "events.write_histogram" in names
    assert all(raw[s[3]][1] <= s[1] <= s[2] <= raw[s[3]][2] for s in raw if s[3] >= 0)
    assert (tmp_path / "out" / "histogram.csv").read_bytes() == (work / "out" / "histogram.csv").read_bytes()


def test_tail_percentile_keeps_ten_samples_above():
    values = list(range(60))
    p, v = layers.tail_percentile(values)
    assert p == 83 and sum(x > v for x in values) == 10
    assert layers.tail_percentile(list(range(10))) == (None, 0.0)
    assert layers.tail_percentile(list(range(20))) == (50, layers.percentile(range(20), 50))


def test_chain_check_catches_a_disjoint_jump_reported_as_co_jump(chain, tmp_path):
    work, truth = chain
    shutil.copytree(work / "out", tmp_path / "out")
    (date, pair), = truth["disjoint"].items()
    jump = next(j for j in truth["jumps"] if j["date"] == date)
    with open(tmp_path / "out" / "events.csv", "a") as handle:
        handle.write(f"{date},{pair},{jump['index']},12:00:00,0.1,0.1\n")
    assert checks.check("chain-b999", tmp_path / "out", work / "in") == {date}
    false_cj, missed_cj = checks.cojump_confusion(work / "out", truth)
    assert missed_cj == 0
