"""Output checks of every workload against the generators' truth.

Each check returns the set of days it failed, in ISO form; the string
``"*"`` means the whole output tree is wrong (a stage exited nonzero or a
table-level check failed), which fails every attempted day. Checks read
the output files with the standard ``csv`` module only, never through
``cojump``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ALL = "*"
REPORT_TABLES = (
    "cj_qv_share.csv",
    "correlation_regression.csv",
    "announcement_logit.csv",
    "shift_rotation.csv",
    "histogram.csv",
)
DECOMPOSE_FILES = (
    "decompositions.csv",
    "events.csv",
    "jumps.csv",
    "tuple_days.csv",
    "outcomes.csv",
    "failures.csv",
)
REL_TOL = 1e-9


def read_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def tree_digest(out: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _decompose_failures(out: Path, truth: dict) -> set:
    """Days in failures.csv or missing from decompositions.csv."""
    for name in DECOMPOSE_FILES:
        if not (out / name).exists():
            return {ALL}
    failed = {row["date"] for row in read_rows(out / "failures.csv")}
    seen = {(row["date"], row["pair"]) for row in read_rows(out / "decompositions.csv")}
    for date in truth["dates"]:
        if any((date, pair) not in seen for pair in truth["pairs"]):
            failed.add(date)
    return failed


def check_chain(out: Path, truth: dict) -> set:
    """Planted jumps flagged, shift/rotation labels, disjoint jumps never co-jump events."""
    failed = _decompose_failures(out, truth)
    if ALL in failed:
        return failed
    flagged = {(r["date"], r["instrument"], int(r["index"])) for r in read_rows(out / "jumps.csv")}
    for jump in truth["jumps"]:
        if (jump["date"], jump["instrument"], jump["index"]) not in flagged:
            failed.add(jump["date"])
    labels = {r["date"]: r["label"] for r in read_rows(out / "tuple_days.csv")}
    for date, label in truth["tuple_labels"].items():
        if labels.get(date) != label:
            failed.add(date)
    # A planted disjoint jump must never be reported as a co-jump event. Whether
    # the day's pairs reject at all is a matter of test power, and spurious
    # common flags at the high-volatility session edges can make some pair
    # co_jump; cojump_confusion counts those instead of failing the day.
    planted = {(j["date"], j["index"]) for j in truth["jumps"] if j["date"] in truth["disjoint"]}
    for row in read_rows(out / "events.csv"):
        if (row["date"], int(row["index"])) in planted:
            failed.add(row["date"])
    return failed


def cojump_confusion(out: Path, truth: dict) -> tuple:
    """(pairs classified co_jump without a common planted jump, planted co-jump pairs missed)."""
    legs: dict = {}
    for j in truth["jumps"]:
        legs.setdefault((j["date"], j["index"]), set()).add(j["instrument"])
    planted = {
        (date, pair)
        for (date, _), names in legs.items()
        for pair in truth["pairs"]
        if set(pair.split("-")) <= names
    }
    called = {
        (r["date"], r["pair"])
        for r in read_rows(out / "decompositions.csv")
        if r["classification"] == "co_jump"
    }
    return len(called - planted), len(planted - called)


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def compare_table(got: Path, want: Path) -> bool:
    """Same header, same row keys, every numeric cell within REL_TOL."""
    if not got.exists():
        return False
    with open(got, newline="") as g, open(want, newline="") as w:
        rows_got, rows_want = list(csv.reader(g)), list(csv.reader(w))
    if len(rows_got) != len(rows_want) or rows_got[:1] != rows_want[:1]:
        return False
    return all(
        len(rg) == len(rw) and all(_same_cell(a, b) for a, b in zip(rg, rw))
        for rg, rw in zip(rows_got, rows_want)
    )


def identical_tables(out: Path, expected: Path) -> int:
    """Report tables byte-identical to the committed golden copies."""
    return sum(
        (out / name).exists() and (out / name).read_bytes() == (expected / name).read_bytes()
        for name in REPORT_TABLES
    )


def check_golden(out: Path, truth: dict) -> set:
    """No day failures and every report table matches the golden values."""
    failed = _decompose_failures(out, truth)
    expected = Path(truth["expected_dir"])
    if not all(compare_table(out / name, expected / name) for name in REPORT_TABLES):
        failed.add(ALL)
    return failed


def _read_panel(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    values = np.array([[float(v) for v in row[2:]] for row in body]).T
    return header, [row[0] for row in body], [row[1] for row in body], values


def check_ingest(out: Path, truth: dict, inputs: Path) -> set:
    """Panels bitwise equal to the generator's returns, drop log equal."""
    panels = out / "panels"
    drop_path = out / "drop_log.csv"
    if not panels.is_dir() or not drop_path.exists():
        return {ALL}
    failed = set()
    drops = [[r["date"], r["reason"]] for r in read_rows(drop_path)]
    if drops != truth["drop_log"]:
        wrong = {tuple(r) for r in drops} ^ {tuple(r) for r in truth["drop_log"]}
        failed |= {date for date, _ in wrong} or {ALL}
    written = {p.name[len("panel_"):-len(".csv")] for p in panels.glob("panel_*.csv")}
    failed |= written ^ set(truth["kept"])
    with np.load(inputs / "expected_panels.npz", allow_pickle=False) as expected:
        for date in sorted(written & set(truth["kept"])):
            header, dates, times, values = _read_panel(panels / f"panel_{date}.csv")
            want = np.vstack([expected[f"{date}_{name}"] for name in truth["instruments"]])
            if (
                header != ["date", "grid_time"] + truth["instruments"]
                or set(dates) != {date}
                or times != truth["grid_time"]
                or values.shape != want.shape
                or not np.array_equal(values, want)
            ):
                failed.add(date)
    return failed


def check(workload: str, out: Path, inputs: Path) -> set:
    truth = json.loads((inputs / "truth.json").read_text())
    if workload == "chain-b999":
        return check_chain(out, truth)
    if workload == "golden-jobs2":
        return check_golden(out, truth)
    return check_ingest(out, truth, inputs)
