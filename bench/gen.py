"""Seeded input generators for the benchmark workloads.

Each generator writes a config plus its inputs into a directory and a
ground truth beside them (``truth.json``, and for ingest
``expected_panels.npz``). The truth is computed from the generator's own
random draws and never from the ``cojump`` package, so the output checks
in ``checks.py`` are an independent oracle. The same seed always gives
byte-identical inputs.
"""

from __future__ import annotations

import datetime as dt
import json
import shutil
import sys
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

TIMEZONE = "America/Chicago"

# chain-b999: the golden config's legs, pairs and tuple at realistic B.
CHAIN_INSTRUMENTS = ("TU", "FV", "TY")
CHAIN_SIGMA = (0.01, 0.012, 0.011)
CHAIN_START = dt.date(2017, 3, 13)
CHAIN_N = 540  # 07:00-16:00 at 60 s
# Planted day kinds; shift/rotation days carry a jump on every leg.
CHAIN_KINDS = ("UpShift", "UpShift", "DownShift", "DownShift", "Rotation", "Rotation",
               "pair_only", "disjoint")
ROTATION_SIGNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
JUMP_MARGIN = 30  # planted indices stay this far from the session edges

# ingest-5s: two legs of 5-second ticks across the 2017-03-12 DST change.
INGEST_INSTRUMENTS = ("TU", "FV")
INGEST_START = dt.date(2017, 3, 6)
INGEST_OPEN = 6 * 3600 + 30 * 60  # 06:30 local, seconds of day
INGEST_CLOSE = 16 * 3600 + 30 * 60
INGEST_SAMPLING = 60
TICK_STEP = 5
EXTRA_TICKS = 3  # pre-session and post-session ticks on some days
MALFORMED_PER_FILE = 144  # about 0.1% of the rows
OFFSET_SHARE = 0.10  # stamps that carry an explicit UTC offset
LOW_TRADE_THRESHOLD = 0.6
_BASE_PRICE = {"TU": 108.5, "FV": 117.25}
_MALFORMED = (
    lambda d: (f"{d}T25:61:00", "100.0", "1"),  # impossible clock time
    lambda d: (f"{d}T12:00:00", "n/a", "1"),  # non-numeric price
    lambda d: (f"{d}T12:00:00", "0.0", "1"),  # non-positive price
    lambda d: (f"{d}T12:00:00", "100.0", "-5"),  # negative volume
)


def business_dates(start: dt.date, count: int) -> list:
    """The first ``count`` weekdays at or after ``start``."""
    out, day = [], start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def make_chain(workdir: Path, seed: int, n_days: int = 20, b_reps: int = 999) -> dict:
    """The chain-b999 scenario, config and planted-jump truth."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "chain-b999")
    dates = business_dates(CHAIN_START, n_days)
    days = rng.choice(n_days, size=len(CHAIN_KINDS), replace=False)
    jumps, labels, disjoint = [], {}, {}
    for kind, day in zip(CHAIN_KINDS, days.tolist()):
        idx = int(rng.integers(JUMP_MARGIN, CHAIN_N - JUMP_MARGIN))
        if kind == "UpShift":
            signs = (1, 1, 1)
        elif kind == "DownShift":
            signs = (-1, -1, -1)
        elif kind == "Rotation":
            signs = ROTATION_SIGNS[int(rng.integers(len(ROTATION_SIGNS)))]
        else:
            signs = (int(rng.choice([-1, 1])), int(rng.choice([-1, 1])), 0)
        sizes = [10.0 * s * sig for s, sig in zip(signs, CHAIN_SIGMA)]
        if kind == "disjoint":
            # TU and FV jump at different indices, TY not at all
            other = idx
            while abs(other - idx) < 10:
                other = int(rng.integers(JUMP_MARGIN, CHAIN_N - JUMP_MARGIN))
            jumps.append((day, idx, [sizes[0], 0.0, 0.0]))
            jumps.append((day, other, [0.0, sizes[1], 0.0]))
            disjoint[dates[day].isoformat()] = "TU-FV"
            continue
        jumps.append((day, idx, sizes))
        if kind in ("UpShift", "DownShift", "Rotation"):
            labels[dates[day].isoformat()] = kind
    jumps.sort(key=lambda j: (j[0], j[1]))
    sim_seed = int(rng.integers(1, 2**31))
    lines = [
        f"n_intervals = {CHAIN_N}",
        f"n_days = {n_days}",
        "sigma = " + ", ".join(repr(s) for s in CHAIN_SIGMA),
        "mu = 0.0, 0.0, 0.0",
        "rho = 0.6",
        "noise_sd = 1e-4",
        "vol_pattern = u_shape",
        f"seed = {sim_seed}",
    ]
    lines += ["jump = " + ", ".join([str(d), str(i)] + [repr(s) for s in sz]) for d, i, sz in jumps]
    (workdir / "scenario.txt").write_text("\n".join(lines) + "\n")
    news = sorted(rng.choice(n_days, size=min(5, n_days), replace=False).tolist())
    config = {
        "session": {"start": "07:00", "end": "16:00", "timezone": TIMEZONE, "sampling_seconds": 60},
        "instruments": list(CHAIN_INSTRUMENTS),
        "pairs": [["TU", "FV"], ["TU", "TY"], ["FV", "TY"]],
        "tuples": [list(CHAIN_INSTRUMENTS)],
        "scenario": "scenario.txt",
        "start_date": CHAIN_START.isoformat(),
        "seed": int(rng.integers(1, 2**31)),
        "estimator": {"g_spacing": 5},
        "bootstrap": {"b_reps": b_reps, "alpha": 0.05},
        "announcements": {
            "events": [[dates[k].isoformat(), "13:00", TIMEZONE] for k in news],
            "windows": [[0, 30]],
        },
        "report": {"histogram_bin_minutes": 30},
        "output": "out",
    }
    _write_json(workdir / "config.json", config)
    truth = {
        "dates": [d.isoformat() for d in dates],
        "pairs": ["TU-FV", "TU-TY", "FV-TY"],
        "jumps": [
            {"date": dates[d].isoformat(), "instrument": name, "index": i, "size": s}
            for d, i, sz in jumps
            for name, s in zip(CHAIN_INSTRUMENTS, sz)
            if s != 0.0
        ],
        "tuple_labels": labels,
        "disjoint": disjoint,
    }
    _write_json(workdir / "truth.json", truth)
    return truth


def copy_golden(root: Path, workdir: Path) -> dict:
    """The committed golden config and scenario, used as they are."""
    workdir.mkdir(parents=True, exist_ok=True)
    golden = root / "tests" / "golden"
    for name in ("config.json", "scenario.txt"):
        shutil.copyfile(golden / name, workdir / name)
    config = json.loads((golden / "config.json").read_text())
    n_days = next(
        int(line.split("=")[1]) for line in (golden / "scenario.txt").read_text().splitlines()
        if line.split("#")[0].strip().startswith("n_days")
    )
    start = dt.date.fromisoformat(config["start_date"])
    truth = {
        "dates": [d.isoformat() for d in business_dates(start, n_days)],
        "pairs": ["-".join(p) for p in config["pairs"]],
        "expected_dir": str(golden / "expected"),
    }
    _write_json(workdir / "truth.json", truth)
    return truth


def _hms_table() -> list:
    return [f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}" for s in range(86400)]


def _offset_text(seconds: int) -> str:
    sign = "-" if seconds < 0 else "+"
    seconds = abs(seconds)
    return f"{sign}{seconds // 3600:02d}:{seconds // 60 % 60:02d}"


def make_ingest(
    workdir: Path,
    seed: int,
    n_days: int = 20,
    close: int = INGEST_CLOSE,
    malformed: int = MALFORMED_PER_FILE,
) -> dict:
    """Two tick files, the ingest config, the drop-log truth and expected panels.

    Every in-session 5-second slot holds one trade at a whole-second
    offset inside the slot. Among the days, one is calendar-excluded, one
    lacks FV entirely and one is thin on both legs (trades only in the
    first half of the session). The expected panels are the last-tick
    log returns of the generator's own price path on the 60-second grid.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "ingest-5s")
    tz = ZoneInfo(TIMEZONE)
    hms = _hms_table()
    dates = business_dates(INGEST_START, n_days)
    excluded, missing, thin = (dates[k] for k in rng.choice(n_days, size=3, replace=False))
    n_slots = (close - INGEST_OPEN) // TICK_STEP
    grid = INGEST_OPEN + INGEST_SAMPLING * np.arange((close - INGEST_OPEN) // INGEST_SAMPLING + 1)
    grid_text = [hms[int(s)] for s in grid[:-1]]
    reasons = {excluded: "excluded_date", missing: "missing_instrument:FV", thin: "low_trade"}
    drop_log = [[day.isoformat(), reason] for day, reason in sorted(reasons.items())]
    expected, files, rows_total = {}, {}, 0
    for name in INGEST_INSTRUMENTS:
        log_price = np.log(_BASE_PRICE[name])
        lines = ["ts,px,vol"]
        returns = {}
        for day in dates:
            if name == "FV" and day == missing:
                continue
            slots = n_slots // 2 if day == thin else n_slots
            secs = INGEST_OPEN + TICK_STEP * np.arange(slots) + rng.integers(0, TICK_STEP, slots)
            if rng.random() < 0.5:
                pre = INGEST_OPEN - 1 - np.sort(rng.choice(1800, EXTRA_TICKS, replace=False))[::-1]
                post = close + 1 + np.sort(rng.choice(1800, EXTRA_TICKS, replace=False))
                secs = np.concatenate([pre, secs, post])
            steps = rng.normal(0.0, 3e-5, secs.size)
            steps[0] += rng.normal(0.0, 2e-3)  # overnight move
            path = log_price + np.cumsum(steps)
            log_price = path[-1]
            price_text = [f"{p:.6f}" for p in np.exp(path)]
            prices = np.array([float(t) for t in price_text])
            volume = rng.integers(1, 50, secs.size)
            explicit = rng.random(secs.size) < OFFSET_SHARE
            as_utc = rng.random(secs.size) < 0.5
            offset = int(dt.datetime.combine(day, dt.time(12), tzinfo=tz).utcoffset().total_seconds())
            iso = day.isoformat()
            local_suffix = _offset_text(offset)
            for k in range(secs.size):
                s = int(secs[k])
                if not explicit[k]:
                    stamp = f"{iso}T{hms[s]}"
                elif as_utc[k]:
                    stamp = f"{iso}T{hms[s - offset]}+00:00"
                else:
                    stamp = f"{iso}T{hms[s]}{local_suffix}"
                lines.append(f"{stamp},{price_text[k]},{volume[k]}")
            # previous-tick value at each grid instant, first trade before any
            last = np.searchsorted(secs, grid, side="right") - 1
            returns[iso] = np.diff(np.log(prices[np.maximum(last, 0)]))
        # malformed rows land between valid rows; they never touch the path
        bad_at = np.sort(rng.choice(np.arange(1, len(lines)), size=malformed, replace=False))[::-1]
        for j, pos in enumerate(bad_at.tolist()):
            bad_day = dates[int(rng.integers(n_days))].isoformat()
            lines.insert(pos + 1, ",".join(_MALFORMED[j % len(_MALFORMED)](bad_day)))
        rows_total += len(lines) - 1
        files[name] = f"{name.lower()}.csv"
        (workdir / files[name]).write_text("\n".join(lines) + "\n")
        for iso, ret in returns.items():
            expected.setdefault(iso, {})[name] = ret
    kept = sorted(d.isoformat() for d in dates if d not in reasons)
    np.savez(
        workdir / "expected_panels.npz",
        **{f"{iso}_{name}": expected[iso][name] for iso in kept for name in INGEST_INSTRUMENTS},
    )
    config = {
        "session": {
            "start": hms[INGEST_OPEN][:5],
            "end": hms[close][:5],
            "timezone": TIMEZONE,
            "sampling_seconds": INGEST_SAMPLING,
        },
        "instruments": list(INGEST_INSTRUMENTS),
        "pairs": [list(INGEST_INSTRUMENTS)],
        "ticks": {
            name: {"path": files[name], "schema": {"timestamp": "ts", "price": "px", "volume": "vol"}}
            for name in INGEST_INSTRUMENTS
        },
        "calendar": {
            "excluded_dates": [excluded.isoformat()],
            "low_trade_threshold": LOW_TRADE_THRESHOLD,
        },
        "seed": seed,
        "output": "out",
    }
    _write_json(workdir / "config.json", config)
    truth = {
        "dates": [d.isoformat() for d in dates],
        "kept": kept,
        "instruments": list(INGEST_INSTRUMENTS),
        "grid_time": grid_text,
        "drop_log": drop_log,
        "rows": rows_total,
        "rejected": malformed * len(INGEST_INSTRUMENTS),
    }
    _write_json(workdir / "truth.json", truth)
    return truth


def main(argv) -> None:
    """python bench/gen.py WORKLOAD DIR SEED: write one workload's inputs and truth."""
    workload, workdir, seed = argv[0], Path(argv[1]), int(argv[2])
    if workload == "chain-b999":
        make_chain(workdir, seed)
    elif workload == "golden-jobs2":
        copy_golden(Path(__file__).resolve().parents[1], workdir)
    elif workload == "ingest-5s":
        make_ingest(workdir, seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
