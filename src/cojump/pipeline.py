"""Per-day orchestration from return panels to decomposition records.

For each day: detect jumps per instrument, adjust returns, estimate the
integrated covariance matrix on the adjusted panel, then test each
configured pair for a discontinuity and assemble its decomposition.
Multi-asset tuples are labeled as common-jump days only when every
constituent pair rejects and all members share a jump index.

Seeding: each (day, pair) draws its bootstrap from one stream whose
seed is derived from the run's master seed, the date and the pair's
index in the configured pairs alone, so a day's results do not depend
on the worker count, the scheduling or which other days are in the run.
A day whose worker process dies is rerun in the calling process, so a
crash costs time, not results.
"""

from __future__ import annotations

import csv
import datetime as dt
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import bootstrap, events, jumps, jwc, modwt
from .ticks import MalformedFile, ReturnPanel, SessionSpec, write_csv


@dataclass
class DayResult:
    date: dt.date
    jump_series: dict
    ic: jwc.IcMatrix
    outcomes: dict
    decomps: list
    tuple_labels: dict = field(default_factory=dict)


def detect_panel_jumps(panel: ReturnPanel) -> dict:
    """Universal-threshold jump detection on every instrument of a day.

    Haar level-1 coefficients: one coefficient per return, so a jump is
    not smeared across its neighbours.
    """
    out = {}
    for name in panel.instruments:
        series = panel.series(name)
        w1 = modwt.level1_coefficients(series, modwt.haar())
        threshold = jumps.universal_threshold(w1)
        out[name] = jumps.detect_jumps(
            series, w1, threshold, date=panel.date, instrument=name
        )
    return out


def _sizes_at_indices(js: jumps.JumpSeries) -> dict:
    return {int(i): float(js.jump_sizes[i]) for i in js.jump_indices}


def _pair_events(jumps_a, jumps_b, common) -> tuple:
    sizes_a = _sizes_at_indices(jumps_a)
    sizes_b = _sizes_at_indices(jumps_b)
    return tuple(
        events.CoJumpEvent(index=int(idx), sizes=(sizes_a[idx], sizes_b[idx]))
        for idx in common.tolist()
    )


def _corr(num: float, den_1: float, den_2: float) -> float:
    if den_1 <= 0.0 or den_2 <= 0.0:
        return float("nan")
    raw = num / (den_1 * den_2) ** 0.5
    return min(1.0, max(-1.0, raw))


def pair_seed(seed: int, date: dt.date, k: int) -> int:
    """Bootstrap seed of the k-th configured pair on ``date``."""
    return int(np.random.SeedSequence([seed, date.toordinal(), k]).generate_state(1, np.uint64)[0])


def process_day(
    panel: ReturnPanel,
    pairs: list,
    estimator: jwc.JwcConfig,
    b_reps: int,
    alpha: float,
    seed: int,
    tuples: list = (),
) -> DayResult:
    """All per-day work for one panel; pure given the master seed."""
    jump_series = detect_panel_jumps(panel)
    adjusted = np.vstack(
        [jumps.adjust_returns(panel.series(n), jump_series[n]) for n in panel.instruments]
    )
    ic = jwc.jwc_integrated_covariance(adjusted, estimator, date=panel.date)
    qv_diag = {
        n: jumps.realized_covariance(panel.series(n), panel.series(n)) for n in panel.instruments
    }

    outcomes = {}
    decomps = []
    for k, pair in enumerate(pairs):
        a, b = pair
        ia, ib = panel.instruments.index(a), panel.instruments.index(b)
        raw_a, raw_b = panel.series(a), panel.series(b)
        qv = jumps.realized_covariance(raw_a, raw_b)
        sub = ic.values[np.ix_([ia, ib], [ia, ib])]
        ic_pair = jwc.IcMatrix(
            values=sub,
            floored=ic.floored[[ia, ib]],
            config=ic.config,
            date=ic.date,
        )
        outcome = bootstrap.bootstrap_statistic(
            raw_a,
            raw_b,
            jump_series[a],
            jump_series[b],
            ic_pair,
            b_reps=b_reps,
            alpha=alpha,
            seed=pair_seed(seed, panel.date, k),
            date=panel.date,
            pair=pair,
        )
        outcomes[pair] = outcome
        cj_raw, common = jumps.cojump_variation(jump_series[a], jump_series[b])
        is_cj = outcome.classification == "co_jump"
        cj = cj_raw if is_cj else 0.0
        selected = bootstrap.select_ic_star(outcome, qv, float(sub[0, 1]))
        if outcome.inconclusive or outcome.rejected:
            den_a, den_b = float(sub[0, 0]), float(sub[1, 1])
        else:
            den_a, den_b = qv_diag[a], qv_diag[b]
        decomps.append(
            events.DayDecomposition(
                date=panel.date,
                pair=pair,
                qv=qv,
                ic=selected,
                cj=cj,
                classification=outcome.classification,
                events=_pair_events(jump_series[a], jump_series[b], common) if is_cj else (),
                corr_total=_corr(qv, qv_diag[a], qv_diag[b]),
                corr_cont=_corr(selected, den_a, den_b),
                z=outcome.z,
                p_value=outcome.p_value,
                rejected=outcome.rejected,
                inconclusive=outcome.inconclusive,
            )
        )

    tuple_labels = {}
    for members in tuples:
        label = _tuple_label(members, jump_series, outcomes)
        if label is not None:
            tuple_labels[tuple(members)] = label
    return DayResult(
        date=panel.date,
        jump_series=jump_series,
        ic=ic,
        outcomes=outcomes,
        decomps=decomps,
        tuple_labels=tuple_labels,
    )


def _tuple_label(members, jump_series, outcomes):
    """Day label for an instrument tuple, or None without a common jump.

    Requires a jump index shared by every member and a rejecting test
    for every constituent pair. Days with several common indices take
    the label of the largest total-magnitude one (lowest index on ties).
    """
    members = list(members)
    common = None
    for name in members:
        idx = set(jump_series[name].jump_indices.tolist())
        common = idx if common is None else (common & idx)
    if not common:
        return None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            out = _pair_outcome(outcomes, members[i], members[j])
            if out is None or not out.rejected:
                return None
    sizes_by = {name: _sizes_at_indices(jump_series[name]) for name in members}
    best = min(common, key=lambda k: (-sum(abs(sizes_by[n][k]) for n in members), k))
    return events.classify_shift_rotation([sizes_by[n][best] for n in members])


def _pair_outcome(outcomes: dict, a: str, b: str):
    return outcomes.get((a, b)) or outcomes.get((b, a))


def process_panels(
    panels: list,
    pairs: list,
    estimator: jwc.JwcConfig,
    b_reps: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
    tuples: list = (),
    jobs: int = 1,
):
    """Run the day pipeline over all panels.

    Returns (results, failures): failures collect per-day errors as
    (date, message) without aborting the remaining days. A day whose
    worker process dies is rerun here, in this process.
    """
    pairs = [tuple(p) for p in pairs]
    tasks = [
        (panel, pairs, estimator, b_reps, alpha, seed, tuples)
        for panel in sorted(panels, key=lambda p: p.date)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one_safe, task) for task in tasks]
            outs = [_result_or_rerun(future, task) for future, task in zip(futures, tasks)]
    else:
        outs = [_run_one_safe(task) for task in tasks]
    results = []
    failures = []
    for (panel, *_), res in zip(tasks, outs):
        if isinstance(res, tuple) and res and res[0] == "__error__":
            failures.append((panel.date, res[1]))
        else:
            results.append(res)
    return results, failures


def _run_one_safe(args):
    try:
        return process_day(*args)
    except Exception as exc:  # per-day isolation is the contract
        return ("__error__", f"{type(exc).__name__}: {exc}")


def _result_or_rerun(future, task):
    try:
        return future.result()
    except BrokenProcessPool:  # a worker died; every day it took down runs again serially
        return _run_one_safe(task)


def _read_csv(path, columns: list, convert) -> list:
    """``convert`` of each row of an intermediate CSV; bad files raise MalformedFile."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise MalformedFile(f"{path}: missing columns {missing}")
        out = []
        for row in reader:
            try:
                out.append(convert(row))
            except (TypeError, ValueError) as exc:
                raise MalformedFile(f"{path}: line {reader.line_num}: {exc}") from exc
    return out


_DECOMP_COLUMNS = (
    "date pair qv ic cj z p rejected inconclusive classification corr_total corr_cont".split()
)
_EVENT_COLUMNS = ["date", "pair", "index", "time", "size_1", "size_2"]
_TUPLE_COLUMNS = ["date", "tuple", "label"]


def write_decompositions(results: list, path) -> None:
    """Per-day, per-pair decomposition CSV, sorted by date then pair."""
    rows = sorted((rec for res in results for rec in res.decomps), key=lambda r: (r.date, r.pair))
    write_csv(
        path,
        _DECOMP_COLUMNS,
        (
            [r.date.isoformat(), "-".join(r.pair), r.qv, r.ic, r.cj, r.z, r.p_value,
             int(r.rejected), int(r.inconclusive), r.classification, r.corr_total, r.corr_cont]
            for r in rows
        ),
    )


def read_decompositions(path) -> list:
    """Rebuild DayDecomposition records (events live in events.csv)."""
    return _read_csv(
        path,
        _DECOMP_COLUMNS,
        lambda row: events.DayDecomposition(
            date=dt.date.fromisoformat(row["date"]),
            pair=tuple(row["pair"].split("-")),
            qv=float(row["qv"]),
            ic=float(row["ic"]),
            cj=float(row["cj"]),
            classification=row["classification"],
            events=(),
            corr_total=float(row["corr_total"]),
            corr_cont=float(row["corr_cont"]),
            z=float(row["z"]),
            p_value=float(row["p"]),
            rejected=bool(int(row["rejected"])),
            inconclusive=bool(int(row["inconclusive"])),
        ),
    )


def write_events_csv(results: list, path, spec: SessionSpec) -> None:
    """Co-jump event rows: date, pair, index, interval start, sizes."""
    labels = spec.grid_labels()
    rows = sorted(
        (
            [rec.date.isoformat(), "-".join(rec.pair), ev.index, labels[ev.index], *ev.sizes]
            for res in results
            for rec in res.decomps
            for ev in rec.events
        ),
        key=lambda r: r[:3],
    )
    write_csv(path, _EVENT_COLUMNS, rows)


def read_events_csv(path, spec: SessionSpec) -> list:
    """Event rows as (date, pair, index, wall-clock time, sizes).

    A row whose index is not an interval of ``spec`` or whose time is
    not that interval's label raises MalformedFile.
    """
    labels = spec.grid_labels()

    def convert(row):
        index = int(row["index"])
        if not 0 <= index < len(labels) or row["time"] != labels[index]:
            raise ValueError(f"index {index} at {row['time']} is not an interval of the session")
        return {
            "date": dt.date.fromisoformat(row["date"]),
            "pair": tuple(row["pair"].split("-")),
            "index": index,
            "time": dt.time.fromisoformat(row["time"]),
            "sizes": (float(row["size_1"]), float(row["size_2"])),
        }

    return _read_csv(path, _EVENT_COLUMNS, convert)


def write_jump_report(results: list, path, spec: SessionSpec) -> None:
    """Per-instrument jump rows: date, instrument, index, interval start, size."""
    labels = spec.grid_labels()
    rows = sorted(
        (
            [res.date.isoformat(), name, idx, labels[idx], js.jump_sizes[idx]]
            for res in results
            for name, js in sorted(res.jump_series.items())
            for idx in js.jump_indices.tolist()
        ),
        key=lambda r: r[:3],
    )
    write_csv(path, ["date", "instrument", "index", "time", "size"], rows)


def write_tuple_labels(results: list, path) -> None:
    rows = sorted(
        [res.date.isoformat(), "-".join(members), label]
        for res in results
        for members, label in res.tuple_labels.items()
    )
    write_csv(path, _TUPLE_COLUMNS, rows)


def read_tuple_labels(path) -> dict:
    """Maps tuple name -> {date: label}."""
    out: dict = {}
    for name, date, label in _read_csv(
        path, _TUPLE_COLUMNS, lambda r: (r["tuple"], dt.date.fromisoformat(r["date"]), r["label"])
    ):
        out.setdefault(name, {})[date] = label
    return out


def write_failures(failures: list, path) -> None:
    write_csv(path, ["date", "error"], [(date.isoformat(), message) for date, message in failures])
