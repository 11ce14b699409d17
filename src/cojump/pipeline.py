"""Per-day orchestration from return panels to decomposition records.

For each day: detect jumps per instrument, adjust returns, estimate the
integrated covariance matrix on the adjusted panel, then test each
configured pair for a discontinuity, label it from the verdict and the
pair's shared jump indices (``classify``), and assemble its decomposition.
A day's jumps are stored once, as each instrument's size vector, and a
co-jump event is a shared grid index whose sizes are read from the legs'.
Multi-asset tuples are labeled as common-jump days only when every
constituent pair rejects and all members share a jump index.

Seeding: each (day, pair) draws its bootstrap from one stream whose
seed is derived from the run's master seed, the date and the pair's
index in the configured pairs alone, so a day's results do not depend
on the worker count, the scheduling or which other days are in the run.
A day whose worker process dies is rerun in the calling process, so a
crash costs time, not results.

Days stream: each panel is taken as its day starts, and each day's
result is passed on, in date order, as soon as every earlier day is
done, so a run holds a bounded number of days whatever its length.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import bootstrap, events, jumps, jwc
from .ticks import MalformedFile, ReturnPanel, SessionSpec, csv_cells


@dataclass
class DayResult:
    date: dt.date
    jump_series: dict
    outcomes: dict
    decomps: list
    tuple_labels: dict = field(default_factory=dict)


def detect_panel_jumps(panel: ReturnPanel) -> dict:
    """Haar universal-threshold jump detection on every instrument of a day."""
    return {name: jumps.haar_detect(panel.series(name)) for name in panel.instruments}


def _corr(num: float, den_1: float, den_2: float) -> float:
    if den_1 <= 0.0 or den_2 <= 0.0:
        return float("nan")
    raw = num / (den_1 * den_2) ** 0.5
    return min(1.0, max(-1.0, raw))


def classify(rejected: bool, common: np.ndarray, jumps_a, jumps_b) -> str:
    """A pair's day label: a rejection with a shared jump index (``common``) is a co-jump,
    one with jumps none of which are shared is disjoint, any other day has no discontinuity."""
    if rejected and common.size:
        return "co_jump"
    return "disjoint_only" if rejected and (jumps_a.count or jumps_b.count) else "no_discontinuity"


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
    ic = jwc.jwc_integrated_covariance(adjusted, estimator)
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
        outcome = bootstrap.bootstrap_statistic(
            raw_a,
            raw_b,
            sub,
            estimator,
            b_reps=b_reps,
            alpha=alpha,
            seed=pair_seed(seed, panel.date, k),
        )
        outcomes[pair] = outcome
        cj_raw, common = jumps.cojump_variation(jump_series[a], jump_series[b])
        label = classify(outcome.rejected, common, jump_series[a], jump_series[b])
        is_cj = label == "co_jump"
        cj = cj_raw if is_cj else 0.0
        # the test's one verdict picks the continuous part: the robust
        # estimate on rejection (or no verdict), the realized one otherwise
        if outcome.inconclusive or outcome.rejected:
            cont, den_a, den_b = float(sub[0, 1]), float(sub[0, 0]), float(sub[1, 1])
        else:
            cont, den_a, den_b = qv, qv_diag[a], qv_diag[b]
        decomps.append(
            events.DayDecomposition(
                date=panel.date,
                pair=pair,
                qv=qv,
                ic=cont,
                cj=cj,
                classification=label,
                events=tuple(common.tolist()) if is_cj else (),
                corr_total=_corr(qv, qv_diag[a], qv_diag[b]),
                corr_cont=_corr(cont, den_a, den_b),
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
    sizes = [jump_series[name].jump_sizes for name in members]
    common = np.flatnonzero(np.all(sizes, axis=0)).tolist()  # where every member jumped
    if not common:
        return None
    for a, b in itertools.combinations(members, 2):
        out = _pair_outcome(outcomes, a, b)
        if out is None or not out.rejected:
            return None
    best = min(common, key=lambda k: (-sum(abs(s[k]) for s in sizes), k))
    return events.classify_shift_rotation([s[best] for s in sizes])


def _pair_outcome(outcomes: dict, a: str, b: str):
    return outcomes.get((a, b)) or outcomes.get((b, a))


def process_panels(
    panels,
    pairs: list,
    estimator: jwc.JwcConfig,
    b_reps: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
    tuples: list = (),
    jobs: int = 1,
    write=None,
):
    """Run the day pipeline over ``panels``, an iterable taken in order, one panel as its
    day is started.

    Each day's DayResult goes to ``write`` as soon as every earlier day is done, and none
    is kept; without ``write`` they are collected. Returns (results, failures): the
    collected results, and per-day errors as (date, message), which do not abort the
    remaining days. Under ``jobs`` > 1 a pool of at most one worker per day holds at
    most ``_IN_FLIGHT`` days per worker, and a day whose worker process dies is rerun
    here, in this process, as is every day submitted after the pool broke.
    """
    args = ([tuple(p) for p in pairs], estimator, b_reps, alpha, seed, tuples)
    results, failures = [], []
    write = write or results.append
    for panel, res in _day_results(iter(panels), args, jobs):
        if isinstance(res, tuple):  # ("__error__", message)
            failures.append((panel.date, res[1]))
        else:
            write(res)
    return results, failures


_IN_FLIGHT = 2  # days submitted per pool worker before the oldest one's result is awaited


def _day_results(panels, args, jobs):
    """(panel, DayResult or error) of each panel, in order."""
    head = list(itertools.islice(panels, jobs))  # a pool forks all its workers at once
    if len(head) < 2:
        for panel in itertools.chain(head, panels):
            yield panel, _run_one_safe((panel, *args))
        return
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool is used

    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        pending = deque()
        for panel in itertools.chain(head, panels):
            task = (panel, *args)
            pending.append((task, _submit(pool, task)))
            if len(pending) == _IN_FLIGHT * len(head):
                yield _result_or_rerun(*pending.popleft())
        while pending:
            yield _result_or_rerun(*pending.popleft())


def _run_one_safe(args):
    try:
        return process_day(*args)
    except Exception as exc:  # per-day isolation is the contract
        return ("__error__", f"{type(exc).__name__}: {exc}")


def _submit(pool, task):
    """The future of ``task`` in ``pool``, or None once a dead worker has broken the pool."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return pool.submit(_run_one_safe, task)
    except BrokenProcessPool:
        return None


def _result_or_rerun(task, future):
    """(panel, result) of ``task``; a day that a dead worker took down, or that found the pool
    broken, runs again here."""
    from concurrent.futures.process import BrokenProcessPool

    if future is not None:
        try:
            return task[0], future.result()
        except BrokenProcessPool:
            pass
    return task[0], _run_one_safe(task)


def _read_csv(path, columns: list, convert) -> list:
    """``convert`` of each row of an intermediate CSV; bad files raise MalformedFile."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise MalformedFile(f"{path}: missing columns {missing}")
            out = []
            for row in filter(None, reader):  # blank lines are no records
                try:
                    if len(row) < len(header):
                        raise ValueError(f"{len(row)} fields where the header has {len(header)}")
                    out.append(convert(dict(zip(header, row))))
                except (TypeError, ValueError) as exc:
                    raise MalformedFile(f"{path}: line {reader.line_num}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    return out


_TABLES = {  # each table of a decompose run: its file name and header
    "decompositions.csv": ["date", "pair", "qv", "ic", "cj", "z", "p", "rejected", "inconclusive",
                           "classification", "corr_total", "corr_cont"],
    "events.csv": ["date", "pair", "index", "time", "size_1", "size_2"],
    "jumps.csv": ["date", "instrument", "index", "time", "size"],
    "tuple_days.csv": ["date", "tuple", "label"],
    "failures.csv": ["date", "error"],
    "outcomes.csv": ["date", "pair", "Z", "p", "rejected", "classification", "B", "alpha", "seed"],
}


class Tables:
    """The six tables of a decompose run, written into the directory ``out`` a day at a time.

    Days come one per date in date order, as ``process_panels`` passes them on, so a
    table sorted by date and then by a key within the day needs each day's rows sorted
    alone: by pair (decompositions, outcomes), pair and index (events), instrument and
    index (jumps) or tuple (tuple_days). ``failures.csv`` keeps the order of the failures.
    Each table is written as ``<name>.part`` and renamed to its name when the ``with``
    block ends without an exception; otherwise the parts are removed, so a run that
    stops part-way leaves no table of its own behind.
    """

    def __init__(self, out, spec: SessionSpec):
        self._out = out
        self._labels = spec.grid_labels()
        self._files = {}
        self._file = None  # the table the csv writer writes to
        # one csv writer serves all six files: each writer keeps a record buffer of 128 KiB
        self._csv = csv.writer(SimpleNamespace(write=lambda line: self._file.write(line)),
                               lineterminator="\n")

    def __enter__(self):
        for name, header in _TABLES.items():
            self._files[name] = open(os.path.join(self._out, name + ".part"), "w", newline="")
            self._rows(name, [header])
        return self

    def _rows(self, name: str, rows) -> None:
        self._file = self._files[name]
        self._csv.writerows(map(csv_cells, rows))

    def write_day(self, res: DayResult) -> None:
        date, labels, rows = res.date.isoformat(), self._labels, self._rows
        for r in sorted(res.decomps, key=lambda r: r.pair):  # both rows carry the one label
            pair, o = "-".join(r.pair), res.outcomes[r.pair]
            rows("decompositions.csv", [[date, pair, r.qv, r.ic, r.cj, r.z, r.p_value,
                                         int(r.rejected), int(r.inconclusive), r.classification,
                                         r.corr_total, r.corr_cont]])
            rows("outcomes.csv", [[date, pair, o.z, o.p_value, int(o.rejected), r.classification,
                                   o.b_reps, o.alpha, o.seed]])
        rows("events.csv", sorted(
            [date, "-".join(r.pair), i, labels[i],
             *(res.jump_series[leg].jump_sizes[i] for leg in r.pair)]
            for r in res.decomps for i in r.events))
        rows("jumps.csv", sorted(
            [date, name, idx, labels[idx], js.jump_sizes[idx]]
            for name, js in res.jump_series.items() for idx in js.jump_indices.tolist()))
        rows("tuple_days.csv", sorted(
            [date, "-".join(members), label] for members, label in res.tuple_labels.items()))

    def write_failures(self, failures: list) -> None:
        self._rows("failures.csv", ((date.isoformat(), message) for date, message in failures))

    def __exit__(self, exc_type, *exc):
        for file in self._files.values():
            file.close()
        for name, file in self._files.items():
            if exc_type is None:
                os.replace(file.name, os.path.join(self._out, name))
            else:
                os.remove(file.name)
        return False


def read_decompositions(path) -> list:
    """Rebuild DayDecomposition records (events live in events.csv)."""
    return _read_csv(
        path,
        _TABLES["decompositions.csv"],
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

    return _read_csv(path, _TABLES["events.csv"], convert)


def read_tuple_labels(path) -> dict:
    """Maps tuple name -> {date: label}."""
    def convert(row):
        if row["label"] not in events.LABELS:
            raise ValueError(f"unknown label {row['label']!r}")
        return row["tuple"], dt.date.fromisoformat(row["date"]), row["label"]

    out: dict = {}
    for name, date, label in _read_csv(path, _TABLES["tuple_days.csv"], convert):
        out.setdefault(name, {})[date] = label
    return out
