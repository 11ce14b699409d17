"""Per-day orchestration from return panels to decomposition records.

For each day: detect jumps per instrument, adjust returns, estimate the
integrated covariance matrix on the adjusted panel, then test each
configured pair for a discontinuity, label it from the verdict and the
pair's shared jump indices (``classify``), and assemble its decomposition,
the one record of the day-pair's verdict, label and stream seed.
A day's jumps are stored once, as each instrument's size vector, and a
co-jump event is a shared grid index whose sizes are read from the legs'.
Multi-asset tuples are labeled as common-jump days only when every
constituent pair rejects and all members share a jump index.

Seeding: each (day, pair) draws its bootstrap from one stream whose
seed is derived from the run's master seed, the date and the pair's
configured "A-B" name alone, so a day-pair's results do not depend on
the worker count, the scheduling, which other days are in the run, or
which other pairs are configured and in what order.
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
from .spec import SessionSpec, csv_cells
from .ticks import ReturnPanel


@dataclass
class DayResult:
    date: dt.date
    jump_series: dict
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


def pair_seed(seed: int, date: dt.date, pair: tuple) -> int:
    """Bootstrap seed of ``pair`` on ``date``: the UTF-8 bytes of its "A-B" name, in the
    configured orientation, enter the entropy as one big-endian int."""
    name = int.from_bytes("-".join(pair).encode("utf-8"), "big")
    entropy = [seed, date.toordinal(), name]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


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

    decomps = []
    for pair in pairs:
        a, b = pair
        ia, ib = panel.instruments.index(a), panel.instruments.index(b)
        raw_a, raw_b = panel.series(a), panel.series(b)
        qv = jumps.realized_covariance(raw_a, raw_b)
        sub = ic.values[np.ix_([ia, ib], [ia, ib])]
        stream = pair_seed(seed, panel.date, pair)
        outcome = bootstrap.bootstrap_statistic(
            raw_a, raw_b, sub, estimator, b_reps=b_reps, alpha=alpha, seed=stream
        )
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
                seed=stream,
            )
        )

    rejected = {frozenset(r.pair) for r in decomps if r.rejected}  # either orientation
    tuple_labels = {}
    for members in tuples:
        label = _tuple_label(members, jump_series, rejected)
        if label is not None:
            tuple_labels[tuple(members)] = label
    return DayResult(
        date=panel.date,
        jump_series=jump_series,
        decomps=decomps,
        tuple_labels=tuple_labels,
    )


def _tuple_label(members, jump_series, rejected: set):
    """Day label for an instrument tuple, or None without a common jump.

    Requires a jump index shared by every member and, for every constituent
    pair, its ``frozenset`` in ``rejected``. Days with several common indices
    take the label of the largest total-magnitude one (lowest index on ties).
    """
    sizes = [jump_series[name].jump_sizes for name in members]
    common = np.flatnonzero(np.all(sizes, axis=0)).tolist()  # where every member jumped
    if not common or not all(frozenset(p) in rejected
                             for p in itertools.combinations(members, 2)):
        return None
    best = min(common, key=lambda k: (-sum(abs(s[k]) for s in sizes), k))
    return events.classify_shift_rotation([s[best] for s in sizes])


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

    def __init__(self, out, spec: SessionSpec, b_reps: int, alpha: float):
        self._out = out
        self._run = (b_reps, alpha)  # outcomes.csv's B and alpha, constant over the run
        self._labels = spec.grid_labels()
        self._files = {}
        self._file = None  # the table the csv writer writes to
        # one csv writer serves all six files: each writer keeps a record buffer of 128 KiB
        self._csv = csv.writer(SimpleNamespace(write=lambda line: self._file.write(line)),
                               lineterminator="\n")

    def __enter__(self):
        try:
            for name, header in events.DECOMPOSE_TABLES.items():
                self._files[name] = open(os.path.join(self._out, name + ".part"), "w", newline="")
                self._rows(name, [header])
        except BaseException as exc:  # the parts opened so far go too
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self

    def _rows(self, name: str, rows) -> None:
        self._file = self._files[name]
        self._csv.writerows(map(csv_cells, rows))

    def write_day(self, res: DayResult) -> None:
        date, labels, rows = res.date.isoformat(), self._labels, self._rows
        for r in sorted(res.decomps, key=lambda r: r.pair):  # both rows are the one record's
            pair = "-".join(r.pair)
            rows("decompositions.csv", [[date, pair, r.qv, r.ic, r.cj, r.z, r.p_value,
                                         int(r.rejected), int(r.inconclusive), r.classification,
                                         r.corr_total, r.corr_cont]])
            rows("outcomes.csv", [[date, pair, r.z, r.p_value, int(r.rejected), r.classification,
                                   *self._run, r.seed]])
        rows("events.csv", sorted(
            [date, "-".join(r.pair), i, labels[i]] for r in res.decomps for i in r.events))
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
