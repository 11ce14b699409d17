"""Aggregation of daily decompositions into report tables.

Takes the per-day outputs of the detection/estimation/test stages and
produces the empirical summaries: co-jump share of quadratic
covariation, the correlation-impact regression, the announcement
logit, intraday co-jump histograms, and the shift/rotation breakdown
by announcement status.

Announcements enter at the level of the day, as a set of dates, and a
co-jump event as the grid index of its interval alone (its sizes are
the two legs' jump sizes there); the histogram turns indices into
wall-clock bins through the session alone.
``write_report`` builds the rows of all five tables, declared once in
``_TABLES``, before it writes any of them. ``decompose``'s tables and their
readers are here too (``DECOMPOSE_TABLES``): ``report`` loads no numpy.

Both fits are computed by hand on purpose: OLS in exact integer
arithmetic with an HC0 sandwich, and the logit, which its one binary
regressor saturates, as the empirical log-odds of its 2x2 table of
integer cell counts (the saturated-model MLE; Agresti, *Categorical
Data Analysis*, ch. 5). Both are cross-checked in the test suite
against independent routes. No value passes through BLAS or LAPACK, so
the report bytes do not depend on which BLAS kernel the machine selects.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import math
import operator
import os
from collections import namedtuple
from fractions import Fraction

from .spec import MalformedFile, SessionSpec, write_csv

LABELS = ("UpShift", "DownShift", "Rotation")
CLASSIFICATIONS = ("co_jump", "disjoint_only", "no_discontinuity")  # a pair's day labels


class DegenerateFit(ValueError):
    """A regression or logit has no defined solution on this input."""


class CompleteSeparation(DegenerateFit):
    """The logit likelihood is unbounded; no finite estimates exist."""


class DayDecomposition(namedtuple(
        "DayDecomposition", "date pair qv ic cj classification events corr_total corr_cont z "
        "p_value rejected inconclusive seed",
        defaults=((), float("nan"), float("nan"), float("nan"), float("nan"), False, False, None))):
    """Final per-day, per-pair record entering the report stage; ``events`` are the grid
    indices of the pair's co-jumps, whose sizes are the legs' jump sizes there, and ``seed``
    the day-pair's bootstrap stream seed (None where the table read has no seed column)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")
        # Co-jump variation exists only on days the test attributes one.
        if self.classification != "co_jump" and self.cj != 0.0:
            raise ValueError("CJ must be zero unless the day is classified co_jump")
        if self.classification != "co_jump" and self.events:
            raise ValueError("co-jump events require a co_jump classification")
        return self


def cj_qv_summary(decomps: list) -> list:
    """Per-pair totals: co-jump day count, QV total, mean 100*CJ/QV.

    The percentage averages the daily ratio over all days with QV != 0
    (not only co-jump days), so jump-free days pull it toward zero.
    """
    if not decomps:
        raise ValueError("no decompositions to summarize")
    by_pair: dict = {}
    for rec in decomps:
        by_pair.setdefault(rec.pair, []).append(rec)
    rows = []
    for pair in sorted(by_pair):
        recs = by_pair[pair]
        days_cj = sum(1 for r in recs if r.classification == "co_jump")
        qv_total = functools.reduce(operator.add, (r.qv for r in recs), 0.0)  # in turn
        ratios = [100.0 * r.cj / r.qv for r in recs if r.qv != 0.0]
        pct = (0.0 + _pairwise_sum(ratios)) / len(ratios) if ratios else 0.0  # np.mean: from 0.0
        rows.append({"pair": pair, "days_cj": days_cj, "qv_total": qv_total, "pct_cj_qv": pct})
    return rows


def _pairwise_sum(x: list) -> float:
    """``x`` summed in numpy's pairwise order, so with np.sum's bits: in turn below 8 values,
    in 8 running sums up to 128 and then in turn, and in halves of whole 8s above 128."""
    n, full = len(x), len(x) - len(x) % 8
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])
    if n < 8:
        return functools.reduce(operator.add, x, 0.0)
    r = [functools.reduce(operator.add, x[j:full:8]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, x[full:], total)


RegressionResult = namedtuple("RegressionResult",
                              "alpha beta r_squared wald_stat wald_p se_alpha se_beta")


def _scaled_ints(*arrays) -> tuple:
    """Exact integer images of lists of floats on one binary scale.

    Returns the integer lists and ``unit`` such that every input value
    equals its integer times ``unit`` (a power of two).
    """
    ratios = [[v.as_integer_ratio() for v in arr] for arr in arrays]
    shift = max(den.bit_length() - 1 for r in ratios for _, den in r)
    ints = [[num << (shift - den.bit_length() + 1) for num, den in r] for r in ratios]
    return ints, Fraction(1, 1 << shift)


def correlation_impact_regression(total_corr, cont_corr) -> RegressionResult:
    """OLS of the total correlation on the continuous correlation.

    Fits total = alpha + beta * cont with an HC0 (plain White) sandwich
    covariance and a Wald test of the joint null alpha = 0, beta = 1
    against chi-square(2). Identical correlations therefore accept.

    The moments are summed exactly in integer arithmetic and each
    reported value is the exact OLS quantity rounded once, so the result
    does not depend on the BLAS kernel or on summation order, and a
    tightly clustered regressor (an ill-conditioned X'X) costs no
    accuracy. R-squared is Sxy^2 / (Sxx * Syy), which equals 1 - SSR/SST.
    Fewer than 3 observations, a constant regressor or a singular
    sandwich (all residual weight at one regressor value, which leaves
    the Wald statistic undefined) raise ``DegenerateFit``.
    """
    y, x = [float(v) for v in total_corr], [float(v) for v in cont_corr]
    if len(y) != len(x):
        raise ValueError("need two equal-length daily series")
    n = len(y)
    if n < 3:
        raise DegenerateFit("need at least 3 paired observations")
    if not all(map(math.isfinite, y + x)):
        raise ValueError("series must be finite")
    (xi, yi), unit = _scaled_ints(x, y)
    sx, sy = sum(xi), sum(yi)
    sxx = sum(a * a for a in xi)
    sxy = sum(a * b for a, b in zip(xi, yi))
    # n^2 times the centered moments, in units of unit^2
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    cyy = n * sum(b * b for b in yi) - sy * sy
    if cxx == 0:
        raise DegenerateFit("regressor has zero variance")
    beta = Fraction(cxy, cxx)
    alpha = Fraction(sy * cxx - sx * cxy, n * cxx) * unit
    r_squared = Fraction(cxy * cxy, cxx * cyy) if cyy else Fraction(1)
    # residual i is resid[i] * unit / (n * cxx)
    resid = [n * cxx * b - (sy * cxx - sx * cxy) - n * cxy * a for a, b in zip(xi, yi)]
    scale = max(*map(abs, y), 1e-30)
    if float(Fraction(max(map(abs, resid)), n * cxx) * unit) <= 1e-12 * scale:
        # Exact fit: the sandwich is singular and the Wald ratio would be
        # 0/0 round-off. The hypothesis is then decided by theta alone.
        on_null = abs(float(alpha)) <= 1e-9 * scale and abs(float(beta) - 1.0) <= 1e-9
        wald = 0.0 if on_null else math.inf
        var_alpha = var_beta = 0
    else:
        # Wald = v' M^-1 v with v = X'X (theta - (0, 1)) = X'(y - x) and
        # the meat M = sum e_i^2 [1, x_i][1, x_i]'.
        e2 = [r * r for r in resid]
        m00 = sum(e2)
        m01 = sum(e * a for e, a in zip(e2, xi))
        m11 = sum(e * a * a for e, a in zip(e2, xi))
        det = m00 * m11 - m01 * m01
        if det == 0:
            raise DegenerateFit("HC0 covariance is singular")
        v0, v1 = sy - sx, sxy - sxx
        quad = m11 * v0 * v0 - 2 * m01 * v0 * v1 + m00 * v1 * v1
        wald = float(Fraction((n * cxx) ** 2 * quad, det))
        # HC0 variances are sum_i e_i^2 w_i^2, with beta = sum_i w_i y_i for
        # w_i proportional to dev_i = n x_i - sum x, and alpha likewise for
        # w_i proportional to cxx - sum x * dev_i.
        dev = [n * a - sx for a in xi]
        var_beta = Fraction(sum(e * d * d for e, d in zip(e2, dev)), (n * cxx * cxx) ** 2)
        var_alpha = Fraction(
            sum(e * (cxx - sx * d) ** 2 for e, d in zip(e2, dev)), (n * cxx) ** 4
        ) * unit**2
    # chi-square(2) survival function in closed form.
    wald_p = math.exp(-wald / 2.0)
    return RegressionResult(
        alpha=float(alpha),
        beta=float(beta),
        r_squared=float(r_squared),
        wald_stat=wald,
        wald_p=wald_p,
        se_alpha=math.sqrt(var_alpha),
        se_beta=math.sqrt(var_beta),
    )


LogitResult = namedtuple("LogitResult", "beta0 beta1 se_beta0 se_beta1 pseudo_r_squared")


def announcement_logit(cojump_indicator, news_indicator) -> LogitResult:
    """Logistic fit of the daily co-jump indicator on a 0/1 news indicator.

    One binary regressor saturates the logit, so its maximum likelihood
    estimate is the pair of empirical cell log-odds (Agresti,
    *Categorical Data Analysis*, ch. 5). For (co-jump, no co-jump) counts
    (a, b) on quiet days and (c, d) on news days: beta0 = log(a/b),
    beta1 = log(c/d) - log(a/b), se(beta0)^2 = 1/a + 1/b and
    se(beta1)^2 = 1/a + 1/b + 1/c + 1/d. An empty cell pushes a
    coefficient to infinity and raises ``CompleteSeparation``.

    McFadden's 1 - l/l0 is reported as the pseudo R-squared, computed as
    (l - l0) / -l0 with l - l0 = sum k log(k n / (row * column)) over the
    cells, so it is exactly 0 when news and quiet days share one rate.
    """
    y, x = [float(v) for v in cojump_indicator], [float(v) for v in news_indicator]
    if len(y) != len(x):
        raise ValueError("need two equal-length daily indicator series")
    for name, v in (("outcome", y), ("news indicator", x)):
        if not set(v) <= {0.0, 1.0}:
            raise ValueError(f"{name} must be 0/1")
    cells = [int(2.0 * xv + yv) for xv, yv in zip(x, y)]  # 0 to 3: (news, co-jump) bits
    b, a, d, c = map(cells.count, range(4))
    quiet, news, cojump, calm = a + b, c + d, a + c, b + d
    if not (cojump and calm):
        raise DegenerateFit("both outcome classes must be present")
    if not (quiet and news):
        raise CompleteSeparation("news indicator is constant; no contrast")
    for xv, (yes, no) in enumerate(((a, b), (c, d))):
        if not (yes and no):
            raise CompleteSeparation(f"outcome is constant ({int(yes > 0)}) on the news={xv} cell")
    cells = ((a, quiet, cojump), (b, quiet, calm), (c, news, cojump), (d, news, calm))
    gain = math.fsum(k * math.log(k * (quiet + news) / (row * col)) for k, row, col in cells)
    null = math.fsum(k * math.log(k / (cojump + calm)) for k in (cojump, calm))  # l0
    beta0 = math.log(a / b)
    return LogitResult(
        beta0=beta0,
        beta1=math.log(c / d) - beta0,
        se_beta0=math.sqrt(quiet / (a * b)),
        se_beta1=math.sqrt(Fraction(quiet, a * b) + Fraction(news, c * d)),
        pseudo_r_squared=gain / -null,
    )


def intraday_histogram(indices: list, bin_minutes: int, spec: SessionSpec):
    """Counts of events per wall-clock bin across the session.

    ``indices`` are the grid indices of the events' intervals. Returns
    (bin_starts, counts) with the bins' "HH:MM:SS" session-local starts.
    ``bin_minutes`` must divide the session length; every index must lie
    on the session grid.
    """
    width = bin_minutes * 60
    if width <= 0 or spec.session_seconds % width != 0:
        raise ValueError("bin width must divide the session length")
    counts = [0] * (spec.session_seconds // width)
    for index in indices:
        if not 0 <= index < spec.n_intervals:
            raise ValueError(f"event index {index} outside the session")
        counts[index * spec.sampling_interval // width] += 1
    return spec.grid_labels(width), counts


def classify_shift_rotation(sizes) -> str:
    """Label a simultaneous jump tuple by the signs of its members.

    All members positive is an upward level shift, all negative a
    downward one, any sign mix a rotation. Scaling all sizes by a
    positive constant cannot change the label.
    """
    vals = [float(s) for s in sizes]
    if len(vals) < 2:
        raise ValueError("a co-jump tuple needs at least two members")
    if any(v == 0.0 for v in vals):
        raise ValueError("zero size: not a common jump across all members")
    if all(v > 0.0 for v in vals):
        return "UpShift"
    if all(v < 0.0 for v in vals):
        return "DownShift"
    return "Rotation"


def shift_rotation_table(day_labels: dict, announcement_dates, sample_dates) -> list:
    """Shift/rotation counts split by announcement status.

    ``day_labels`` maps dates with a co-jump to that day's label (one
    label per day; multi-event days are labeled upstream). A sample date
    is an announcement day when it is in ``announcement_dates``.
    Percentages are taken against the segment's day count, which is
    emitted so the shares can be renormalized.
    """
    segments = {"announcement": [], "non_announcement": []}
    for date in sample_dates:
        key = "announcement" if date in announcement_dates else "non_announcement"
        segments[key].append(date)
    rows = []
    for segment in ("announcement", "non_announcement"):
        dates = segments[segment]
        n_seg = len(dates)
        tally = {label: 0 for label in LABELS}
        days_cj = 0
        for date in dates:
            label = day_labels.get(date)
            if label is None:
                continue
            if label not in LABELS:
                raise ValueError(f"unknown label {label!r}")
            tally[label] += 1
            days_cj += 1
        def pct(count: int) -> float:
            return 100.0 * count / n_seg if n_seg else 0.0
        rows.append(
            {
                "segment": segment,
                "n_rotation": tally["Rotation"],
                "pct_rotation": pct(tally["Rotation"]),
                "n_up_shift": tally["UpShift"],
                "pct_up_shift": pct(tally["UpShift"]),
                "n_down_shift": tally["DownShift"],
                "pct_down_shift": pct(tally["DownShift"]),
                "n_days_cj": days_cj,
                "pct_days_cj": pct(days_cj),
                "n_segment_days": n_seg,
            }
        )
    return rows


_TABLES = {  # each table of a report run: its file name and header
    "cj_qv_share.csv": ["pair", "days_cj", "qv_total", "pct_cj_qv"],
    "correlation_regression.csv": ["pair", "alpha", "beta", "r_squared", "wald_p"],
    "announcement_logit.csv": ["pair", "beta0", "beta1", "se_beta0", "se_beta1",
                               "pseudo_r_squared"],
    "shift_rotation.csv": ["tuple", "segment", "n_rotation", "pct_rotation", "n_up_shift",
                           "pct_up_shift", "n_down_shift", "pct_down_shift", "n_days_cj",
                           "pct_days_cj", "n_segment_days"],
    "histogram.csv": ["bin_start", "count"],
}


def write_report(out, decomps: list, event_indices: list, labels_by_tuple: dict, announcements,
                 spec: SessionSpec, bin_minutes: int) -> list:
    """The five tables of a report run, written into the directory ``out`` once every row is built.

    ``announcements`` is the set of news dates, or None without an announcements block: the
    logit then has no news day, and shift_rotation.csv counts every sample day as a
    non_announcement day. A fit with no defined solution leaves its row's cells blank;
    returns the sorted [table, pair, message] list of those fits.
    """
    by_pair: dict = {}
    for rec in decomps:
        by_pair.setdefault(rec.pair, []).append(rec)
    rows = {name: [] for name in _TABLES if name != "histogram.csv"}
    rows["cj_qv_share.csv"] = [["-".join(r["pair"]), r["days_cj"], r["qv_total"], r["pct_cj_qv"]]
                               for r in cj_qv_summary(decomps)]
    degenerate = []
    news_dates = announcements or frozenset()
    for pair in sorted(by_pair):  # both fits are exact sums, so the rows' order is free
        recs = by_pair[pair]
        finite = [r for r in recs if math.isfinite(r.corr_total) and math.isfinite(r.corr_cont)]
        for table, fit, args in (
            ("correlation_regression", correlation_impact_regression,
             ([r.corr_total for r in finite], [r.corr_cont for r in finite])),
            ("announcement_logit", announcement_logit,
             ([1.0 if r.classification == "co_jump" else 0.0 for r in recs],
              [1.0 if r.date in news_dates else 0.0 for r in recs])),
        ):
            header = _TABLES[f"{table}.csv"]
            try:
                res = fit(*args)
                cells = [getattr(res, f) for f in header[1:]]
            except DegenerateFit as exc:
                cells = [None] * (len(header) - 1)
                degenerate.append([table, "-".join(pair), str(exc)])
            rows[f"{table}.csv"].append(["-".join(pair), *cells])
    sample_dates = sorted({r.date for r in decomps})
    for name in sorted(labels_by_tuple):
        rows["shift_rotation.csv"] += (
            [name, *(r[f] for f in _TABLES["shift_rotation.csv"][1:])]
            for r in shift_rotation_table(labels_by_tuple[name], news_dates, sample_dates))
    bin_starts, counts = intraday_histogram(event_indices, bin_minutes, spec)
    for name, table in rows.items():
        write_csv(os.path.join(out, name), _TABLES[name], table)
    write_histogram(bin_starts, counts, os.path.join(out, "histogram.csv"))
    return sorted(degenerate)


def write_histogram(bin_starts: list, counts, path) -> None:
    write_csv(path, _TABLES["histogram.csv"], zip(bin_starts, counts))


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


DECOMPOSE_TABLES = {  # each table of a decompose run: its file name and header
    "decompositions.csv": ["date", "pair", "qv", "ic", "cj", "z", "p", "rejected", "inconclusive",
                           "classification", "corr_total", "corr_cont"],
    "events.csv": ["date", "pair", "index", "time"],  # the sizes are the legs' jumps.csv rows
    "jumps.csv": ["date", "instrument", "index", "time", "size"],
    "tuple_days.csv": ["date", "tuple", "label"],
    "failures.csv": ["date", "error"],
    "outcomes.csv": ["date", "pair", "Z", "p", "rejected", "classification", "B", "alpha", "seed"],
}


def read_decompositions(path) -> list:
    """Rebuild DayDecomposition records (events live in events.csv)."""
    def convert(row):
        return DayDecomposition(
            date=dt.date.fromisoformat(row["date"]), pair=tuple(row["pair"].split("-")),
            qv=float(row["qv"]), ic=float(row["ic"]), cj=float(row["cj"]),
            classification=row["classification"], corr_total=float(row["corr_total"]),
            corr_cont=float(row["corr_cont"]), z=float(row["z"]), p_value=float(row["p"]),
            rejected=bool(int(row["rejected"])), inconclusive=bool(int(row["inconclusive"])))

    return _read_csv(path, DECOMPOSE_TABLES["decompositions.csv"], convert)


def read_events_csv(path, spec: SessionSpec) -> list:
    """The grid index of each event row.

    A row whose index is not an interval of ``spec`` or whose time is
    not that interval's label raises MalformedFile.
    """
    labels = spec.grid_labels()

    def convert(row):
        index = int(row["index"])
        if not 0 <= index < len(labels) or row["time"] != labels[index]:
            raise ValueError(f"index {index} at {row['time']} is not an interval of the session")
        return index

    return _read_csv(path, DECOMPOSE_TABLES["events.csv"], convert)


def read_tuple_labels(path) -> dict:
    """Maps tuple name -> {date: label}."""
    def convert(row):
        if row["label"] not in LABELS:
            raise ValueError(f"unknown label {row['label']!r}")
        return row["tuple"], dt.date.fromisoformat(row["date"]), row["label"]

    out: dict = {}
    for name, date, label in _read_csv(path, DECOMPOSE_TABLES["tuple_days.csv"], convert):
        out.setdefault(name, {})[date] = label
    return out
