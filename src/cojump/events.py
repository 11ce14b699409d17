"""Aggregation of daily decompositions into report tables.

Takes the per-day outputs of the detection/estimation/test stages and
produces the empirical summaries: co-jump share of quadratic
covariation, the correlation-impact regression, the announcement
logit, intraday co-jump histograms, and the shift/rotation breakdown
by announcement status.

Announcements enter at the level of the day, as a set of dates, and a
co-jump's intraday moment as the grid index of its interval; the
histogram turns indices into wall-clock bins through the session alone.

Regressions are solved by hand on purpose: OLS in exact integer
arithmetic with an HC0 sandwich, the logit by iteratively reweighted
least squares with ``math.fsum`` sums, both cross-checked in the test
suite against independent routes. Every 2x2 system is solved in closed
form and no value passes through BLAS or LAPACK, so the report bytes do
not depend on which BLAS kernel the machine selects.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ticks import SessionSpec, write_csv

LABELS = ("UpShift", "DownShift", "Rotation")


class DegenerateFit(ValueError):
    """A regression or logit has no defined solution on this input."""


class CompleteSeparation(DegenerateFit):
    """The logit likelihood is unbounded; no finite estimates exist."""


@dataclass(frozen=True)
class CoJumpEvent:
    """One simultaneous jump: grid index of its interval, sizes."""

    index: int
    sizes: tuple


@dataclass
class DayDecomposition:
    """Final per-day, per-pair record entering the report stage."""

    date: dt.date
    pair: tuple
    qv: float
    ic: float
    cj: float
    classification: str
    events: tuple = ()
    corr_total: float = float("nan")
    corr_cont: float = float("nan")
    z: float = float("nan")
    p_value: float = float("nan")
    rejected: bool = False
    inconclusive: bool = False

    def __post_init__(self):
        # Co-jump variation exists only on days the test attributes one.
        if self.classification != "co_jump" and self.cj != 0.0:
            raise ValueError("CJ must be zero unless the day is classified co_jump")
        if self.classification != "co_jump" and self.events:
            raise ValueError("co-jump events require a co_jump classification")


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
        days_cj = sum(1 for r in recs if r.cj != 0.0)
        qv_total = float(sum(r.qv for r in recs))
        ratios = [100.0 * r.cj / r.qv for r in recs if r.qv != 0.0]
        pct = float(np.mean(ratios)) if ratios else 0.0
        rows.append({"pair": pair, "days_cj": days_cj, "qv_total": qv_total, "pct_cj_qv": pct})
    return rows


@dataclass
class RegressionResult:
    alpha: float
    beta: float
    r_squared: float
    wald_stat: float
    wald_p: float
    se_alpha: float
    se_beta: float
    n_obs: int


def _scaled_ints(*arrays) -> tuple:
    """Exact integer images of float arrays on one binary scale.

    Returns the integer lists and ``unit`` such that every input value
    equals its integer times ``unit`` (a power of two).
    """
    ratios = [[v.as_integer_ratio() for v in arr.tolist()] for arr in arrays]
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
    A singular sandwich (all residual weight at one regressor value)
    leaves the Wald statistic undefined and raises ``DegenerateFit``.
    """
    y = np.asarray(total_corr, dtype=float)
    x = np.asarray(cont_corr, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("need two equal-length daily series")
    n = y.size
    if n < 3:
        raise ValueError("need at least 3 paired observations")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
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
    scale = max(float(np.max(np.abs(y))), 1e-30)
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
        n_obs=n,
    )


@dataclass
class LogitResult:
    beta0: float
    beta1: float
    se_beta0: float
    se_beta1: float
    pseudo_r_squared: float
    loglik: float
    n_iter: int


def _logit_loglik(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-300
    return math.fsum((y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)).tolist())


def _weighted_moments(x: np.ndarray, w: np.ndarray) -> tuple:
    """Entries of X'WX for the design [1, x], each a ``math.fsum``."""
    wx = w * x
    return math.fsum(w.tolist()), math.fsum(wx.tolist()), math.fsum((wx * x).tolist())


def announcement_logit(cojump_indicator, news_indicator) -> LogitResult:
    """Logistic fit of the daily co-jump indicator on a news indicator.

    Maximum likelihood by iteratively reweighted least squares, stopped
    when the log-likelihood moves less than 1e-10 (at most 100 sweeps).
    McFadden's 1 - l/l0 is reported as the pseudo R-squared. Binary
    regressors are screened for empty outcome cells first, since those
    push a coefficient to infinity. X'WX and X'Wz are assembled with
    ``math.fsum`` and each 2x2 system is solved in closed form, so the
    fit does not depend on the BLAS kernel.
    """
    y = np.asarray(cojump_indicator, dtype=float)
    x = np.asarray(news_indicator, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("need two equal-length daily indicator series")
    if not (set(np.unique(y)) <= {0.0, 1.0}):
        raise ValueError("outcome must be 0/1")
    if y.min() == y.max():
        raise ValueError("both outcome classes must be present")
    if x.min() == x.max():
        raise CompleteSeparation("news indicator is constant; no contrast")
    if set(np.unique(x)) <= {0.0, 1.0}:
        for xv in (0.0, 1.0):
            sub = y[x == xv]
            if sub.size and (sub.min() == sub.max()):
                raise CompleteSeparation(
                    f"outcome is constant ({int(sub[0])}) on the news={int(xv)} cell"
                )
    n = y.size
    beta0 = beta1 = 0.0
    ll_old = _logit_loglik(y, np.full(n, 0.5))
    n_iter = 0
    for n_iter in range(1, 101):
        eta = beta0 + beta1 * x
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1.0 - p)
        # Newton step in IRLS form: working response z = eta + (y-p)/w.
        wz = w * eta + (y - p)
        s0, s1, s2 = _weighted_moments(x, w)
        t0, t1 = math.fsum(wz.tolist()), math.fsum((wz * x).tolist())
        det = s0 * s2 - s1 * s1
        beta0, beta1 = (s2 * t0 - s1 * t1) / det, (s0 * t1 - s1 * t0) / det
        ll_new = _logit_loglik(y, 1.0 / (1.0 + np.exp(-(beta0 + beta1 * x))))
        if abs(ll_new - ll_old) < 1e-10:
            ll_old = ll_new
            break
        ll_old = ll_new
    p = 1.0 / (1.0 + np.exp(-(beta0 + beta1 * x)))
    s0, s1, s2 = _weighted_moments(x, p * (1.0 - p))
    det = s0 * s2 - s1 * s1
    p_null = float(y.mean())
    ll_null = _logit_loglik(y, np.full(n, p_null))
    pseudo = 1.0 - ll_old / ll_null if ll_null != 0.0 else 0.0
    return LogitResult(
        beta0=beta0,
        beta1=beta1,
        se_beta0=math.sqrt(s2 / det),
        se_beta1=math.sqrt(s0 / det),
        pseudo_r_squared=float(pseudo),
        loglik=float(ll_old),
        n_iter=n_iter,
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
    counts = np.zeros(spec.session_seconds // width, dtype=int)
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


def write_cj_qv_table(rows: list, path) -> None:
    """Co-jump share table: pair, days_cj, qv_total, pct_cj_qv."""
    write_csv(
        path,
        ["pair", "days_cj", "qv_total", "pct_cj_qv"],
        (["-".join(r["pair"]), r["days_cj"], r["qv_total"], r["pct_cj_qv"]] for r in rows),
    )


def _fit_rows(rows: list, fields: tuple):
    """One row per (pair, fit); a fit of None (degenerate) leaves its cells blank."""
    for pair, res in rows:
        yield ["-".join(pair), *(None if res is None else getattr(res, f) for f in fields)]


def write_regression_table(rows: list, path) -> None:
    """Correlation regression table: pair, alpha, beta, r_squared, wald_p."""
    fields = ("alpha", "beta", "r_squared", "wald_p")
    write_csv(path, ["pair", *fields], _fit_rows(rows, fields))


def write_logit_table(rows: list, path) -> None:
    """Announcement logit table: pair, beta0, beta1, ses, pseudo R2."""
    fields = ("beta0", "beta1", "se_beta0", "se_beta1", "pseudo_r_squared")
    write_csv(path, ["pair", *fields], _fit_rows(rows, fields))


_SHIFT_ROTATION_FIELDS = (
    "segment n_rotation pct_rotation n_up_shift pct_up_shift n_down_shift pct_down_shift "
    "n_days_cj pct_days_cj n_segment_days"
).split()


def write_shift_rotation_table(rows_by_tuple: list, path) -> None:
    """Shift/rotation table keyed by instrument tuple and segment."""
    write_csv(
        path,
        ["tuple", *_SHIFT_ROTATION_FIELDS],
        (
            [name, *(r[f] for f in _SHIFT_ROTATION_FIELDS)]
            for name, rows in rows_by_tuple
            for r in rows
        ),
    )


def write_histogram(bin_starts: list, counts, path) -> None:
    write_csv(path, ["bin_start", "count"], ([t, int(c)] for t, c in zip(bin_starts, counts)))
