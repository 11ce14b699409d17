"""Report-stage aggregation: summaries, regressions, histograms, labels."""

import csv
import datetime as dt
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_cli import _fail_days, _write_config

from cojump import cli, events as ev
from cojump.spec import write_csv
from cojump.ticks import SessionSpec

TZ = "America/Chicago"


def _decomp(date, pair=("A", "B"), qv=1.0, ic=1.0, cj=0.0,
            classification="no_discontinuity", events=()):
    return ev.DayDecomposition(
        date=date, pair=pair, qv=qv, ic=ic, cj=cj,
        classification=classification, events=events,
    )


def _cj_day(date, index, sizes, pair=("A", "B"), qv=1.0):
    cj = math.prod(sizes)
    return _decomp(date, pair=pair, qv=qv, cj=cj, classification="co_jump",
                   events=(index,))


def test_day_decomposition_invariants():
    d = dt.date(2017, 3, 15)
    with pytest.raises(ValueError, match="co_jump"):
        _decomp(d, cj=1e-5)
    with pytest.raises(ValueError, match="co_jump"):
        _decomp(d, events=(3,))
    _cj_day(d, 3, (0.1, 0.1))  # consistent record accepted


def _cj_qv_rows(decomps):
    """cj_qv_summary's rows, each keyed by cj_qv_share.csv's header."""
    return [dict(zip(ev._TABLES["cj_qv_share.csv"], row)) for row in ev.cj_qv_summary(decomps)]


def test_cj_qv_summary_trivials():
    d0 = dt.date(2017, 3, 15)
    quiet = [_decomp(d0, qv=2.0), _decomp(dt.date(2017, 3, 16), qv=3.0)]
    rows = _cj_qv_rows(quiet)
    assert rows[0]["days_cj"] == 0
    assert rows[0]["pct_cj_qv"] == 0.0
    assert rows[0]["qv_total"] == 5.0
    # QV is summed in turn on every Python: 3.12's compensated sum() gives 1.0 here
    days = [_decomp(dt.date(2017, 3, 15 + k), qv=q) for k, q in enumerate((1e16, 1.0, -1e16))]
    assert _cj_qv_rows(days)[0]["qv_total"] == 0.0

    full = [_cj_day(d0, 10, (1.0, 1.0), qv=1.0)]
    rows = _cj_qv_rows(full)
    assert rows[0]["days_cj"] == 1
    assert rows[0]["pct_cj_qv"] == pytest.approx(100.0)
    # days_cj counts co_jump days, as events.csv lists them, also one whose products cancel:
    # common jumps (a, -a) on one leg and (b, b) on the other give CJ = 0.0 exactly
    cancel = [_decomp(d0, cj=0.03 * 0.07 + -0.03 * 0.07, classification="co_jump", events=(3, 4))]
    assert cancel[0].cj == 0.0
    assert _cj_qv_rows(cancel + quiet)[0]["days_cj"] == 1


def test_cj_qv_summary_mean_skips_zero_qv():
    d = [dt.date(2017, 3, 15 + k) for k in range(3)]
    recs = [
        _cj_day(d[0], 1, (0.2, 0.2), qv=0.08),  # ratio 50%
        _decomp(d[1], qv=1.0),                                       # ratio 0%
        _decomp(d[2], qv=0.0),                                       # excluded
    ]
    rows = _cj_qv_rows(recs)
    assert rows[0]["pct_cj_qv"] == pytest.approx(25.0)
    assert rows[0]["days_cj"] == 1


def test_cj_qv_summary_mean_is_np_mean_bit_for_bit():
    """The report's mean of 100 * CJ / QV has the bits of np.mean of the same ratios, at
    every edge of numpy's pairwise order (8 running sums, 128-value blocks, halving)."""
    rng = np.random.default_rng(27)
    lengths = [*range(1, 21), 127, 128, 129, 255, 256, 257, 8191, 8192, 8193,
               *rng.integers(1, 9001, 30).tolist()]
    d = dt.date(2017, 3, 15)
    for n in lengths:
        cj = (rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2, n)).tolist()
        qv = (rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(-4, 4, n)).tolist()
        recs = [_decomp(d, qv=q, cj=c, classification="co_jump") for q, c in zip(qv, cj)]
        [row] = _cj_qv_rows(recs)
        want = float(np.mean([100.0 * c / q for q, c in zip(qv, cj)]))
        assert row["pct_cj_qv"].hex() == want.hex(), n


def test_cj_qv_summary_sorted_by_pair():
    d = dt.date(2017, 3, 15)
    recs = [_decomp(d, pair=("B", "C")), _decomp(d, pair=("A", "B"))]
    rows = _cj_qv_rows(recs)
    assert [r["pair"] for r in rows] == ["A-B", "B-C"]


def test_regression_identity_accepts():
    x = np.linspace(0.1, 0.9, 30)
    res = ev.correlation_impact_regression(x, x)
    assert res.alpha == pytest.approx(0.0, abs=1e-12)
    assert res.beta == pytest.approx(1.0, abs=1e-12)
    assert res.r_squared == pytest.approx(1.0)
    assert res.wald_stat == 0.0
    assert res.wald_p == 1.0


def test_regression_exact_linear():
    x = np.linspace(0.2, 0.8, 25)
    res = ev.correlation_impact_regression(0.2 + 0.7 * x, x)
    assert res.alpha == pytest.approx(0.2, abs=1e-10)
    assert res.beta == pytest.approx(0.7, abs=1e-10)
    assert res.wald_p == 0.0  # exact fit off the null rejects outright


def test_regression_matches_independent_solve():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.1, 0.9, 80)
    y = 0.15 + 0.8 * x + rng.standard_normal(80) * 0.07

    res = ev.correlation_impact_regression(y, x)

    # independent route: pseudoinverse fit and explicitly assembled sandwich
    design = np.column_stack([np.ones(80), x])
    theta = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ theta
    bread = np.linalg.pinv(design.T @ design)
    meat = np.einsum("ni,nj,n->ij", design, design, resid**2)
    cov = bread @ meat @ bread
    delta = theta - np.array([0.0, 1.0])
    wald = float(delta @ np.linalg.inv(cov) @ delta)

    assert res.alpha == pytest.approx(theta[0], abs=1e-8)
    assert res.beta == pytest.approx(theta[1], abs=1e-8)
    assert res.se_alpha == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-8)
    assert res.se_beta == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-8)
    assert res.wald_stat == pytest.approx(wald, rel=1e-8)
    assert res.wald_p == pytest.approx(math.exp(-wald / 2.0), rel=1e-10)
    # residual orthogonality against both columns
    assert abs(float(resid.sum())) < 1e-10
    assert abs(float(resid @ x)) < 1e-10


def test_regression_r_squared_definition():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 50)
    y = 0.3 * x + rng.standard_normal(50) * 0.2
    res = ev.correlation_impact_regression(y, x)
    assert 0.0 <= res.r_squared <= 1.0
    assert res.r_squared == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2, abs=1e-10)


def _exact_ols_hc0(y, x):
    """Exact rational OLS with intercept: alpha, beta, R^2, HC0 Wald of (0, 1)."""
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((a - mx) ** 2 for a in xs)
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    syy = sum((b - my) ** 2 for b in ys)
    beta = sxy / sxx
    alpha = my - beta * mx
    e2 = [(b - alpha - beta * a) ** 2 for a, b in zip(xs, ys)]
    # delta' (B M B)^-1 delta = v' M^-1 v with v = X'X delta, on the
    # uncentered design [1, x]
    d0, d1 = alpha, beta - 1
    s1, s2 = sum(xs), sum(a * a for a in xs)
    v0, v1 = n * d0 + s1 * d1, s1 * d0 + s2 * d1
    m00 = sum(e2)
    m01 = sum(e * a for e, a in zip(e2, xs))
    m11 = sum(e * a * a for e, a in zip(e2, xs))
    wald = (m11 * v0 * v0 - 2 * m01 * v0 * v1 + m00 * v1 * v1) / (m00 * m11 - m01 * m01)
    return alpha, beta, sxy * sxy / (sxx * syy), wald


def test_regression_within_ulps_of_exact_rational_ols():
    # A clustered regressor like the golden run's continuous correlation
    # (40 days, x = 0.6 +- 0.05, cond(X'X) in the hundreds): uncentered
    # normal equations lose hundreds of ulps here.
    for seed in range(10):
        rng = np.random.default_rng([2017, seed])
        x = rng.normal(0.6, 0.05, 40)
        y = 2.0 - 2.4 * x + rng.normal(0.0, 0.1, 40)
        res = ev.correlation_impact_regression(y, x)
        alpha, beta, r_squared, wald = _exact_ols_hc0(y, x)
        for name, got, want in (
            ("alpha", res.alpha, alpha),
            ("beta", res.beta, beta),
            ("r_squared", res.r_squared, r_squared),
        ):
            ulps = abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))
            assert ulps <= 4, f"seed {seed} {name}: {float(ulps):.1f} ulps from exact"
        assert abs(Fraction(res.wald_stat) - wald) <= Fraction(1e-12) * wald, seed


def test_regression_validation():
    x = np.linspace(0, 1, 10)
    with pytest.raises(ev.DegenerateFit, match="zero variance"):
        ev.correlation_impact_regression(x, np.full(10, 0.5))
    with pytest.raises(ValueError, match="3"):
        ev.correlation_impact_regression(x[:2], x[:2])


def _indicator_panel(p_news, p_quiet, n_news=20, n_quiet=50):
    """Deterministic 0/1 panel hitting the target cell frequencies."""
    news = np.concatenate([np.ones(n_news), np.zeros(n_quiet)])
    y_news = np.zeros(n_news)
    y_news[: round(p_news * n_news)] = 1.0
    y_quiet = np.zeros(n_quiet)
    y_quiet[: round(p_quiet * n_quiet)] = 1.0
    return np.concatenate([y_news, y_quiet]), news


def test_logit_two_by_two_closed_form():
    y, x = _indicator_panel(0.5, 0.1)
    res = ev.announcement_logit(y, x)
    assert res.beta0 == pytest.approx(math.log(1 / 9), abs=1e-6)
    assert res.beta1 == pytest.approx(math.log(9), abs=1e-6)
    assert 0.0 < res.pseudo_r_squared < 1.0

    y, x = _indicator_panel(0.7, 0.3, n_news=30, n_quiet=40)
    res = ev.announcement_logit(y, x)
    assert res.beta0 == pytest.approx(math.log(0.3 / 0.7), abs=1e-6)
    assert res.beta1 == pytest.approx(math.log(0.7 / 0.3) - math.log(0.3 / 0.7), abs=1e-6)
    assert res.beta1 > 0.0  # P(CJ|news) above P(CJ|quiet) forces a positive slope


def test_logit_score_equations_vanish():
    y, x = _indicator_panel(0.4, 0.15)
    res = ev.announcement_logit(y, x)
    p = 1.0 / (1.0 + np.exp(-(res.beta0 + res.beta1 * x)))
    assert abs(float(np.sum(y - p))) < 1e-8
    assert abs(float(np.sum(x * (y - p)))) < 1e-8


def test_logit_standard_errors_closed_form():
    y, x = _indicator_panel(0.5, 0.1)
    res = ev.announcement_logit(y, x)
    # cellwise information: n p (1-p) per cell, diagonalized by hand
    n1, n0 = 20, 50
    p1, p0 = 0.5, 0.1
    w1, w0 = n1 * p1 * (1 - p1), n0 * p0 * (1 - p0)
    info = np.array([[w0 + w1, w1], [w1, w1]])
    cov = np.linalg.inv(info)
    assert res.se_beta0 == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-6)
    assert res.se_beta1 == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-6)


def test_logit_separation_and_validation():
    y, x = _indicator_panel(0.5, 0.1)
    with pytest.raises(ev.DegenerateFit, match="constant"):
        ev.announcement_logit(y, np.zeros_like(y))
    sep_y = x.copy()  # co-jump exactly on news days
    with pytest.raises(ev.DegenerateFit, match="cell"):
        ev.announcement_logit(sep_y, x)
    with pytest.raises(ValueError, match="classes"):
        ev.announcement_logit(np.ones_like(y), x)


def _cells(a, b, c, d):
    """Indicator series with (co-jump, no co-jump) counts (a, b) quiet and (c, d) news."""
    y = [1.0] * a + [0.0] * b + [1.0] * c + [0.0] * d
    return y, [0.0] * (a + b) + [1.0] * (c + d)


@settings(max_examples=200, deadline=None)
@given(*[st.integers(1, 500)] * 4)
@example(2, 3, 4, 6)  # equal rates: 1 - l/l0 summed naively is -2.2e-16 here
def test_logit_closed_form_matches_cells(a, b, c, d):
    res = ev.announcement_logit(*_cells(a, b, c, d))
    # fitted probabilities reproduce both cell frequencies
    for eta, share in ((res.beta0, a / (a + b)), (res.beta0 + res.beta1, c / (c + d))):
        assert abs(1.0 / (1.0 + math.exp(-eta)) - share) <= 1e-12
    # se^2 is the diagonal of the inverse cellwise information n p (1 - p)
    w0, w1 = Fraction(a * b, a + b), Fraction(c * d, c + d)
    i00, i01, i11 = w0 + w1, w1, w1
    det = i00 * i11 - i01 * i01
    for se, var in ((res.se_beta0, i11 / det), (res.se_beta1, i00 / det)):
        assert abs(Fraction(se * se) - var) <= Fraction(1e-12) * var
    assert 0.0 <= res.pseudo_r_squared < 1.0


SPEC = SessionSpec(dt.time(7, 0), dt.time(16, 0), TZ, 300)


def _index(hh, mm):
    """Grid index of the 5-minute interval holding hh:mm in a 07:00 session."""
    return ((hh - 7) * 60 + mm) // 5


def test_histogram_binning_rule():
    indices = [_index(7, 31), _index(7, 45), _index(13, 5)]
    starts, counts = ev.intraday_histogram(indices, 30, SPEC)
    assert sum(counts) == 3
    assert counts[starts.index("07:30:00")] == 2
    assert counts[starts.index("13:00:00")] == 1
    assert len(starts) == 18
    assert starts[0] == "07:00:00" and starts[-1] == "15:30:00"


def test_histogram_trivials_and_errors():
    _, counts = ev.intraday_histogram([], 30, SPEC)
    assert not any(counts)
    triple = [_index(9, 1), _index(9, 14), _index(9, 29)]
    _, counts = ev.intraday_histogram(triple, 30, SPEC)
    assert max(counts) == 3 and sum(counts) == 3


@given(st.lists(st.integers(min_value=0, max_value=9 * 12 - 1), max_size=40))
def test_histogram_conserves_counts(indices):
    _, counts = ev.intraday_histogram(indices, 15, SPEC)
    assert sum(counts) == len(indices)


def test_classify_shift_rotation_pairs():
    assert ev.classify_shift_rotation((0.004, 0.002)) == "UpShift"
    assert ev.classify_shift_rotation((-0.004, -0.002)) == "DownShift"
    assert ev.classify_shift_rotation((0.004, -0.002)) == "Rotation"


@pytest.mark.parametrize("m", [2, 3, 4])
def test_classify_all_sign_patterns(m):
    for mask in range(2**m):
        signs = [1.0 if mask & (1 << k) else -1.0 for k in range(m)]
        sizes = [s * 0.003 * (k + 1) for k, s in enumerate(signs)]
        label = ev.classify_shift_rotation(sizes)
        if all(s > 0 for s in signs):
            assert label == "UpShift"
        elif all(s < 0 for s in signs):
            assert label == "DownShift"
        else:
            assert label == "Rotation"


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=5),
)
def test_classify_scaling_invariance(c, signs):
    sizes = [s * 0.01 for s in signs]
    assert ev.classify_shift_rotation(sizes) == ev.classify_shift_rotation(
        [c * s for s in sizes]
    )


def _shift_rotation_rows(day_labels, announcement_dates, sample_dates):
    """shift_rotation_table's rows, each keyed by shift_rotation.csv's header past its tuple."""
    return [dict(zip(ev._TABLES["shift_rotation.csv"][1:], row))
            for row in ev.shift_rotation_table(day_labels, announcement_dates, sample_dates)]


def test_shift_rotation_table_percentages():
    # 106 announcement days, 37 of them rotations
    ann_dates = [dt.date(2016, 1, 1) + dt.timedelta(days=k) for k in range(106)]
    quiet_dates = [dt.date(2017, 1, 1) + dt.timedelta(days=k) for k in range(50)]
    labels = {d: "Rotation" for d in ann_dates[:37]}
    labels[quiet_dates[0]] = "UpShift"
    rows = _shift_rotation_rows(labels, set(ann_dates), ann_dates + quiet_dates)
    ann = next(r for r in rows if r["segment"] == "announcement")
    assert ann["n_rotation"] == 37
    assert ann["n_segment_days"] == 106
    assert round(ann["pct_rotation"], 2) == 34.91
    assert ann["n_days_cj"] == 37
    quiet = next(r for r in rows if r["segment"] == "non_announcement")
    assert quiet["n_up_shift"] == 1
    assert quiet["pct_up_shift"] == pytest.approx(2.0)
    assert quiet["n_rotation"] == 0


def test_shift_rotation_table_empty_and_errors():
    ann = {dt.date(2017, 3, 15)}
    rows = _shift_rotation_rows({}, ann, [dt.date(2017, 3, 15), dt.date(2017, 3, 16)])
    assert all(r["n_days_cj"] == 0 for r in rows)
    assert all(r["pct_rotation"] == 0.0 for r in rows)


def test_write_histogram_schema(tmp_path):
    starts, counts = ev.intraday_histogram([_index(9, 1)], 30, SPEC)
    path = tmp_path / "hist.csv"
    ev.write_histogram(starts, counts, path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["bin_start", "count"]
    assert rows[1][0] == "07:00:00"
    assert sum(int(r[1]) for r in rows[1:]) == 1


def _per_table_writers(out, decomps, event_indices, labels_by_tuple, announcements, spec,
                       bin_minutes):
    """report's five tables as four per-table writers and write_histogram wrote them, each
    table written before the next one's rows are built."""
    def fit_rows(rows, fields):
        for pair, res in rows:
            yield ["-".join(pair), *(None if res is None else getattr(res, f) for f in fields)]

    write_csv(out / "cj_qv_share.csv", ["pair", "days_cj", "qv_total", "pct_cj_qv"],
              ev.cj_qv_summary(decomps))
    by_pair: dict = {}
    for rec in decomps:
        by_pair.setdefault(rec.pair, []).append(rec)
    degenerate = []
    fits = {"correlation_regression": [], "announcement_logit": []}
    news_dates = announcements or frozenset()
    for pair in sorted(by_pair):
        recs = by_pair[pair]
        finite = [r for r in recs if np.isfinite(r.corr_total) and np.isfinite(r.corr_cont)]
        for table, fit, args in (
            ("correlation_regression", ev.correlation_impact_regression,
             ([r.corr_total for r in finite], [r.corr_cont for r in finite])),
            ("announcement_logit", ev.announcement_logit,
             ([1.0 if r.classification == "co_jump" else 0.0 for r in recs],
              [1.0 if r.date in news_dates else 0.0 for r in recs])),
        ):
            try:
                res = fit(*args)
            except ev.DegenerateFit as exc:
                res = None
                degenerate.append([table, "-".join(pair), str(exc)])
            fits[table].append((pair, res))
    fields = ("alpha", "beta", "r_squared", "wald_p")
    write_csv(out / "correlation_regression.csv", ["pair", *fields],
              fit_rows(fits["correlation_regression"], fields))
    fields = ("beta0", "beta1", "se_beta0", "se_beta1", "pseudo_r_squared")
    write_csv(out / "announcement_logit.csv", ["pair", *fields],
              fit_rows(fits["announcement_logit"], fields))
    sample_dates = sorted({r.date for r in decomps})
    rows_by_tuple = [(name, ev.shift_rotation_table(labels_by_tuple[name], news_dates,
                                                    sample_dates))
                     for name in sorted(labels_by_tuple)]  # no block: no announcement day
    fields = ("segment n_rotation pct_rotation n_up_shift pct_up_shift n_down_shift "
              "pct_down_shift n_days_cj pct_days_cj n_segment_days").split()
    write_csv(out / "shift_rotation.csv", ["tuple", *fields],
              ([name, *row] for name, rows in rows_by_tuple for row in rows))
    bin_starts, counts = ev.intraday_histogram(event_indices, bin_minutes, spec)
    ev.write_histogram(bin_starts, counts, out / "histogram.csv")
    return sorted(degenerate)


@pytest.mark.parametrize("run", ["golden", "two_leg"])
def test_write_report_matches_the_per_table_writers(tmp_path, monkeypatch, run):
    """One writer that writes once every row is built writes the bytes of the per-table
    writers: on the golden run, and on a two-leg run with a failed day (two days left, so
    both fits are degenerate), a tuple and no announcements block."""
    if run == "golden":
        cfg = Path(__file__).parent / "golden" / "config.json"
    else:
        cfg = _write_config(tmp_path, announcements=None, tuples=[["TU", "FV"]])
        _fail_days(monkeypatch, 13)
    calls = []
    write_report = ev.write_report
    monkeypatch.setattr(ev, "write_report", lambda *args: calls.append(args) or [])
    for stage in ("simulate", "decompose", "report"):
        assert cli.main([stage, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0
    [(_, *args)] = calls
    results = {}
    for folder, write in (("one_pass", write_report), ("per_table", _per_table_writers)):
        (tmp_path / folder).mkdir()
        results[folder] = write(tmp_path / folder, *args)
    assert results["one_pass"] == results["per_table"]
    headers = {
        "cj_qv_share.csv": ["pair", "days_cj", "qv_total", "pct_cj_qv"],
        "correlation_regression.csv": ["pair", "alpha", "beta", "r_squared", "wald_p"],
        "announcement_logit.csv": ["pair", "beta0", "beta1", "se_beta0", "se_beta1",
                                   "pseudo_r_squared"],
        "shift_rotation.csv": ["tuple", "segment", "n_rotation", "pct_rotation"],
        "histogram.csv": ["bin_start", "count"],
    }
    for name, header in headers.items():
        one_pass = (tmp_path / "one_pass" / name).read_bytes()
        assert one_pass == (tmp_path / "per_table" / name).read_bytes(), name
        rows = list(csv.reader(one_pass.decode().splitlines()))
        assert rows[0][:len(header)] == header, name
        assert len(rows) > 1, name
    if run == "golden":
        assert results["one_pass"] == []
        return
    assert results["one_pass"] == [
        ["announcement_logit", "TU-FV", "news indicator is constant; no contrast"],
        ["correlation_regression", "TU-FV", "need at least 3 paired observations"],
    ]
    for name, blank in (("correlation_regression.csv", "TU-FV,,,,"),
                        ("announcement_logit.csv", "TU-FV,,,,,")):
        assert (tmp_path / "one_pass" / name).read_text().splitlines()[1:] == [blank]
    assert (tmp_path / "one_pass" / "shift_rotation.csv").read_text().splitlines()[1:] == [
        "TU-FV,announcement,0,0.0,0,0.0,0,0.0,0,0.0,0",
        "TU-FV,non_announcement,0,0.0,1,50.0,0,0.0,1,50.0,2"]  # the UpShift of 03-14
