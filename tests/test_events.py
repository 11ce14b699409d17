"""Report-stage aggregation: summaries, regressions, histograms, labels."""

import csv
import datetime as dt
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cojump import events as ev
from cojump.ticks import SessionSpec

TZ = "America/Chicago"


def _decomp(date, pair=("A", "B"), qv=1.0, ic=1.0, cj=0.0,
            classification="no_discontinuity", events=()):
    return ev.DayDecomposition(
        date=date, pair=pair, qv=qv, ic=ic, cj=cj,
        classification=classification, events=events,
    )


def _cj_day(date, index, sizes, pair=("A", "B"), qv=1.0):
    event = ev.CoJumpEvent(index=index, sizes=tuple(sizes))
    cj = math.prod(sizes)
    return _decomp(date, pair=pair, qv=qv, cj=cj, classification="co_jump",
                   events=(event,))


def test_day_decomposition_invariants():
    d = dt.date(2017, 3, 15)
    with pytest.raises(ValueError, match="co_jump"):
        _decomp(d, cj=1e-5)
    with pytest.raises(ValueError, match="co_jump"):
        _decomp(d, events=(ev.CoJumpEvent(3, (0.1, 0.1)),))
    _cj_day(d, 3, (0.1, 0.1))  # consistent record accepted


def test_cj_qv_summary_trivials():
    d0 = dt.date(2017, 3, 15)
    quiet = [_decomp(d0, qv=2.0), _decomp(dt.date(2017, 3, 16), qv=3.0)]
    rows = ev.cj_qv_summary(quiet)
    assert rows[0]["days_cj"] == 0
    assert rows[0]["pct_cj_qv"] == 0.0
    assert rows[0]["qv_total"] == 5.0

    full = [_cj_day(d0, 10, (1.0, 1.0), qv=1.0)]
    rows = ev.cj_qv_summary(full)
    assert rows[0]["days_cj"] == 1
    assert rows[0]["pct_cj_qv"] == pytest.approx(100.0)


def test_cj_qv_summary_mean_skips_zero_qv():
    d = [dt.date(2017, 3, 15 + k) for k in range(3)]
    recs = [
        _cj_day(d[0], 1, (0.2, 0.2), qv=0.08),  # ratio 50%
        _decomp(d[1], qv=1.0),                                       # ratio 0%
        _decomp(d[2], qv=0.0),                                       # excluded
    ]
    rows = ev.cj_qv_summary(recs)
    assert rows[0]["pct_cj_qv"] == pytest.approx(25.0)
    assert rows[0]["days_cj"] == 1
    with pytest.raises(ValueError):
        ev.cj_qv_summary([])


def test_cj_qv_summary_sorted_by_pair():
    d = dt.date(2017, 3, 15)
    recs = [_decomp(d, pair=("B", "C")), _decomp(d, pair=("A", "B"))]
    rows = ev.cj_qv_summary(recs)
    assert [r["pair"] for r in rows] == [("A", "B"), ("B", "C")]


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
    with pytest.raises(ValueError, match="equal-length"):
        ev.correlation_impact_regression(x, x[:5])
    with pytest.raises(ValueError, match="3"):
        ev.correlation_impact_regression(x[:2], x[:2])
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ev.correlation_impact_regression(bad, x)


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
    assert res.loglik < 0.0

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
    with pytest.raises(ev.CompleteSeparation, match="constant"):
        ev.announcement_logit(y, np.zeros_like(y))
    sep_y = x.copy()  # co-jump exactly on news days
    with pytest.raises(ev.CompleteSeparation, match="cell"):
        ev.announcement_logit(sep_y, x)
    with pytest.raises(ValueError, match="0/1"):
        ev.announcement_logit(y + 0.5, x)
    with pytest.raises(ValueError, match="classes"):
        ev.announcement_logit(np.ones_like(y), x)
    with pytest.raises(ValueError, match="equal-length"):
        ev.announcement_logit(y, x[:-1])


SPEC = SessionSpec(dt.time(7, 0), dt.time(16, 0), TZ, 300)


def _index(hh, mm):
    """Grid index of the 5-minute interval holding hh:mm in a 07:00 session."""
    return ((hh - 7) * 60 + mm) // 5


def test_histogram_binning_rule():
    indices = [_index(7, 31), _index(7, 45), _index(13, 5)]
    starts, counts = ev.intraday_histogram(indices, 30, SPEC)
    assert counts.sum() == 3
    assert counts[starts.index("07:30:00")] == 2
    assert counts[starts.index("13:00:00")] == 1
    assert len(starts) == 18
    assert starts[0] == "07:00:00" and starts[-1] == "15:30:00"


def test_histogram_trivials_and_errors():
    _, counts = ev.intraday_histogram([], 30, SPEC)
    assert np.all(counts == 0)
    triple = [_index(9, 1), _index(9, 14), _index(9, 29)]
    _, counts = ev.intraday_histogram(triple, 30, SPEC)
    assert counts.max() == 3 and counts.sum() == 3
    with pytest.raises(ValueError, match="divide"):
        ev.intraday_histogram([], 7, SPEC)
    with pytest.raises(ValueError, match="outside"):
        ev.intraday_histogram([SPEC.n_intervals], 30, SPEC)
    with pytest.raises(ValueError, match="outside"):
        ev.intraday_histogram([-1], 30, SPEC)


@given(st.lists(st.integers(min_value=0, max_value=9 * 12 - 1), max_size=40))
def test_histogram_conserves_counts(indices):
    _, counts = ev.intraday_histogram(indices, 15, SPEC)
    assert counts.sum() == len(indices)


def test_classify_shift_rotation_pairs():
    assert ev.classify_shift_rotation((0.004, 0.002)) == "UpShift"
    assert ev.classify_shift_rotation((-0.004, -0.002)) == "DownShift"
    assert ev.classify_shift_rotation((0.004, -0.002)) == "Rotation"
    with pytest.raises(ValueError, match="zero"):
        ev.classify_shift_rotation((0.004, 0.0))
    with pytest.raises(ValueError, match="two members"):
        ev.classify_shift_rotation((0.004,))


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


def test_shift_rotation_table_percentages():
    # 106 announcement days, 37 of them rotations
    ann_dates = [dt.date(2016, 1, 1) + dt.timedelta(days=k) for k in range(106)]
    quiet_dates = [dt.date(2017, 1, 1) + dt.timedelta(days=k) for k in range(50)]
    labels = {d: "Rotation" for d in ann_dates[:37]}
    labels[quiet_dates[0]] = "UpShift"
    rows = ev.shift_rotation_table(labels, set(ann_dates), ann_dates + quiet_dates)
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
    rows = ev.shift_rotation_table({}, ann, [dt.date(2017, 3, 15), dt.date(2017, 3, 16)])
    assert all(r["n_days_cj"] == 0 for r in rows)
    assert all(r["pct_rotation"] == 0.0 for r in rows)
    with pytest.raises(ValueError, match="unknown label"):
        ev.shift_rotation_table(
            {dt.date(2017, 3, 15): "Sideways"}, ann, [dt.date(2017, 3, 15)]
        )


def test_table_writers_schemas(tmp_path):
    d = dt.date(2017, 3, 15)
    summary = ev.cj_qv_summary([_cj_day(d, 10, (0.01, 0.02), qv=0.004)])
    path = tmp_path / "t3.csv"
    ev.write_cj_qv_table(summary, path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["pair", "days_cj", "qv_total", "pct_cj_qv"]
    assert rows[1][0] == "A-B"

    x = np.linspace(0.1, 0.9, 20)
    rng = np.random.default_rng(1)
    res = ev.correlation_impact_regression(x + rng.standard_normal(20) * 0.01, x)
    path = tmp_path / "t4.csv"
    ev.write_regression_table([(("A", "B"), res), (("A", "C"), None)], path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["pair", "alpha", "beta", "r_squared", "wald_p"]
    assert float(rows[1][2]) == res.beta
    assert rows[2] == ["A-C", "", "", "", ""]

    y, xn = _indicator_panel(0.5, 0.1)
    logit = ev.announcement_logit(y, xn)
    path = tmp_path / "t5.csv"
    ev.write_logit_table([(("A", "B"), logit)], path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["pair", "beta0", "beta1", "se_beta0", "se_beta1", "pseudo_r_squared"]
    assert float(rows[1][1]) == logit.beta0

    table = ev.shift_rotation_table({d: "UpShift"}, {d}, [d])
    path = tmp_path / "t6.csv"
    ev.write_shift_rotation_table([("A-B", table)], path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0][:4] == ["tuple", "segment", "n_rotation", "pct_rotation"]
    assert rows[1][0] == "A-B"

    starts, counts = ev.intraday_histogram([_index(9, 1)], 30, SPEC)
    path = tmp_path / "hist.csv"
    ev.write_histogram(starts, counts, path)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["bin_start", "count"]
    assert rows[1][0] == "07:00:00"
    assert sum(int(r[1]) for r in rows[1:]) == 1
