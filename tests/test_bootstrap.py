"""Discontinuity test: null simulation, studentized statistic, and the day label
that the pipeline gives its verdict."""

import csv
import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cojump import bootstrap, events, jumps, jwc, pipeline
from cojump.ticks import SessionSpec

N = 540
CFG = jwc.JwcConfig(g_spacing=5)


def _run_day(seed, jump_spec=(), b_reps=199):
    """One synthetic day-pair through detection, IC, and the test."""
    r_1, r_2 = next(bootstrap.simulate_null_day(
        1e-4, 1.44e-4, 0.5, N, np.random.default_rng(seed)
    ))
    r_1, r_2 = r_1.copy(), r_2.copy()
    for leg, idx, size in jump_spec:
        (r_1 if leg == 0 else r_2)[idx] += size
    j_1, j_2 = jumps.haar_detect(r_1), jumps.haar_detect(r_2)
    adjusted = np.vstack([jumps.adjust_returns(r_1, j_1), jumps.adjust_returns(r_2, j_2)])
    ic = jwc.jwc_integrated_covariance(adjusted, CFG)
    out = bootstrap.bootstrap_statistic(
        r_1, r_2, ic.values, CFG, b_reps=b_reps, alpha=0.05, seed=seed
    )
    return out, j_1, j_2


def _label(out, j_1, j_2):
    """The pipeline's day label for a test outcome and the pair's jumps."""
    return pipeline.classify(out.rejected, jumps.cojump_variation(j_1, j_2)[1], j_1, j_2)


def _rebuild(seed, jump_spec, b_reps, j_1, j_2):
    """A _run_day call's raw legs, IC block and null Z* rebuilt from its seed.

    Z* is rebuilt from default_rng(seed).standard_normal((2, B, N)), the
    one draw the statistic's seed stands for.
    """
    r_1, r_2 = next(bootstrap.simulate_null_day(1e-4, 1.44e-4, 0.5, N, np.random.default_rng(seed)))
    for leg, idx, size in jump_spec:
        (r_1 if leg == 0 else r_2)[idx] += size
    adjusted = np.vstack([jumps.adjust_returns(r_1, j_1), jumps.adjust_returns(r_2, j_2)])
    ic = jwc.jwc_integrated_covariance(adjusted, CFG).values
    rho = min(0.999, max(-0.999, ic[0, 1] / math.sqrt(ic[0, 0] * ic[1, 1])))
    eta = np.random.default_rng(seed).standard_normal((2, b_reps, N))
    s_1 = math.sqrt(ic[0, 0] / N) * eta[0]
    s_2 = math.sqrt(ic[1, 1] / N) * (rho * eta[0] + math.sqrt(1.0 - rho * rho) * eta[1])
    qv_star = np.einsum("bi,bi->b", s_1, s_2)
    z_star = (qv_star - jwc.jwc_pair_entry(s_1, s_2, CFG.resolve(N))) / qv_star
    return r_1, r_2, ic, z_star


def test_critical_value():
    assert bootstrap.critical_value(0.05) == pytest.approx(1.959964, abs=1e-5)
    assert bootstrap.critical_value(0.01) == pytest.approx(2.575829, abs=1e-5)
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            bootstrap.critical_value(bad)


def test_null_day_rho_one_proportional():
    r_1, r_2 = next(bootstrap.simulate_null_day(1e-4, 4e-4, 1.0, 64, 3))
    assert r_2 == pytest.approx(2.0 * r_1, rel=1e-12)


def test_null_day_zero_diag_zero_series():
    r_1, r_2 = next(bootstrap.simulate_null_day(0.0, 1e-4, 0.3, 64, 3))
    assert np.all(r_1 == 0.0)
    assert np.any(r_2 != 0.0)


def test_null_day_moments():
    rng = np.random.default_rng(77)
    r_1, r_2 = next(bootstrap.simulate_null_day(1e-4, 1.44e-4, 0.6, 100_000, rng))
    assert np.corrcoef(r_1, r_2)[0, 1] == pytest.approx(0.6, abs=0.01)
    assert float(np.var(r_1)) * 100_000 == pytest.approx(1e-4, rel=0.02)
    assert float(np.var(r_2)) * 100_000 == pytest.approx(1.44e-4, rel=0.02)


# B = 999 at N = 540 is 33 blocks of 30 rows and one of 9
@pytest.mark.parametrize("shape, rows", [
    ((999, 540), [30] * 33 + [9]),
    ((100, 64), [100]),
    (100_000, [100_000]),
], ids=["b999-n540", "b100-n64", "one-day-n100000"])
def test_null_blocks_are_one_whole_draw_bit_for_bit(shape, rows):
    """Stacked, the blocks equal one standard_normal((2, B, N)) correlated and scaled in place."""
    diag_1, diag_2, rho, seed = 1e-4, 1.44e-4, -0.37, 11
    blocks = list(bootstrap.simulate_null_day(diag_1, diag_2, rho, shape, seed))
    assert [len(r_1) for r_1, _ in blocks] == rows
    r_1, r_2 = np.random.default_rng(seed).standard_normal((2, *np.atleast_1d(shape)))
    n = r_1.shape[-1]
    r_2 *= math.sqrt(1.0 - rho * rho)
    r_2 += rho * r_1
    r_2 *= math.sqrt(diag_2 / n)
    r_1 *= math.sqrt(diag_1 / n)
    for leg, expected in enumerate((r_1, r_2)):
        assert np.array_equal(np.concatenate([block[leg] for block in blocks]), expected)


@pytest.mark.parametrize("g", [5, pytest.param(None, id="default")])
def test_statistic_peak_memory_stays_blocked(g):
    """One B = 999, N = 540 test peaks at 7 MiB or less: leg 1 whole and one block at a time."""
    cfg = jwc.JwcConfig(g_spacing=g)
    r_1, r_2 = next(bootstrap.simulate_null_day(1e-4, 1.44e-4, 0.5, N, 5))
    j_1, j_2 = jumps.haar_detect(r_1), jumps.haar_detect(r_2)
    adjusted = np.vstack([jumps.adjust_returns(r_1, j_1), jumps.adjust_returns(r_2, j_2)])
    ic = jwc.jwc_integrated_covariance(adjusted, cfg).values
    tracemalloc.start()
    try:
        out = bootstrap.bootstrap_statistic(r_1, r_2, ic, cfg, b_reps=999, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.inconclusive
    assert peak <= 7 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_null_day_validation():
    with pytest.raises(ValueError, match="rho"):
        bootstrap.simulate_null_day(1e-4, 1e-4, 1.5, 16, 0)
    with pytest.raises(ValueError, match="non-negative"):
        bootstrap.simulate_null_day(-1e-4, 1e-4, 0.5, 16, 0)


def test_null_day_deterministic():
    a = next(bootstrap.simulate_null_day(1e-4, 2e-4, 0.4, 32, 123))
    b = next(bootstrap.simulate_null_day(1e-4, 2e-4, 0.4, 32, 123))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_quiet_day_accepts():
    out, j_1, j_2 = _run_day(0)
    assert j_1.count == 0 and j_2.count == 0
    assert not out.rejected
    assert not out.inconclusive
    assert _label(out, j_1, j_2) == "no_discontinuity"
    # bootstrap centering reflects the estimator's partition deficit nbar_G/n_S
    z_star = _rebuild(0, (), 199, j_1, j_2)[3]
    assert float(np.mean(z_star)) == pytest.approx((536 / 5) / 540, abs=0.05)


def test_common_jump_rejects_as_co_jump():
    out, j_1, j_2 = _run_day(0, [(0, 200, 0.05), (1, 200, 0.06)])
    assert j_1.jump_indices.tolist() == [200]
    assert j_2.jump_indices.tolist() == [200]
    assert out.rejected
    assert _label(out, j_1, j_2) == "co_jump"
    assert out.z > bootstrap.critical_value(0.05)


def test_disjoint_jumps_reject_as_disjoint_only():
    out, j_1, j_2 = _run_day(1, [(0, 100, 0.05), (1, 400, -0.06)])
    assert j_1.jump_indices.tolist() == [100]
    assert j_2.jump_indices.tolist() == [400]
    assert out.rejected
    assert _label(out, j_1, j_2) == "disjoint_only"


def test_detected_jump_without_rejection_is_no_discontinuity():
    out, j_1, j_2 = _run_day(0, [(0, 100, 0.08)])
    assert j_1.count == 1 and j_2.count == 0
    assert not out.rejected
    assert _label(out, j_1, j_2) == "no_discontinuity"


def test_rejection_matches_p_value():
    for seed, spec in [(0, ()), (0, [(0, 200, 0.05), (1, 200, 0.06)]), (4, ())]:
        out, _, _ = _run_day(seed, spec)
        assert out.rejected == (out.p_value < out.alpha)
        assert 0.0 <= out.p_value <= 1.0


def test_statistic_deterministic():
    a, _, _ = _run_day(0, [(0, 200, 0.05), (1, 200, 0.06)])
    b, _, _ = _run_day(0, [(0, 200, 0.05), (1, 200, 0.06)])
    assert a == b


def test_statistic_null_is_one_draw_of_shape_2_b_n():
    """bootstrap_statistic(seed=s) uses default_rng(s).standard_normal((2, B, N)).

    Z is studentized by the moments of that draw's Z*, bit for bit.
    """
    b_reps, seed, spec = 150, 2024, [(0, 200, 0.05)]
    out, j_1, j_2 = _run_day(seed, spec, b_reps=b_reps)
    r_1, r_2, ic, z_star = _rebuild(seed, spec, b_reps, j_1, j_2)
    qv = jumps.realized_covariance(r_1, r_2)
    mean, sd = float(np.mean(z_star)), float(np.std(z_star, ddof=1))
    assert out.seed == seed
    assert out.z == ((qv - ic[0, 1]) / qv - mean) / sd
    assert mean == pytest.approx((536 / 5) / 540, abs=0.05)


def test_minimum_replications_enforced():
    with pytest.raises(ValueError, match="100"):
        _run_day(0, b_reps=99)


def test_zero_qv_inconclusive():
    n = 64
    zero = np.zeros(n)
    j = jumps.JumpSeries(jump_sizes=np.zeros(n), threshold=0.0, degenerate=True)
    ic = jwc.jwc_integrated_covariance(np.vstack([zero, zero]), CFG)
    out = bootstrap.bootstrap_statistic(zero, zero, ic.values, CFG, b_reps=150)
    assert out.inconclusive
    assert not out.rejected
    assert math.isnan(out.z) and math.isnan(out.p_value)
    assert _label(out, j, j) == "no_discontinuity"


def test_zero_diagonal_inconclusive():
    rng = np.random.default_rng(8)
    r_1 = rng.standard_normal(N) * 1e-3
    r_2 = rng.standard_normal(N) * 1e-3
    j = jumps.JumpSeries(jump_sizes=np.zeros(N), threshold=1.0)
    # one leg fully suppressed: its IC diagonal is exactly zero
    ic = jwc.jwc_integrated_covariance(np.vstack([np.zeros(N), r_2]), CFG)
    assert ic.values[0, 0] == 0.0
    out = bootstrap.bootstrap_statistic(r_1, r_2, ic.values, CFG, b_reps=150)
    assert out.inconclusive


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.sets(st.integers(0, 15)), st.sets(st.integers(0, 15)))
def test_classify_matches_intersect1d(rejected, indices_1, indices_2):
    """A rejection with a shared index is a co-jump exactly where np.intersect1d is non-empty."""
    a, b = (jumps.JumpSeries(jump_sizes=[0.01 if i in idx else 0.0 for i in range(16)],
                             threshold=0.001) for idx in (indices_1, indices_2))
    if not rejected:
        expected = "no_discontinuity"
    elif np.intersect1d(a.jump_indices, b.jump_indices).size > 0:
        expected = "co_jump"
    else:
        expected = "disjoint_only" if a.count or b.count else "no_discontinuity"
    assert pipeline.classify(rejected, jumps.cojump_variation(a, b)[1], a, b) == expected


def test_write_outcomes_schema(tmp_path):
    """outcomes.csv as decompose writes it: one row per day and pair."""
    runs = {5: _run_day(0, [(0, 200, 0.05), (1, 200, 0.06)]), 6: _run_day(0)}
    out = runs[5][0]
    pair = ("AAA", "BBB")
    days = [  # the label is the decomposition's, as process_day sets it
        pipeline.DayResult(
            date=dt.date(2026, 1, day), jump_series={}, outcomes={pair: run[0]},
            decomps=[events.DayDecomposition(dt.date(2026, 1, day), pair, qv=1.0, ic=1.0,
                                             cj=0.0, classification=_label(*run))])
        for day, run in runs.items()
    ]
    with pipeline.Tables(tmp_path, SessionSpec(dt.time(7), dt.time(16), "UTC", 60)) as tables:
        for day in days:
            tables.write_day(day)
    path = tmp_path / "outcomes.csv"
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["date", "pair", "Z", "p", "rejected", "classification", "B", "alpha", "seed"]
    assert rows[1][0] == "2026-01-05"
    assert rows[1][1] == "AAA-BBB"
    assert float(rows[1][2]) == out.z
    assert rows[1][4] == "1" and rows[2][4] == "0"
    assert rows[1][5] == "co_jump"
    assert rows[2][5] == "no_discontinuity"
    assert rows[1][6] == "199"
