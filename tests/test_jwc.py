"""Two-scale wavelet covariance estimator tests.

The closed-form two-scale covariance is checked against a plain-python
re-aggregation oracle for the subsample grids, against the summed
per-scale MODWT products it replaces, and against the exact rational
value of the same formula.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cojump import jumps, jwc, modwt, pipeline
from conftest import seeded


def oracle_coarse_series(returns, spacing, offset):
    """Sparse-grid block sums with the open and close always on the grid."""
    n = len(returns)
    bounds = sorted({0, n} | {b for b in range(offset - 1, n + 1, spacing)})
    return [sum(returns[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def oracle_subsampled_rc(r1, r2, spacing):
    """Offset-averaged coarse realized covariance, pure python."""
    total = 0.0
    for g in range(1, spacing + 1):
        c1 = oracle_coarse_series(list(r1), spacing, g)
        c2 = oracle_coarse_series(list(r2), spacing, g)
        total += sum(a * b for a, b in zip(c1, c2))
    return total / spacing


def oracle_two_scale(r1, r2, res):
    """c_N * (RC_G - (nbar_G / n_S) * RC_S) from the pure-python oracle."""
    slow = oracle_subsampled_rc(r1, r2, res.g_spacing)
    fast = oracle_subsampled_rc(r1, r2, res.s_spacing)
    return res.c_n * (slow - res.subsample_ratio * fast)


def exact_two_scale(r1, r2, g_spacing):
    """The S = 1, c_N = 1 two-scale covariance in exact rational arithmetic."""
    n = len(r1)
    x1 = [Fraction(float(v)) for v in r1]
    x2 = [Fraction(float(v)) for v in r2]
    slow = Fraction(0)
    for g in range(1, g_spacing + 1):
        c1 = oracle_coarse_series(x1, g_spacing, g)
        c2 = oracle_coarse_series(x2, g_spacing, g)
        slow += sum(a * b for a, b in zip(c1, c2))
    slow /= g_spacing
    fast = sum(a * b for a, b in zip(x1, x2))
    ratio = Fraction(n - g_spacing + 1, g_spacing) / n
    return slow - ratio * fast


# --- defaults and configuration ---


def test_default_g_spacing_rule():
    assert jwc.default_g_spacing(540) == 66
    assert jwc.default_g_spacing(1000) == 100
    assert jwc.default_g_spacing(2) == 2  # floor of the rule


def test_resolve_defaults():
    res = jwc.JwcConfig().resolve(540)
    assert res.g_spacing == 66
    assert res.s_spacing == 1
    assert res.c_n == 1.0
    assert res.n == 540


def test_resolve_validation():
    with pytest.raises(ValueError, match="S <= G"):
        jwc.JwcConfig(s_spacing=5, g_spacing=3).resolve(100)
    with pytest.raises(ValueError, match="strictly smaller"):
        jwc.JwcConfig(s_spacing=4, g_spacing=4).resolve(100)
    with pytest.raises(ValueError, match="no coarse return"):
        jwc.JwcConfig(g_spacing=60).resolve(100)
    # S = G = 1 is the sanctioned degenerate configuration
    assert jwc.JwcConfig(g_spacing=1).resolve(100).subsample_ratio == 1.0


def test_subsample_ratio_value():
    res = jwc.JwcConfig(g_spacing=5).resolve(540)
    assert res.subsample_ratio == pytest.approx((536 / 5) / 540, rel=1e-14)


# --- two-scale entry against the re-aggregation oracle ---


def test_subsampled_zero_returns():
    for g in (1, 2, 7):
        res = jwc.JwcConfig(g_spacing=g).resolve(32)
        assert jwc.jwc_pair_entry(np.zeros(32), np.zeros(32), res) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), g=st.integers(2, 9))
def test_scale_additivity_subsampled(seed, g):
    """The entry equals the summed-scale estimate: offset-averaged coarse RCs."""
    rng = seeded("addsub", seed)
    r1 = rng.standard_normal(64)
    r2 = rng.standard_normal(64)
    res = jwc.JwcConfig(g_spacing=g).resolve(64)
    entry = jwc.jwc_pair_entry(r1, r2, res)
    assert entry == pytest.approx(oracle_two_scale(r1, r2, res), rel=1e-10)


def test_scale_additivity_full_grid():
    """The fine-grid term is the plain realized covariance."""
    r1 = seeded("addfull", 1).standard_normal(540)
    r2 = seeded("addfull", 2).standard_normal(540)
    res = jwc.JwcConfig(g_spacing=5).resolve(540)
    slow = oracle_subsampled_rc(r1, r2, 5)
    expected = slow - res.subsample_ratio * jumps.realized_covariance(r1, r2)
    assert jwc.jwc_pair_entry(r1, r2, res) == pytest.approx(expected, rel=1e-10)


def test_depth_capped_offsets_keep_additivity():
    """Coarse grids of about 5 points (G = 13 on N = 64) still match the oracle."""
    rng = seeded("cap")
    r1 = rng.standard_normal(64)
    r2 = rng.standard_normal(64)
    res = jwc.JwcConfig(g_spacing=13, c_n=1.5).resolve(64)
    entry = jwc.jwc_pair_entry(r1, r2, res)
    assert entry == pytest.approx(oracle_two_scale(r1, r2, res), rel=1e-10)


@pytest.mark.parametrize("boundary", modwt.BOUNDARIES)
@pytest.mark.parametrize("name", ["haar", "d4"])
def test_closed_form_equals_wavelet_scale_sum(name, boundary):
    """The paper's per-scale MODWT products, summed, give the closed form."""
    rng = seeded("wavelet-sum", name, boundary)
    r1 = rng.standard_normal(48)
    r2 = rng.standard_normal(48)
    res = jwc.JwcConfig(g_spacing=3).resolve(48)
    filters = modwt.shipped_filters(name)
    terms = []
    for spacing in (res.g_spacing, res.s_spacing):
        total = 0.0
        for off in range(1, spacing + 1):
            c1 = np.asarray(oracle_coarse_series(r1, spacing, off))
            c2 = np.asarray(oracle_coarse_series(r2, spacing, off))
            depth = min(2, modwt.max_levels(c1.size, filters, boundary))
            d1 = modwt.modwt_forward(c1, filters, depth, boundary)
            d2 = modwt.modwt_forward(c2, filters, depth, boundary)
            total += float(d1.cross_products(d2).sum())
        terms.append(total / spacing)
    wavelet = terms[0] - res.subsample_ratio * terms[1]
    assert jwc.jwc_pair_entry(r1, r2, res) == pytest.approx(wavelet, rel=1e-10)


# --- integrated covariance matrix ---


def test_zero_returns_zero_matrix():
    ic = jwc.jwc_integrated_covariance(np.zeros((3, 128)), jwc.JwcConfig())
    assert np.all(ic.values == 0.0)
    assert not ic.floored.any()


def test_degenerate_bracket_exactly_zero():
    r = seeded("degen").standard_normal((2, 256))
    ic = jwc.jwc_integrated_covariance(r, jwc.JwcConfig(s_spacing=1, g_spacing=1))
    assert np.abs(ic.values).max() == 0.0


def test_matrix_exactly_symmetric():
    """Symmetric bit for bit without symmetrizing, on 200 random panels."""
    rng = seeded("sym")
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(16, 300))
        g = int(rng.integers(2, (n + 1) // 2 + 1))
        r = rng.standard_normal((d, n)) * 1e-3
        ic = jwc.jwc_integrated_covariance(r, jwc.JwcConfig(g_spacing=g))
        assert np.array_equal(ic.values, ic.values.T)
        assert ic.values.shape == (d, d)


def test_matrix_within_ulps_of_exact_two_scale():
    """Every entry within 32 ulps of the exact rational two-scale value.

    The legs' volatilities peak at opposite ends of the session, so the
    sum of |r_1 r_2| is small against |r_1| |r_2|. Block sums round in
    proportion to the former; a route whose rounding scales with the
    norms of the legs (an FFT cross-spectrum) is off by up to 180 ulps here.
    """
    t = np.arange(540) / 540
    vol = np.vstack([np.exp(-5.0 * t), np.exp(-5.0 * (1.0 - t))])
    worst = 0.0
    for k in range(12):
        r = 1e-3 * vol * seeded("exact", k).standard_normal((2, 540))
        ic = jwc.jwc_integrated_covariance(r, jwc.JwcConfig(g_spacing=5))
        for i, j in ((0, 1), (0, 0), (1, 1)):
            exact = exact_two_scale(r[i], r[j], 5)
            err = abs(Fraction(float(ic.values[i, j])) - exact)
            worst = max(worst, float(err) / math.ulp(float(exact)))
    assert worst <= 32.0, f"{worst:.1f} ulps"


def test_matrix_pair_entry_agrees():
    r = seeded("entry").standard_normal((2, 300)) * 1e-4
    cfg = jwc.JwcConfig(g_spacing=12)
    ic = jwc.jwc_integrated_covariance(r, cfg)
    entry = jwc.jwc_pair_entry(r[0], r[1], cfg.resolve(300))
    assert float(entry) == pytest.approx(ic.values[0, 1], rel=1e-12)


def test_bilinearity_in_one_instrument():
    r = seeded("bilin").standard_normal((2, 256)) * 1e-3
    cfg = jwc.JwcConfig(g_spacing=8)
    base = jwc.jwc_integrated_covariance(r, cfg)
    scaled_input = r.copy()
    scaled_input[0] *= 3.0
    scaled = jwc.jwc_integrated_covariance(scaled_input, cfg)
    assert scaled.values[0, 1] == pytest.approx(3.0 * base.values[0, 1], rel=1e-12)
    assert scaled.values[1, 0] == pytest.approx(3.0 * base.values[1, 0], rel=1e-12)
    assert scaled.values[1, 1] == pytest.approx(base.values[1, 1], rel=1e-12)
    if not (base.floored[0] or scaled.floored[0]):
        assert scaled.values[0, 0] == pytest.approx(9.0 * base.values[0, 0], rel=1e-12)


def test_diagonal_floor_flag():
    # a pure high-frequency alternating series makes the two-scale
    # difference negative on the diagonal: slow-grid blocks cancel
    r = np.tile([1e-3, -1e-3], 64)[None, :]
    ic = jwc.jwc_integrated_covariance(r, jwc.JwcConfig(g_spacing=2))
    assert ic.values[0, 0] == 0.0
    assert bool(ic.floored[0])


# 5 rows, and more rows than four of the bootstrap's row blocks at N = 128
@pytest.mark.parametrize("b", [5, 2 * (2**15 // 128) + 7])
@pytest.mark.parametrize("g", [6, 9, 40])
def test_batched_pair_entry_matches_loop(g, b):
    cfg = jwc.JwcConfig(g_spacing=g)
    res = cfg.resolve(128)
    rng = seeded("batch")
    r1 = rng.standard_normal((b, 128))
    r2 = rng.standard_normal((b, 128))
    batched = jwc.jwc_pair_entry(r1, r2, res)
    assert batched.shape == (b,)
    for k in range(b):
        single = jwc.jwc_pair_entry(r1[k], r2[k], res)
        assert float(batched[k]) == pytest.approx(float(single), rel=1e-14)


@pytest.mark.parametrize("n", [540, 541])
@pytest.mark.parametrize("g", [2, 3, 9, 66])
def test_batched_pair_entry_within_ulps_of_exact_two_scale(g, n):
    """Each row of a 3-row batch within 32 ulps of the exact rational value.

    The rows are the first three opposite-peak days of the matrix test,
    drawn at length N; these G and N give every set of head and tail
    lengths, and windows of 8 or more returns. Their sums of absolute
    block products are at most 225 times the result; on rows where that
    ratio is in the thousands, both estimators drift past 32 ulps.
    """
    t = np.arange(n) / n
    vol = np.vstack([np.exp(-5.0 * t), np.exp(-5.0 * (1.0 - t))])
    days = [1e-3 * vol * seeded("exact", k).standard_normal((2, n)) for k in range(3)]
    r = np.stack(days, axis=1)
    entries = jwc.jwc_pair_entry(r[0], r[1], jwc.JwcConfig(g_spacing=g).resolve(n))
    worst = 0.0
    for entry, r1, r2 in zip(entries, r[0], r[1]):
        exact = exact_two_scale(r1, r2, g)
        err = abs(Fraction(float(entry)) - exact)
        worst = max(worst, float(err) / math.ulp(float(exact)))
    assert worst <= 32.0, f"{worst:.1f} ulps"


# --- Monte Carlo calibration examples (frozen master seeds) ---


def test_d1_mean_within_2pct():
    """Variance estimate on Brownian days, default config, 500 seeds."""
    n, sig = 540, 1e-4
    vals = np.empty(500)
    for k in range(500):
        r = sig * np.random.default_rng(np.random.SeedSequence((4, k))).standard_normal(n)
        vals[k] = jwc.jwc_integrated_covariance(r[None, :], jwc.JwcConfig()).values[0, 0]
    assert abs(vals.mean() / (n * sig * sig) - 1.0) < 0.02


def test_subsampled_total_unbiased_g5_g10():
    """With c_N = 1 / (1 - nbar_G/n_S) the entry stays within 3 MC SE of true IC."""
    from cojump import sim

    truth = 0.5 * 0.01 * 0.012
    sc = sim.SimScenario(
        n_intervals=540, n_days=500, sigma=(0.01, 0.012), mu=0.0, rho=0.5,
        noise_sd=0.0, jumps=(), seed=2, vol_pattern="flat",
    )
    observed = np.stack([d.observed for d in sim.simulate(sc)])
    for g in (5, 10):
        ratio = jwc.JwcConfig(g_spacing=g).resolve(540).subsample_ratio
        res = jwc.JwcConfig(g_spacing=g, c_n=1.0 / (1.0 - ratio)).resolve(540)
        vals = jwc.jwc_pair_entry(observed[:, 0], observed[:, 1], res)
        assert vals.shape == (500,)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - truth) <= 3.0 * se


# --- continuous correlation: the clamp and NaN path of the pipeline ---


def test_correlation_example():
    assert pipeline._corr(2.0, 4.0, 4.0) == 0.5
    assert pipeline._corr(4.0, 4.0, 4.0) == 1.0
    assert pipeline._corr(-1.0, 1.0, 4.0) == -0.5


def test_correlation_clamp_flag():
    assert pipeline._corr(1.03, 1.0, 1.0) == 1.0
    assert pipeline._corr(-1.03, 1.0, 1.0) == -1.0


def test_correlation_zero_diag_missing():
    assert np.isnan(pipeline._corr(0.5, 0.0, 1.0))
    assert np.isnan(pipeline._corr(0.5, 1.0, 0.0))
    assert np.isnan(pipeline._corr(0.5, -1e-12, 1.0))
