"""Acceptance gate: one test per shipped guarantee of the package.

Every numbered criterion below is recorded through ``record_criterion``
so the pytest terminal summary prints one PASS/FAIL line per guarantee.
The Monte Carlo tests pin master seeds; the asserted budgets (counts,
tolerances, wall-clock) are contracts, not tuning knobs, so a failure
here means the package regressed and must not be papered over.

The three bootstrap studies dominate the runtime (a few minutes of
bootstrap work at B = 999, mapped over a thread per allowed CPU);
everything else finishes in seconds.
"""

import csv
import itertools
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import record_criterion, seeded

import cojump
from cojump import bootstrap, cli, events, jumps, jwc, modwt, pipeline, sim

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

REPORT_TABLES = (
    "cj_qv_share.csv",
    "correlation_regression.csv",
    "announcement_logit.csv",
    "shift_rotation.csv",
    "histogram.csv",
)

TABLE_HEADERS = {
    "cj_qv_share.csv": ["pair", "days_cj", "qv_total", "pct_cj_qv"],
    "correlation_regression.csv": ["pair", "alpha", "beta", "r_squared", "wald_p"],
    "announcement_logit.csv": [
        "pair", "beta0", "beta1", "se_beta0", "se_beta1", "pseudo_r_squared",
    ],
    "shift_rotation.csv": [
        "tuple", "segment",
        "n_rotation", "pct_rotation",
        "n_up_shift", "pct_up_shift",
        "n_down_shift", "pct_down_shift",
        "n_days_cj", "pct_days_cj", "n_segment_days",
    ],
    "histogram.csv": ["bin_start", "count"],
}


def _day_statistic(day: sim.SimDay, cfg: jwc.JwcConfig, b_reps: int, seed: int):
    """One observed day through detect -> adjust -> estimate -> test."""
    r1, r2 = day.observed
    j1, j2 = jumps.haar_detect(r1), jumps.haar_detect(r2)
    adj = np.vstack([jumps.adjust_returns(r1, j1), jumps.adjust_returns(r2, j2)])
    ic = jwc.jwc_integrated_covariance(adj, cfg)
    out = bootstrap.bootstrap_statistic(
        r1, r2, ic.values, cfg, b_reps=b_reps, alpha=0.05, seed=seed
    )
    return out, j1, j2


def _thread_map(fn, items):
    """``fn`` of each item on a thread per CPU this process may use, in item order. Each
    call draws from its own seeded Generator, so the order the calls run in moves nothing;
    numpy releases the GIL while it fills normals and runs the estimator's ufuncs."""
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        return list(pool.map(fn, items))


# --- criterion 1: transform preserves energy -------------------------------


def test_energy_identity_on_random_series():
    rng = seeded("acceptance", "energy")
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(64, 1025))
        filters = modwt.shipped_filters("haar" if trial % 2 == 0 else "d4")
        boundary = "circular" if trial % 4 < 2 else "reflecting"
        depth = modwt.max_levels(n, filters, boundary)
        levels = int(rng.integers(1, depth + 1))
        x = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
        dec = modwt.modwt_forward(x, filters, levels, boundary)
        ref = float(np.dot(x, x))
        rel = abs(float(dec.level_energies().sum()) - ref) / ref
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    record_criterion(
        1, "energy identity, 100 random series, both filters and boundaries",
        worst <= 1e-10 and elapsed < 5.0,
    )
    assert worst <= 1e-10
    assert elapsed < 5.0


# --- criterion 2: shipped filter identities ---------------------------------


def test_shipped_d4_filter_identities():
    pair = modwt.shipped_filters("d4")
    h, g = pair.h_arr(), pair.g_arr()
    tol = 1e-12
    checks = {
        "sum_h": abs(float(h.sum())),
        "sum_g": abs(float(g.sum()) - 1.0),
        "energy_h": abs(float(np.dot(h, h)) - 0.5),
        "energy_g": abs(float(np.dot(g, g)) - 0.5),
    }
    for shift in range(2, h.size, 2):  # nonzero even shifts with overlap
        checks[f"h_shift_{shift}"] = abs(float(np.dot(h[:-shift], h[shift:])))
        checks[f"g_shift_{shift}"] = abs(float(np.dot(g[:-shift], g[shift:])))
    record_criterion(
        2, "wavelet/scaling filter sum, energy and even-shift identities",
        max(checks.values()) <= tol,
    )
    for name, err in checks.items():
        assert err <= tol, f"{name}: {err}"


# --- criterion 3: threshold formula -----------------------------------------


def test_universal_threshold_re_evaluation():
    rng = seeded("acceptance", "threshold")
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(16, 2000))
        scale = float(rng.uniform(1e-5, 2.0))
        w = rng.normal(0.0, scale, n)
        got = jumps.universal_threshold(w)
        # independent re-evaluation: sort-based median, scalar arithmetic
        mags = sorted(abs(float(v)) for v in w)
        mid = n // 2
        med = mags[mid] if n % 2 else 0.5 * (mags[mid - 1] + mags[mid])
        want = math.sqrt(2.0) * med * math.sqrt(2.0 * math.log(n)) / 0.6745
        worst = max(worst, abs(got - want) / want)
    record_criterion(3, "universal threshold vs independent formula, 50 sets",
                     worst <= 1e-12)
    assert worst <= 1e-12


# --- criterion 4: jump localization ------------------------------------------


def test_jump_localization_and_false_flag_rate():
    n = 540
    sig_int = 0.01 / math.sqrt(n)
    rng_idx = np.random.default_rng(np.random.SeedSequence((1, 41)))
    exact = clean = 0
    for k in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence((1, 42, k)))
        r = sig_int * rng.standard_normal(n)
        idx = int(rng_idx.integers(0, n))
        spiked = r.copy()
        spiked[idx] += 8.0 * sig_int
        found = jumps.haar_detect(spiked)
        exact += int(found.count == 1 and int(found.jump_indices[0]) == idx)
        clean += int(jumps.haar_detect(r).count == 0)
    record_criterion(
        4, "8-sigma return localized >=99%, clean days unflagged >=95%",
        exact >= 990 and clean >= 950,
    )
    assert exact >= 990, f"exact localization {exact}/1000"
    assert clean >= 950, f"unflagged clean days {clean}/1000"


# --- criterion 5: estimator consistency, with and without noise --------------


def test_integrated_covariance_consistency():
    cfg = jwc.JwcConfig()
    s1, s2 = 0.01, 0.012
    scale = s1 * s2
    failures = []
    for rho in (0.0, 0.5, 0.9):
        sc = sim.SimScenario(
            n_intervals=540, n_days=500, sigma=(s1, s2), mu=0.0, rho=rho,
            noise_sd=0.0, jumps=(), seed=0, vol_pattern="flat",
        )
        offs = np.array([
            jwc.jwc_integrated_covariance(day.observed, cfg).values[0, 1]
            for day in sim.simulate(sc)
        ])
        truth = rho * scale
        # at rho = 0 the 5% band is read on the sigma1*sigma2 scale
        budget = 0.05 * (abs(truth) if rho else scale)
        if abs(float(offs.mean()) - truth) > budget:
            failures.append(f"rho={rho}: mean {offs.mean():.3e} vs {truth:.3e}")

    # contaminated case: equal sigmas so one interval's return sd is a
    # single number, and noise of exactly that size is added
    s = 0.01
    sc = sim.SimScenario(
        n_intervals=540, n_days=500, sigma=(s, s), mu=0.0, rho=0.8,
        noise_sd=s / math.sqrt(540), jumps=(), seed=0, vol_pattern="flat",
    )
    days = list(sim.simulate(sc))
    truth = 0.8 * s * s
    offs = np.array([
        jwc.jwc_integrated_covariance(day.observed, cfg).values[0, 1]
        for day in days
    ])
    rc_diag = np.array([float(np.dot(day.observed[0], day.observed[0])) for day in days])
    if abs(float(offs.mean()) - truth) > 0.05 * truth:
        failures.append(f"noisy off-diagonal {offs.mean():.3e} vs {truth:.3e}")
    rc_inflation = float(rc_diag.mean()) / (s * s) - 1.0
    if rc_inflation <= 0.5:
        failures.append(f"plain RV diagonal inflation only {rc_inflation:.2%}")

    record_criterion(
        5, "two-scale estimator within 5% of truth, noise-robust vs plain RV",
        not failures,
    )
    assert not failures, "; ".join(failures)


# --- criterion 6: unit spacing degenerates to zero ---------------------------


def test_unit_spacing_cancels_exactly():
    cfg = jwc.JwcConfig(s_spacing=1, g_spacing=1)
    rng = seeded("acceptance", "degenerate")
    ok = True
    for d, n in ((1, 64), (2, 127), (3, 540)):
        r = 1e-4 * rng.standard_normal((d, n))
        vals = jwc.jwc_integrated_covariance(r, cfg).values
        ok = ok and bool(np.all(vals == 0.0))
    record_criterion(6, "G = S = 1 two-scale bracket is exactly zero", ok)
    assert ok


# --- criterion 7: bootstrap size under the null -------------------------------


def test_bootstrap_null_size_and_uniformity():
    n_days, b_reps = 1000, 999
    t0 = time.perf_counter()
    sc = sim.SimScenario(
        n_intervals=540, n_days=n_days, sigma=(0.01, 0.012), mu=0.0, rho=0.6,
        noise_sd=0.0, jumps=(), seed=0, vol_pattern="flat",
    )
    days = list(sim.simulate(sc))  # drawn in day order, here
    cfg = jwc.JwcConfig(g_spacing=5)
    seeds = np.random.SeedSequence((0, 777)).generate_state(n_days, dtype=np.uint64)
    outs = _thread_map(lambda k: _day_statistic(days[k], cfg, b_reps, int(seeds[k]))[0],
                       range(n_days))
    pvals = np.array([out.p_value for out in outs])
    rejections = sum(int(out.rejected) for out in outs)
    elapsed = time.perf_counter() - t0

    rate = rejections / n_days
    p = np.sort(pvals)
    grid = np.arange(1, n_days + 1)
    ks = max(float(np.max(grid / n_days - p)), float(np.max(p - (grid - 1) / n_days)))
    ks_crit = 1.6276 / math.sqrt(n_days)  # 1% asymptotic KS critical value

    record_criterion(
        7, "null rejection rate in [0.03, 0.07], p-values KS-uniform at 1%",
        0.03 <= rate <= 0.07 and ks < ks_crit and elapsed < 600.0,
    )
    assert 0.03 <= rate <= 0.07, f"null rejection rate {rate:.4f}"
    assert ks < ks_crit, f"KS {ks:.4f} vs {ks_crit:.4f}"
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s"


# --- criteria 8 and 9: disambiguation and co-jump power ----------------------


def _power_study(common: bool, n_seeds: int = 1000, b_reps: int = 999):
    """Days with 10x daily-scale jumps on one or both legs."""
    cfg = jwc.JwcConfig(g_spacing=5)
    s1, s2 = 0.01, 0.012
    jump1 = 10.0 * s1
    jump2 = 10.0 * s2 if common else 0.0
    seeds = np.random.SeedSequence((0, 778)).generate_state(n_seeds, dtype=np.uint64)

    def day(k):
        """(label, CJ) of the k-th seed's day."""
        sc = sim.SimScenario(
            n_intervals=540, n_days=1, sigma=(s1, s2), mu=0.0, rho=0.6,
            noise_sd=0.0, jumps=((0, 270, jump1, jump2),),
            seed=int(seeds[k]) % (2 ** 63), vol_pattern="flat",
        )
        out, j1, j2 = _day_statistic(next(sim.simulate(sc)), cfg, b_reps, int(seeds[k]))
        cj, common = jumps.cojump_variation(j1, j2)
        return pipeline.classify(out.rejected, common, j1, j2), cj

    ratios = [cj / (jump1 * jump2)
              for label, cj in _thread_map(day, range(n_seeds)) if label == "co_jump"]
    return len(ratios), ratios


def test_disjoint_jumps_never_classified_common():
    n_cj, _ = _power_study(common=False)
    record_criterion(8, "10-sigma one-leg jumps never classified co_jump", n_cj == 0)
    assert n_cj == 0, f"{n_cj} of 1000 one-leg jump days classified co_jump"


def test_common_jump_power_and_size_recovery():
    n_cj, ratios = _power_study(common=True)
    mean_ratio = float(np.mean(ratios))
    record_criterion(
        9, "common 10-sigma jumps flagged >=95%, CJ within 10% of injected",
        n_cj >= 950 and abs(mean_ratio - 1.0) <= 0.10,
    )
    assert n_cj >= 950, f"co_jump on {n_cj}/1000 common-jump days"
    assert abs(mean_ratio - 1.0) <= 0.10, f"mean CJ ratio {mean_ratio:.4f}"


# --- criterion 10: regression and logit against independent algebra ----------

# fixed 10-observation fixture; the sandwich below is assembled with
# scalar arithmetic only, no linear-algebra helpers
WALD_X = [0.10, 0.25, 0.32, 0.41, 0.48, 0.55, 0.63, 0.70, 0.82, 0.90]
WALD_E = [0.012, -0.008, 0.020, -0.017, 0.003, 0.015, -0.022, 0.008, -0.013, 0.002]
WALD_Y = [0.30 + 0.80 * x + e for x, e in zip(WALD_X, WALD_E)]


def _hand_sandwich(xs, ys):
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    alpha = (sxx * sy - sx * sxy) / det
    beta = (n * sxy - sx * sy) / det
    resid = [y - alpha - beta * x for x, y in zip(xs, ys)]
    # bread = (X'X)^-1 for X = [1, x]
    b00, b01, b11 = sxx / det, -sx / det, n / det
    # meat = sum e_i^2 x_i x_i'
    m00 = sum(e * e for e in resid)
    m01 = sum(e * e * x for e, x in zip(resid, xs))
    m11 = sum(e * e * x * x for e, x in zip(resid, xs))
    # cov = bread meat bread, written out entry by entry
    t00 = b00 * m00 + b01 * m01
    t01 = b00 * m01 + b01 * m11
    t10 = b01 * m00 + b11 * m01
    t11 = b01 * m01 + b11 * m11
    c00 = t00 * b00 + t01 * b01
    c01 = t00 * b01 + t01 * b11
    c11 = t10 * b01 + t11 * b11
    # Wald of (alpha, beta) = (0, 1) through the 2x2 inverse of cov
    d0, d1 = alpha, beta - 1.0
    cdet = c00 * c11 - c01 * c01
    wald = (d0 * (c11 * d0 - c01 * d1) + d1 * (c00 * d1 - c01 * d0)) / cdet
    return alpha, beta, math.sqrt(c00), math.sqrt(c11), wald


def test_regression_and_logit_oracles():
    tol = 1e-8
    failures = []

    # OLS against an independent normal-equations solve on noisy data
    rng = seeded("acceptance", "ols")
    x = rng.uniform(0.2, 0.9, 40)
    y = 0.15 + 0.7 * x + rng.normal(0.0, 0.05, 40)
    res = events.correlation_impact_regression(y, x)
    design = np.column_stack([np.ones(40), x])
    theta = np.linalg.solve(design.T @ design, design.T @ y)
    if abs(res.alpha - theta[0]) > tol or abs(res.beta - theta[1]) > tol:
        failures.append("normal-equations coefficients")
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(np.sum((y - design @ theta) ** 2))
    if abs(res.r_squared - (1.0 - ssr / sst)) > tol:
        failures.append("r_squared")

    # White-Wald on the fixed 10-observation fixture, assembled by hand
    alpha, beta, se_a, se_b, wald = _hand_sandwich(WALD_X, WALD_Y)
    res10 = events.correlation_impact_regression(WALD_Y, WALD_X)
    for name, got, want in (
        ("alpha", res10.alpha, alpha),
        ("beta", res10.beta, beta),
        ("se_alpha", res10.se_alpha, se_a),
        ("se_beta", res10.se_beta, se_b),
        ("wald", res10.wald_stat, wald),
        ("wald_p", res10.wald_p, math.exp(-wald / 2.0)),
    ):
        if abs(got - want) > tol * max(1.0, abs(want)):
            failures.append(f"10-obs {name}: {got!r} vs {want!r}")

    # logit with a binary regressor has closed-form cell solutions
    n0 = n1 = 40
    y_cells = [1.0] * 10 + [0.0] * 30 + [1.0] * 26 + [0.0] * 14
    x_cells = [0.0] * n0 + [1.0] * n1
    fit = events.announcement_logit(y_cells, x_cells)
    p0, p1 = 10 / 40, 26 / 40
    beta0 = math.log(p0 / (1 - p0))
    beta1 = math.log(p1 / (1 - p1)) - beta0
    se0 = math.sqrt(1.0 / (n0 * p0 * (1 - p0)))
    se1 = math.sqrt(1.0 / (n0 * p0 * (1 - p0)) + 1.0 / (n1 * p1 * (1 - p1)))
    for name, got, want in (
        ("beta0", fit.beta0, beta0),
        ("beta1", fit.beta1, beta1),
        ("se_beta0", fit.se_beta0, se0),
        ("se_beta1", fit.se_beta1, se1),
    ):
        if abs(got - want) > tol * max(1.0, abs(want)):
            failures.append(f"logit {name}: {got!r} vs {want!r}")

    record_criterion(
        10, "regression and logit match independent algebra to 1e-8",
        not failures,
    )
    assert not failures, "; ".join(failures)


# --- criterion 11: exhaustive sign-pattern classification --------------------


def test_sign_patterns_exhaustive():
    ok = True
    for m in (2, 3, 4):
        for signs in itertools.product((1.0, -1.0), repeat=m):
            # magnitudes vary so the rule cannot lean on symmetry
            sizes = [s * (0.05 + 0.01 * i) for i, s in enumerate(signs)]
            if all(s > 0 for s in signs):
                want = "UpShift"
            elif all(s < 0 for s in signs):
                want = "DownShift"
            else:
                want = "Rotation"
            got = events.classify_shift_rotation(sizes)
            ok = ok and got == want
            assert got == want, f"{sizes} -> {got}, expected {want}"
    record_criterion(11, "all 2^m sign patterns for m in {2, 3, 4}", ok)


# --- criteria 12 and 13: report fidelity and end-to-end determinism ----------


def _run_chain(output: str) -> None:
    config = os.path.join(GOLDEN_DIR, "config.json")
    for command in ("simulate", "decompose", "report"):
        code = cli.main([command, "--config", config, "--output", output])
        assert code == 0, f"{command} exited {code}"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_out")
    _run_chain(str(out))
    return out


def test_report_tables_match_golden(golden_run):
    mismatches = []
    for name in REPORT_TABLES:
        generated = os.path.join(golden_run, name)
        with open(generated, newline="") as handle:
            header = next(csv.reader(handle))
        if header != TABLE_HEADERS[name]:
            mismatches.append(f"{name} columns {header}")
        with open(generated, "rb") as handle:
            got = handle.read()
        with open(os.path.join(GOLDEN_DIR, "expected", name), "rb") as handle:
            want = handle.read()
        if got != want:
            mismatches.append(f"{name} content differs from golden copy")
    record_criterion(
        12, "report tables byte-identical to golden copies, exact columns",
        not mismatches,
    )
    assert not mismatches, "; ".join(mismatches)


def _openblas_dynamic_arch() -> bool:
    """True when numpy's BLAS is an x86-64 OpenBLAS built with DYNAMIC_ARCH.

    Only such a build selects its kernel at load time and lets
    ``OPENBLAS_CORETYPE`` force another one.
    """
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


@pytest.mark.skipif(
    not _openblas_dynamic_arch(),
    reason="needs numpy linked to an x86-64 OpenBLAS built with DYNAMIC_ARCH",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_report_tables_independent_of_blas_kernel(coretype, tmp_path):
    """The golden chain under a forced FMA (Haswell) and non-FMA (Prescott)
    OpenBLAS kernel still reproduces the golden report tables byte for byte.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cojump.__file__)))
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=coretype,
        PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    )
    config = os.path.join(GOLDEN_DIR, "config.json")
    for command in ("simulate", "decompose", "report"):
        proc = subprocess.run(
            [sys.executable, "-m", "cojump.cli", command,
             "--config", config, "--output", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{command} under {coretype}: {proc.stderr}"
    mismatches = [
        name
        for name in REPORT_TABLES
        if (tmp_path / name).read_bytes()
        != pathlib.Path(GOLDEN_DIR, "expected", name).read_bytes()
    ]
    record_criterion(
        12, "report tables byte-identical to golden copies, exact columns",
        not mismatches,
    )
    assert not mismatches, f"{coretype} kernel: {mismatches} differ from golden copies"


def test_end_to_end_rerun_byte_identical(golden_run, tmp_path):
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    _run_chain(str(rerun))

    def tree(root):
        found = {}
        for base, _, names in os.walk(root):
            for name in names:
                full = os.path.join(base, name)
                found[os.path.relpath(full, root)] = full
        return found

    first, second = tree(golden_run), tree(rerun)
    record = sorted(first) == sorted(second)
    diffs = []
    for rel in sorted(first):
        if rel not in second:
            continue
        with open(first[rel], "rb") as fa, open(second[rel], "rb") as fb:
            if fa.read() != fb.read():
                diffs.append(rel)
    record_criterion(
        13, "two identically configured runs are byte-identical",
        record and not diffs,
    )
    assert sorted(first) == sorted(second)
    assert not diffs, f"differing files: {diffs}"
