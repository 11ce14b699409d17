"""Simulator ground-truth and reproducibility checks."""

import datetime as dt

import numpy as np
import pytest

from cojump import sim


def test_degenerate_diffusion_all_zero():
    sc = sim.SimScenario(n_intervals=16, n_days=2, sigma=(0.0, 0.0), mu=0.0)
    for day in sim.simulate(sc):
        assert np.all(day.observed == 0.0)


def test_rho_one_identical_series():
    sc = sim.SimScenario(n_intervals=64, n_days=3, sigma=(0.01, 0.01), rho=1.0, seed=5)
    for day in sim.simulate(sc):
        assert day.observed[0] == pytest.approx(day.observed[1], rel=1e-12)


def test_rho_minus_one_mirrored():
    sc = sim.SimScenario(n_intervals=64, n_days=1, sigma=(0.01, 0.01), rho=-1.0, seed=5)
    day = next(sim.simulate(sc))
    assert day.observed[0] == pytest.approx(-day.observed[1], rel=1e-12)


def test_interval_covariance_million_pairs():
    """Sample interval covariance vs rho sigma1 sigma2 / N within 0.5%."""
    n, n_days = 540, 1852  # just over 1e6 intervals
    rho, s1, s2 = 0.6, 0.01, 0.012
    sc = sim.SimScenario(n_intervals=n, n_days=n_days, sigma=(s1, s2), rho=rho, seed=11)
    days = list(sim.simulate(sc))
    r1 = np.concatenate([d.observed[0] for d in days])
    r2 = np.concatenate([d.observed[1] for d in days])
    assert r1.size >= 1_000_000
    target = rho * s1 * s2 / n
    sample = float(np.mean(r1 * r2))
    assert abs(sample / target - 1.0) < 0.005


def test_true_decomposition_closed_forms():
    sc = sim.SimScenario(
        n_intervals=32, n_days=1, sigma=(0.02, 0.03), rho=0.5,
        jumps=((0, 7, 0.004, 0.003),), seed=1,
    )
    day = next(sim.simulate(sc))
    parts = {"IC": day.true_ic, "CJ": day.true_cj, "QV": day.true_ic + day.true_cj}
    assert parts["IC"][0, 0] == pytest.approx(0.02**2, rel=1e-12)
    assert parts["IC"][1, 1] == pytest.approx(0.03**2, rel=1e-12)
    assert parts["IC"][0, 1] == pytest.approx(0.5 * 0.02 * 0.03, rel=1e-12)
    assert parts["CJ"][0, 1] == pytest.approx(0.004 * 0.003, rel=1e-12)
    assert parts["CJ"][0, 0] == pytest.approx(0.004**2, rel=1e-12)
    assert parts["QV"] == pytest.approx(parts["IC"] + parts["CJ"], rel=1e-12)


def test_no_jumps_qv_equals_ic():
    sc = sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01,))
    day = next(sim.simulate(sc))
    parts = {"IC": day.true_ic, "CJ": day.true_cj, "QV": day.true_ic + day.true_cj}
    assert np.array_equal(parts["QV"], parts["IC"])
    assert np.all(day.true_cj == 0.0)


def test_jump_additivity_same_seed():
    base = sim.SimScenario(n_intervals=64, n_days=2, sigma=(0.01, 0.01), rho=0.3, seed=9)
    jumpy = sim.SimScenario(
        n_intervals=64, n_days=2, sigma=(0.01, 0.01), rho=0.3, seed=9,
        jumps=((1, 10, 0.05, -0.02),),
    )
    plain = list(sim.simulate(base))
    with_jumps = list(sim.simulate(jumpy))
    assert np.array_equal(with_jumps[0].observed, plain[0].observed)
    delta = with_jumps[1].observed - plain[1].observed
    expected = np.zeros_like(delta)
    expected[0, 10] = 0.05
    expected[1, 10] = -0.02
    assert delta == pytest.approx(expected, abs=1e-15)


def test_noise_enters_as_first_difference():
    quiet = sim.SimScenario(n_intervals=32, n_days=1, sigma=(0.01,), seed=3)
    noisy = sim.SimScenario(n_intervals=32, n_days=1, sigma=(0.01,), seed=3, noise_sd=1e-4)
    diff = next(sim.simulate(noisy)).observed - next(sim.simulate(quiet)).observed
    # noise differences telescope: the day's total is the end minus start level
    assert abs(diff.sum()) < 1e-3
    assert np.std(diff) > 0.5e-4


def test_seed_determinism_bitwise():
    sc = sim.SimScenario(n_intervals=64, n_days=3, sigma=(0.01, 0.02), rho=0.4, seed=21,
                         noise_sd=1e-5, jumps=((0, 5, 0.01, 0.0),))
    a = sim.simulate(sc)
    b = sim.simulate(sc)
    for da, db in zip(a, b):
        assert np.array_equal(da.observed, db.observed)


def test_day_streams_independent_of_day_count():
    short = sim.SimScenario(n_intervals=32, n_days=2, sigma=(0.01,), seed=13)
    long = sim.SimScenario(n_intervals=32, n_days=5, sigma=(0.01,), seed=13)
    a = list(sim.simulate(short))
    b = list(sim.simulate(long))
    for k in range(2):
        assert np.array_equal(a[k].observed, b[k].observed)


def test_u_shape_pattern_preserves_ic():
    flat = sim.SimScenario(n_intervals=540, n_days=1, sigma=(0.01,), vol_pattern="flat")
    ushape = sim.SimScenario(n_intervals=540, n_days=1, sigma=(0.01,), vol_pattern="u_shape")
    assert next(sim.simulate(ushape)).true_ic[0, 0] == pytest.approx(
        next(sim.simulate(flat)).true_ic[0, 0], rel=1e-12
    )
    pat = sim.volatility_pattern(ushape)
    assert float(np.mean(pat**2)) == pytest.approx(1.0, rel=1e-12)
    assert pat[0] > pat[len(pat) // 2]  # ends busier than lunch


def test_scenario_validation():
    with pytest.raises(ValueError, match="rho"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01,), rho=1.5)
    with pytest.raises(ValueError, match="two intervals"):
        sim.SimScenario(n_intervals=1, n_days=1, sigma=(0.01,))
    with pytest.raises(ValueError, match="one day"):
        sim.SimScenario(n_intervals=16, n_days=0, sigma=(0.01,))
    with pytest.raises(ValueError, match="non-negative"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(-0.01,))
    with pytest.raises(ValueError, match="vol_pattern"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01,), vol_pattern="spike")
    with pytest.raises(ValueError, match="outside"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01,), jumps=((0, 99, 0.01),))
    with pytest.raises(ValueError, match="outside"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01,), jumps=((3, 2, 0.01),))
    with pytest.raises(ValueError, match="finite"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01,), jumps=((0, 2, float("nan")),))
    with pytest.raises(ValueError, match="per instrument"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01, 0.02), jumps=((0, 2, 0.01),))
    with pytest.raises(ValueError, match="per instrument"):
        sim.SimScenario(n_intervals=16, n_days=1, sigma=(0.01, 0.02), mu=(0.0, 0.0, 0.0))


def test_equicorrelation_beyond_two_legs():
    sc = sim.SimScenario(n_intervals=540, n_days=60, sigma=(0.01, 0.01, 0.01), rho=0.7, seed=2)
    days = list(sim.simulate(sc))
    r = np.hstack([d.observed for d in days])
    c = np.corrcoef(r)
    off = c[~np.eye(3, dtype=bool)]
    assert off == pytest.approx(np.full(6, 0.7), abs=0.02)
    with pytest.raises(ValueError, match="equicorrelation"):
        sim.simulate(sim.SimScenario(n_intervals=8, n_days=1, sigma=(1, 1, 1), rho=-0.9))


def test_business_dates_skip_weekends():
    dates = sim.business_dates(dt.date(2026, 1, 2), 4)  # a Friday
    assert dates == [
        dt.date(2026, 1, 2), dt.date(2026, 1, 5), dt.date(2026, 1, 6), dt.date(2026, 1, 7)
    ]


def test_scenario_file_roundtrip(tmp_path):
    sc = sim.SimScenario(
        n_intervals=540, n_days=7, sigma=(0.01, 0.012), mu=(1e-6, 0.0), rho=0.6,
        noise_sd=4.3e-4, jumps=((2, 100, 0.1, 0.12), (5, 30, 0.05, 0.0)),
        seed=42, vol_pattern="u_shape",
    )
    path = tmp_path / "scenario.txt"
    path.write_text(
        "n_intervals = 540\n"
        "n_days = 7\n"
        "sigma = 0.01, 0.012\n"
        "mu = 1e-06, 0.0\n"
        "rho = 0.6\n"
        "noise_sd = 0.00043\n"
        "vol_pattern = u_shape\n"
        "seed = 42\n"
        "jump = 2, 100, 0.1, 0.12\n"
        "jump = 5, 30, 0.05, 0.0\n"
    )
    assert sim.read_scenario(path) == sc


def test_scenario_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n_intervals = 16\n")
    with pytest.raises(ValueError, match="sigma is required"):
        sim.read_scenario(bad)
    bad.write_text("sigma = 0.01\nwhatever = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        sim.read_scenario(bad)
    bad.write_text("sigma 0.01\n")
    with pytest.raises(ValueError, match="key = value"):
        sim.read_scenario(bad)


def test_scenario_comments_ignored(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# demo\nsigma = 0.01 # daily scale\nn_intervals = 16\nn_days = 1\n\n")
    sc = sim.read_scenario(path)
    assert sc.sigma == (0.01,)
    assert sc.n_intervals == 16
