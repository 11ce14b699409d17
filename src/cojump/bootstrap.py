"""Bootstrap test for daily discontinuity and final estimate selection.

The statistic compares two covariance estimators that agree when the
day has no jumps: the realized covariance QV of the raw returns and the
noise-robust IC of the jump-adjusted returns. Under the null their
relative gap Z = (QV - IC)/QV is centered and small; jumps push it
away. The null distribution is simulated: B synthetic no-jump days are
drawn from correlated normals matched to the day's estimated IC
diagonals and correlation, the same statistic Z* is computed on each
with the same estimator configuration, and the day's Z is studentized
by the bootstrap moments and referred to the standard normal.

Randomness is one stream per day-pair: the integer ``seed`` (recorded
in ``outcomes.csv``) starts one Generator, whose single
``standard_normal((2, B, N))`` draw holds all B replications, so the
seed alone reproduces a day-pair's null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import jwc
from .jumps import JumpSeries, realized_covariance
from .ticks import write_csv

CLASSIFICATIONS = ("no_discontinuity", "co_jump", "disjoint_only")

_NORMAL = NormalDist()


def critical_value(alpha: float) -> float:
    """Two-sided standard normal critical value at level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _NORMAL.inv_cdf(1.0 - alpha / 2.0)


@dataclass
class TestOutcome:
    """Result of the discontinuity test for one day and pair."""

    date: object
    pair: tuple
    z: float
    p_value: float
    rejected: bool
    mean_z_star: float
    var_z_star: float
    b_reps: int
    alpha: float
    seed: int
    classification: str
    inconclusive: bool = False

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")


def simulate_null_day(ic_diag_1: float, ic_diag_2: float, rho_hat: float, n: int | tuple, seed):
    """Synthetic no-jump days matched to estimated scales.

    Returns an (r_1, r_2) pair of return series with interval variance
    IC_ll / N and cross correlation rho_hat, deterministic under the
    seed (an int, SeedSequence, or Generator). ``n`` is N for one day
    or a (B, N) shape for B days, drawn as one ``standard_normal((2, B,
    N))`` and correlated and scaled in place.
    """
    if ic_diag_1 < 0 or ic_diag_2 < 0:
        raise ValueError("IC diagonals must be non-negative")
    if not abs(rho_hat) <= 1.0:
        raise ValueError("|rho_hat| must not exceed 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shape = np.atleast_1d(n)
    r_1, r_2 = rng.standard_normal((2, *shape))
    r_2 *= math.sqrt(max(0.0, 1.0 - rho_hat * rho_hat))
    r_2 += rho_hat * r_1
    r_2 *= math.sqrt(ic_diag_2 / shape[-1])
    r_1 *= math.sqrt(ic_diag_1 / shape[-1])
    return r_1, r_2


def _classify(rejected: bool, jumps_1: JumpSeries, jumps_2: JumpSeries) -> tuple:
    common = np.intersect1d(jumps_1.jump_indices, jumps_2.jump_indices)
    if rejected and common.size > 0:
        return "co_jump", common
    if rejected and (jumps_1.count > 0 or jumps_2.count > 0):
        return "disjoint_only", common
    return "no_discontinuity", common


def _inconclusive(date, pair, b_reps, alpha, seed) -> TestOutcome:
    return TestOutcome(
        date=date,
        pair=pair,
        z=float("nan"),
        p_value=float("nan"),
        rejected=False,
        mean_z_star=float("nan"),
        var_z_star=float("nan"),
        b_reps=b_reps,
        alpha=alpha,
        seed=seed,
        classification="no_discontinuity",
        inconclusive=True,
    )


def bootstrap_statistic(
    raw_1: np.ndarray,
    raw_2: np.ndarray,
    jumps_1: JumpSeries,
    jumps_2: JumpSeries,
    ic_pair: jwc.IcMatrix,
    b_reps: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
    date=None,
    pair: tuple = ("1", "2"),
) -> TestOutcome:
    """Test one day's pair for a discontinuity.

    ``ic_pair`` is the day's 2 x 2 estimate for this pair on the
    jump-adjusted returns; its configuration is reused inside every
    replication (without jump detection, since the null has none).
    Days with QV = 0, a non-positive IC diagonal, or a degenerate
    bootstrap spread are reported inconclusive rather than forced.
    """
    if b_reps < 100:
        raise ValueError("need at least 100 bootstrap replications")
    raw_1 = np.asarray(raw_1, dtype=float)
    raw_2 = np.asarray(raw_2, dtype=float)
    n = raw_1.size
    qv = realized_covariance(raw_1, raw_2)
    ic_val = float(ic_pair.values[0, 1])
    diag_1 = float(ic_pair.values[0, 0])
    diag_2 = float(ic_pair.values[1, 1])
    if qv == 0.0 or diag_1 <= 0.0 or diag_2 <= 0.0:
        return _inconclusive(date, pair, b_reps, alpha, seed)

    rho_hat = ic_val / math.sqrt(diag_1 * diag_2)
    rho_hat = min(0.999, max(-0.999, rho_hat))

    r_1, r_2 = simulate_null_day(diag_1, diag_2, rho_hat, (b_reps, n), seed)

    qv_star = np.einsum("bi,bi->b", r_1, r_2)
    res = ic_pair.config.resolve(n)
    ic_star = jwc.jwc_pair_entry(r_1, r_2, res)
    z_star = (qv_star - ic_star) / qv_star
    mean_z = float(np.mean(z_star))
    sd_z = float(np.std(z_star, ddof=1))
    if sd_z == 0.0 or not math.isfinite(sd_z):
        return _inconclusive(date, pair, b_reps, alpha, seed)

    z = ((qv - ic_val) / qv - mean_z) / sd_z
    p_value = 2.0 * (1.0 - _NORMAL.cdf(abs(z)))
    rejected = abs(z) > critical_value(alpha)
    classification, _ = _classify(rejected, jumps_1, jumps_2)
    return TestOutcome(
        date=date,
        pair=pair,
        z=float(z),
        p_value=float(p_value),
        rejected=bool(rejected),
        mean_z_star=mean_z,
        var_z_star=sd_z * sd_z,
        b_reps=b_reps,
        alpha=alpha,
        seed=seed,
        classification=classification,
    )


def select_ic_star(test: TestOutcome, qv: float, ic_jwc: float) -> float:
    """Final continuous covariance entry for the day.

    The noisy but unbiased QV is kept when the test accepts (|Z| at or
    below the critical value); the jump-robust estimate replaces it on
    rejection. Inconclusive days fall back to the robust estimate.
    """
    if test.inconclusive:
        return ic_jwc
    if abs(test.z) <= critical_value(test.alpha):
        return qv
    return ic_jwc


def write_outcomes(outcomes, path) -> None:
    """Test-outcome CSV: one row per day and pair."""
    write_csv(
        path,
        ["date", "pair", "Z", "p", "rejected", "classification", "B", "alpha", "seed"],
        (
            [o.date, "-".join(o.pair), o.z, o.p_value, int(o.rejected), o.classification,
             o.b_reps, o.alpha, o.seed]
            for o in outcomes
        ),
    )
