"""Bootstrap test for a daily discontinuity.

The statistic compares two covariance estimators that agree when the
day has no jumps: the realized covariance QV of the raw returns and the
noise-robust IC of the jump-adjusted returns. Under the null their
relative gap Z = (QV - IC)/QV is centered and small; jumps push it
away. The null distribution is simulated: B synthetic no-jump days are
drawn from correlated normals matched to the day's estimated IC
diagonals and correlation, the same statistic Z* is computed on each
with the same estimator configuration, and the day's Z is studentized
by the bootstrap moments and referred to the standard normal. The test
gives the verdict alone; ``pipeline`` labels the day from its jumps.

Randomness is one stream per day-pair: the integer ``seed`` (recorded
in ``outcomes.csv``) starts one Generator, whose ``standard_normal((2,
B, N))`` stream holds all B replications, so the seed alone reproduces
a day-pair's null. The stream is consumed as leg 1 whole, then leg 2 in
row blocks, each block going through the estimator before the next is
drawn; the numbers are those of the one whole draw, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import jwc
from .jumps import realized_covariance

_NORMAL = NormalDist()

# Returns per block of null days: a block and the estimator's temporaries stay cache-sized.
# Twice as many read about 0.5 MiB more peak RSS in decompose; half as many cost about 12%
# more of its time.
BLOCK_RETURNS = 2**14


def critical_value(alpha: float) -> float:
    """Two-sided standard normal critical value at level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _NORMAL.inv_cdf(1.0 - alpha / 2.0)


@dataclass
class TestOutcome:
    """Result of the discontinuity test for one day and pair."""

    z: float
    p_value: float
    rejected: bool
    b_reps: int
    alpha: float
    seed: int
    inconclusive: bool = False


def simulate_null_day(ic_diag_1: float, ic_diag_2: float, rho_hat: float, n: int | tuple, seed):
    """Synthetic no-jump days matched to estimated scales, in row blocks.

    Returns an iterator of (r_1, r_2) pairs of return series with
    interval variance IC_ll / N and cross correlation rho_hat,
    deterministic under the seed (an int, SeedSequence, or Generator).
    ``n`` is N for one day, given as one pair, or a (B, N) shape for B
    days, given in blocks of ``max(1, BLOCK_RETURNS // N)`` rows. Leg 1
    is drawn whole here, then leg 2 block by block from the same
    Generator as the iterator advances, which is the
    ``standard_normal((2, B, N))`` stream bit for bit.
    """
    if ic_diag_1 < 0 or ic_diag_2 < 0:
        raise ValueError("IC diagonals must be non-negative")
    if not abs(rho_hat) <= 1.0:
        raise ValueError("|rho_hat| must not exceed 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    r_1 = rng.standard_normal(n)
    n_returns = r_1.shape[-1]
    scales = (math.sqrt(ic_diag_1 / n_returns), math.sqrt(ic_diag_2 / n_returns))
    rows = max(1, BLOCK_RETURNS // n_returns) if r_1.ndim > 1 else n_returns
    return (_correlate(rng, r_1[i:i + rows], rho_hat, *scales) for i in range(0, len(r_1), rows))


def _correlate(rng, r_1, rho_hat, scale_1, scale_2):
    """Leg 2 of one block drawn next, then both legs correlated and scaled in place."""
    r_2 = rng.standard_normal(r_1.shape)
    r_2 *= math.sqrt(max(0.0, 1.0 - rho_hat * rho_hat))
    r_2 += rho_hat * r_1
    r_2 *= scale_2
    r_1 *= scale_1
    return r_1, r_2


def _inconclusive(b_reps, alpha, seed) -> TestOutcome:
    return TestOutcome(
        z=float("nan"),
        p_value=float("nan"),
        rejected=False,
        b_reps=b_reps,
        alpha=alpha,
        seed=seed,
        inconclusive=True,
    )


def bootstrap_statistic(
    raw_1: np.ndarray,
    raw_2: np.ndarray,
    ic_pair: np.ndarray,
    estimator: jwc.JwcConfig,
    b_reps: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
) -> TestOutcome:
    """Test one day's pair for a discontinuity.

    ``ic_pair`` is the 2 x 2 block of the day's IC estimate for this
    pair on the jump-adjusted returns, and ``estimator`` the
    configuration that produced it; every replication reuses that
    configuration (without jump detection, since the null has none).
    Days with QV = 0, a non-positive IC diagonal, or a degenerate
    bootstrap spread are reported inconclusive rather than forced.
    """
    if b_reps < 100:
        raise ValueError("need at least 100 bootstrap replications")
    raw_1 = np.asarray(raw_1, dtype=float)
    raw_2 = np.asarray(raw_2, dtype=float)
    n = raw_1.size
    qv = realized_covariance(raw_1, raw_2)
    ic_val = float(ic_pair[0, 1])
    diag_1 = float(ic_pair[0, 0])
    diag_2 = float(ic_pair[1, 1])
    if qv == 0.0 or diag_1 <= 0.0 or diag_2 <= 0.0:
        return _inconclusive(b_reps, alpha, seed)

    rho_hat = ic_val / math.sqrt(diag_1 * diag_2)
    rho_hat = min(0.999, max(-0.999, rho_hat))

    res = estimator.resolve(n)
    qv_star, ic_star = [], []
    for r_1, r_2 in simulate_null_day(diag_1, diag_2, rho_hat, (b_reps, n), seed):
        qv_star.append(np.einsum("bi,bi->b", r_1, r_2))
        ic_star.append(jwc.jwc_pair_entry(r_1, r_2, res))
    qv_star, ic_star = np.concatenate(qv_star), np.concatenate(ic_star)
    z_star = (qv_star - ic_star) / qv_star
    mean_z = float(np.mean(z_star))
    sd_z = float(np.std(z_star, ddof=1))
    if sd_z == 0.0 or not math.isfinite(sd_z):
        return _inconclusive(b_reps, alpha, seed)

    z = ((qv - ic_val) / qv - mean_z) / sd_z
    p_value = 2.0 * (1.0 - _NORMAL.cdf(abs(z)))
    rejected = abs(z) > critical_value(alpha)
    return TestOutcome(
        z=float(z),
        p_value=float(p_value),
        rejected=bool(rejected),
        b_reps=b_reps,
        alpha=alpha,
        seed=seed,
    )

