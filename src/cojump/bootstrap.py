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
in ``outcomes.csv``) starts one Generator, whose ``standard_normal((B,
2, N))`` stream holds all B replications, replication b's two legs in
rows ``[b, 0]`` and ``[b, 1]``, so the seed alone reproduces a
day-pair's null. The stream is drawn in blocks of whole replications,
each block going through the estimator before the next is drawn; the
numbers are those of the one whole draw, bit for bit, whatever the
block size. Z* does not change when a leg is rescaled, so the null legs
are left at unit variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import jwc
from .jumps import realized_covariance

_NORMAL = NormalDist()

# Returns per block of null replications, both legs counted (15 replications at N = 540): a
# block and the estimator's temporaries stay cache-sized, and no array grows with B. 2**13 and
# 2**15 each read about 0.6 MiB more peak RSS in decompose, and 2**13 about 10% more time.
BLOCK_RETURNS = 2**14


def critical_value(alpha: float) -> float:
    """Two-sided standard normal critical value at level alpha, 0 < alpha < 1."""
    return _NORMAL.inv_cdf(1.0 - alpha / 2.0)


@dataclass
class TestOutcome:
    """Result of the discontinuity test for one day and pair."""

    z: float
    p_value: float
    rejected: bool
    b_reps: int
    inconclusive: bool = False


def simulate_null_day(rho_hat: float, shape: tuple, seed):
    """Synthetic no-jump days with cross correlation rho_hat, in blocks of whole replications.

    ``shape`` is (B, N). Returns an iterator of (R, 2, N) blocks of
    ``max(1, BLOCK_RETURNS // (2 * N))`` replications (fewer in the last),
    whose rows ``[b, 0]`` and ``[b, 1]`` are replication b's two legs of
    unit-variance returns. Stacked, the blocks are one
    ``standard_normal((B, 2, N))`` draw from the seed (an int, SeedSequence
    or Generator) with leg 2 correlated to leg 1, bit for bit; each block is
    drawn only as the iterator reaches it. ``rho_hat`` lies in [-1, 1].
    """
    rng = np.random.default_rng(seed)  # a Generator is returned unchanged
    b_reps, n = shape
    rows = max(1, BLOCK_RETURNS // (2 * n))
    return (_correlate(rng.standard_normal((min(rows, b_reps - i), 2, n)), rho_hat)
            for i in range(0, b_reps, rows))


def _correlate(block, rho_hat):
    """Leg 2 of every replication in a block correlated with its leg 1, in place."""
    leg_2 = block[:, 1]
    leg_2 *= math.sqrt(max(0.0, 1.0 - rho_hat * rho_hat))
    leg_2 += rho_hat * block[:, 0]
    return block


def _inconclusive(b_reps) -> TestOutcome:
    return TestOutcome(z=float("nan"), p_value=float("nan"), rejected=False, b_reps=b_reps,
                       inconclusive=True)


def bootstrap_statistic(
    raw_1: np.ndarray,
    raw_2: np.ndarray,
    ic_pair: np.ndarray,
    estimator: jwc.JwcConfig,
    b_reps: int = 999,
    alpha: float = 0.05,
    seed: int = 0,
) -> TestOutcome:
    """Test one day's pair, the float return rows ``raw_1`` and ``raw_2``, for a discontinuity.

    ``ic_pair`` is the 2 x 2 block of the day's IC estimate for this
    pair on the jump-adjusted returns, and ``estimator`` the
    configuration that produced it; every replication reuses that
    configuration (without jump detection, since the null has none).
    Days with QV = 0, a non-positive IC diagonal, or a degenerate
    bootstrap spread are reported inconclusive rather than forced.
    """
    qv = realized_covariance(raw_1, raw_2)
    ic_val = float(ic_pair[0, 1])
    diag_1 = float(ic_pair[0, 0])
    diag_2 = float(ic_pair[1, 1])
    if qv == 0.0 or diag_1 <= 0.0 or diag_2 <= 0.0:
        return _inconclusive(b_reps)

    rho_hat = ic_val / math.sqrt(diag_1 * diag_2)
    rho_hat = min(0.999, max(-0.999, rho_hat))

    qv_star, ic_star = [], []
    for block in simulate_null_day(rho_hat, (b_reps, estimator.n), seed):
        qv_star.append(np.einsum("bi,bi->b", block[:, 0], block[:, 1]))
        ic_star.append(jwc.jwc_pair_entry(block, estimator, qv_star[-1]))
    qv_star, ic_star = np.concatenate(qv_star), np.concatenate(ic_star)
    z_star = (qv_star - ic_star) / qv_star
    mean_z = float(np.mean(z_star))
    sd_z = float(np.std(z_star, ddof=1))
    if sd_z == 0.0 or not math.isfinite(sd_z):
        return _inconclusive(b_reps)

    z = ((qv - ic_val) / qv - mean_z) / sd_z
    p_value = 2.0 * (1.0 - _NORMAL.cdf(abs(z)))
    rejected = abs(z) > critical_value(alpha)
    return TestOutcome(z=float(z), p_value=float(p_value), rejected=bool(rejected),
                       b_reps=b_reps)

