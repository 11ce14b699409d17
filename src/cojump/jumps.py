"""Intraday jump localization by thresholding first-scale wavelet coefficients.

A day is processed per instrument: the Haar level-1 coefficients of the
return series are compared against a universal threshold estimated
from that same day's coefficients, flagged returns are taken as jump
sizes, stored once as a size vector that is zero where no jump was
flagged, and the jump-adjusted series keeps the diffusive part only.
Every function takes float arrays, such as the rows of a ``ReturnPanel``,
which converts its returns once, when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAD_NORMAL = 0.6745  # median absolute deviation of a standard normal


@dataclass
class JumpSeries:
    """Detected jumps of one instrument on one day, stored as their size vector.

    jump_sizes is a length-N vector in log-return units, zero where no
    jump was flagged, so its nonzero entries are the jumps; degenerate
    marks days whose threshold collapsed to zero (detection skipped).
    """

    jump_sizes: np.ndarray
    degenerate: bool = False

    @property
    def jump_indices(self) -> np.ndarray:
        """The sorted flagged indices: a flagged return is never zero."""
        return np.flatnonzero(self.jump_sizes)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.jump_sizes))


def universal_threshold(w1: np.ndarray) -> float:
    """Universal threshold xi = sqrt(2) median|W1| sqrt(2 ln N) / 0.6745.

    The median runs over all N >= 2 coefficients of the day; the natural
    logarithm is used. An all-zero coefficient vector gives xi = 0,
    which callers must treat as a degenerate day.
    """
    n = w1.size
    ranked = np.sort(np.abs(w1), axis=None)  # np.median's NaN check would load numpy.ma
    median = math.nan if np.isnan(ranked[-1]) else float(ranked[(n - 1) // 2 : n // 2 + 1].mean())
    return math.sqrt(2.0) * median * math.sqrt(2.0 * math.log(n)) / MAD_NORMAL


def detect_jumps(returns: np.ndarray, w1: np.ndarray, threshold: float) -> JumpSeries:
    """Flag index i as a jump iff |w1[i]| > threshold (strict), for ``returns`` and ``w1`` of
    one length.

    The jump size at a flagged index is the raw return there, and an
    exactly zero return is never flagged. A zero threshold marks the day
    degenerate and no index is flagged.
    """
    degenerate = threshold == 0.0
    flagged = (np.abs(w1) > threshold) & (returns != 0.0) & (not degenerate)
    return JumpSeries(np.where(flagged, returns, 0.0), degenerate)


def haar_detect(returns: np.ndarray) -> JumpSeries:
    """Universal-threshold detection on the Haar level-1 coefficients of a day.

    The aligned Haar level-1 MODWT coefficient of the anchored cumulative
    path P = [0, r_0, r_0 + r_1, ...] at interval i is (P_{i+1} - P_i) / 2,
    that is exactly r_i / 2 (Percival & Walden, 2000, ch. 5), so the
    coefficients are formed from the returns without running the
    transform. Every coefficient belongs to its own interval.
    """
    w1 = 0.5 * returns
    return detect_jumps(returns, w1, universal_threshold(w1))


def adjust_returns(returns: np.ndarray, jumps: JumpSeries) -> np.ndarray:
    """Jump-adjusted series of ``returns``, the day ``jumps`` was detected on: flagged
    positions become exactly zero."""
    return np.where(jumps.jump_sizes != 0.0, 0.0, returns)


def cojump_variation(jumps_1: JumpSeries, jumps_2: JumpSeries):
    """Co-jump variation of a pair of one day's jump series and the shared jump indices.

    CJ is the sum over the intersection of the two index sets of the
    signed size products; disjoint jumps contribute exactly zero.
    """
    common = np.flatnonzero((jumps_1.jump_sizes != 0.0) & (jumps_2.jump_sizes != 0.0))
    cj = float((jumps_1.jump_sizes[common] * jumps_2.jump_sizes[common]).sum())
    return cj, common


def realized_covariance(returns_1: np.ndarray, returns_2: np.ndarray) -> float:
    """Realized covariance sum_i r1_i r2_i over one day of two equal-length series.

    The products are summed with ``math.fsum`` (correctly rounded), not
    a BLAS dot, so the value does not depend on the BLAS kernel.
    """
    return math.fsum((returns_1 * returns_2).ravel().tolist())
