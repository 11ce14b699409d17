"""Jump wavelet covariance (JWC) estimator of the integrated covariance.

The paper splits the jump-adjusted returns scale by scale with the
MODWT, combines a subsampled wavelet realized covariance on a coarse
grid of spacing G with the plain one on the fine grid of spacing S,
and sums the scales:

    IC[l1, l2] = sum_{j=1..J+1} c_N * ( IC_G(j) - (nbar_G / n_S) * IC_S(j) )

with nbar_G = (N - G + 1) / G and n_S = (N - S + 1) / S. The MODWT
conserves energy, so on every sub-grid the per-scale coefficient
products sum to the plain product of the returns. The sum over scales
is therefore the two-scale realized covariance of Zhang, Mykland and
Ait-Sahalia (2005):

    IC[l1, l2] = c_N * ( RC_G - (nbar_G / n_S) * RC_S )

where RC_G averages, over the G offsets of the coarse grid, the realized
covariance of the block-summed returns. Microstructure noise inflates
both terms by the same expected amount, so the combination cancels the
noise bias. This module computes that closed form, once, for both the
day's matrix and the bootstrap's batched pair entries; no wavelet
filter, boundary rule or depth enters the number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def default_g_spacing(n: int) -> int:
    """Default slow-grid spacing, the two-scale rule G ~ N^(2/3)."""
    return max(2, int(round(n ** (2.0 / 3.0))))


@dataclass(frozen=True)
class JwcConfig:
    """Estimator configuration.

    ``g_spacing`` defaults to the grid-size rule when left None.
    S = G = 1 is permitted as the degenerate identity case; otherwise
    S < G is required.
    """

    c_n: float = 1.0
    s_spacing: int = 1
    g_spacing: object = None

    def resolve(self, n: int) -> "ResolvedJwc":
        g = self.g_spacing if self.g_spacing is not None else default_g_spacing(n)
        s = self.s_spacing
        if not (1 <= s <= g <= n):
            raise ValueError(f"need 1 <= S <= G <= N, got S={s} G={g} N={n}")
        if s == g and g != 1:
            raise ValueError("S must be strictly smaller than G (except S = G = 1)")
        if 2 * g - 1 > n:
            raise ValueError(f"G={g} leaves offsets with no coarse return on N={n}")
        return ResolvedJwc(c_n=float(self.c_n), s_spacing=int(s), g_spacing=int(g), n=int(n))


@dataclass(frozen=True)
class ResolvedJwc:
    c_n: float
    s_spacing: int
    g_spacing: int
    n: int

    @property
    def subsample_ratio(self) -> float:
        nbar_g = (self.n - self.g_spacing + 1) / self.g_spacing
        n_s = (self.n - self.s_spacing + 1) / self.s_spacing
        return nbar_g / n_s


@dataclass
class IcMatrix:
    """Integrated covariance estimate for one day's panel."""

    values: np.ndarray            # (d, d) symmetric
    floored: np.ndarray           # (d,) True where a negative diagonal was set to 0


def _aggregate(returns: np.ndarray, spacing: int, offset: int) -> np.ndarray:
    """Block sums of returns on the sparse grid with 1-based offset.

    Offset g places interior grid points at {g-1, g-1+spacing, ...} and
    always keeps the day's open and close on the grid, so each offset's
    coarse returns partition the fine returns exactly once. Dropping the
    partial end blocks instead would shrink the average daily coverage
    by (G-1)/N and bias the two-scale combination low by far more than
    its nominal (1 - nbar_G/n_S) factor at desk-scale G.
    """
    n = returns.shape[-1]
    if spacing == 1:
        # Blocks of size one: returning the series itself keeps the
        # G = S = 1 degeneracy bitwise exact.
        return returns
    bounds = np.arange(offset - 1, n + 1, spacing)
    if bounds[0] != 0:
        bounds = np.concatenate(([0], bounds))
    starts = bounds[:-1] if bounds[-1] == n else bounds
    return np.add.reduceat(returns, starts, axis=-1)


def _two_scale(r_a: np.ndarray, r_b: np.ndarray, res: ResolvedJwc) -> np.ndarray:
    """Two-scale realized covariance of broadcastable return arrays (..., N).

    Each grid's term averages, over its offsets, the elementwise product
    sum of the block-summed returns. No BLAS call is involved, so the
    bytes do not depend on the BLAS kernel, and swapping r_a and r_b
    gives the same bits.
    """
    terms = []
    for spacing in (res.g_spacing, res.s_spacing):
        total = 0.0
        for g in range(1, spacing + 1):
            coarse_a = _aggregate(r_a, spacing, g)
            coarse_b = _aggregate(r_b, spacing, g)
            total = total + (coarse_a * coarse_b).sum(axis=-1)
        terms.append(total / spacing)
    slow, fast = terms
    return res.c_n * (slow - res.subsample_ratio * fast)


def jwc_integrated_covariance(adjusted: np.ndarray, config: JwcConfig) -> IcMatrix:
    """JWC integrated covariance matrix of a day's jump-adjusted panel.

    ``adjusted`` is the d x N matrix of jump-adjusted log returns. The
    matrix is symmetric by construction; negative diagonal entries, a
    known finite-sample artifact of two-scale corrections, are floored
    at zero and flagged.
    """
    r = np.atleast_2d(np.asarray(adjusted, dtype=float))
    d, n = r.shape
    res = config.resolve(n)
    values = _two_scale(r[:, None, :], r[None, :, :], res)
    floored = np.zeros(d, dtype=bool)
    for i in range(d):
        if values[i, i] < 0.0:
            values[i, i] = 0.0
            floored[i] = True
    return IcMatrix(values=values, floored=floored)


def jwc_pair_entry(r_1: np.ndarray, r_2: np.ndarray, res: ResolvedJwc) -> np.ndarray:
    """Single covariance entry for batched return pairs of shape (..., N).

    Used by the bootstrap, which needs only one matrix entry per
    replication; the whole batch goes through one vectorized call.
    """
    return _two_scale(r_1, r_2, res)
