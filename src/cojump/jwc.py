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
noise bias.

Offset g of the grid of spacing G keeps the day's open and close and
puts interior points at g-1, g-1+G, ...; each length-G window of fine
returns is a full block of exactly one offset, and the head and tail
blocks of the G offsets take each length 0..G-1 once. So, as a
Bartlett-type realized kernel with end terms (Barndorff-Nielsen,
Hansen, Lunde and Shephard, 2008),

    G * RC_G = sum_{s=0..N-G} W_a[s] W_b[s] + sum_{L=1..G-1} (P_a[L] P_b[L] + T_a[L] T_b[L])

with W the window sums, built by binary doubling W_2k[s] = W_k[s] +
W_k[s+k], and P and T the prefix and suffix sums of length L. Dropping
the partial end blocks would shrink the average daily coverage by
(G-1)/N and bias the combination low by far more than its nominal
(1 - nbar_G/n_S) factor at desk-scale G. One kernel serves the day's
matrix and the bootstrap's batches; the bootstrap hands it one row
block of about 2**14 returns at a time, so the temporaries stay
cache-sized. No wavelet filter, boundary rule or depth enters the
number.
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


def _window_sums(r: np.ndarray, spacing: int) -> np.ndarray:
    """Sums of every length-``spacing`` window along the last axis, by doubling."""
    m = r.shape[-1] - spacing + 1
    w, width, pos, out = r, 1, 0, None
    while True:
        if spacing & width:
            piece = w[..., pos:pos + m]
            out = piece if out is None else out + piece
            pos += width
        if 2 * width > spacing:
            return out
        w = w[..., :-width] + w[..., width:]
        width *= 2


def _end_sums(r: np.ndarray, spacing: int) -> np.ndarray:
    """Prefix and suffix sums of lengths 1..spacing-1 along the last axis."""
    ends = (r[..., :spacing - 1], r[..., :-spacing:-1])
    return np.concatenate([np.cumsum(e, axis=-1) for e in ends], axis=-1)


def _two_scale(r_a: np.ndarray, r_b: np.ndarray, res: ResolvedJwc) -> np.ndarray:
    """Two-scale realized covariance of broadcastable return arrays (..., N).

    Each grid's term is the window identity above, summed with numpy's
    pairwise ``.sum``. No BLAS call is involved, so the bytes do not depend
    on the BLAS kernel, and swapping r_a and r_b gives the same bits.
    """
    terms = []
    for spacing in (res.g_spacing, res.s_spacing):
        total = (_window_sums(r_a, spacing) * _window_sums(r_b, spacing)).sum(axis=-1)
        if spacing > 1:
            total = total + (_end_sums(r_a, spacing) * _end_sums(r_b, spacing)).sum(axis=-1)
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
    res = config.resolve(r.shape[1])
    values = _two_scale(r[:, None, :], r[None, :, :], res)
    floored = values.diagonal() < 0.0
    values[floored, floored] = 0.0
    return IcMatrix(values=values, floored=floored)


def jwc_pair_entry(r_1: np.ndarray, r_2: np.ndarray, res: ResolvedJwc) -> np.ndarray:
    """Single covariance entry for batched return pairs of shape (..., N).

    Used by the bootstrap, which needs only one matrix entry per
    replication and passes its null days one row block at a time.
    """
    return _two_scale(np.asarray(r_1, dtype=float), np.asarray(r_2, dtype=float), res)
