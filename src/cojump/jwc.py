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
matrix and the bootstrap's batches; the bootstrap hands it one block of
whole null replications, both legs of each, of about 2**14 returns at a
time, so the temporaries stay cache-sized. With S = 1 the fine-grid term
is the plain realized covariance, which the bootstrap has already summed
and passes in. No wavelet filter, boundary rule or depth enters the
number. Every panel of a run is on the session's N intervals, so S, G and
N arrive resolved once per run, in the config reader (``spec.resolve_jwc``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import JwcConfig


@dataclass
class IcMatrix:
    """Integrated covariance estimate for one day's panel."""

    values: np.ndarray            # (d, d) symmetric
    floored: np.ndarray           # (d,) True where a negative diagonal was set to 0


def _window_sums(r: np.ndarray, spacing: int) -> np.ndarray:
    """Sums of every length-``spacing`` window of each row of ``r`` (..., N), by doubling.

    The rows are doubled as one vector laid end to end, and the result is
    viewed back as rows: a window that crosses a row's end starts past that
    row's last full window, so no row's view reaches it. Each window sum is
    the same sequence of additions as on its row alone.
    """
    r = np.ascontiguousarray(r)
    w = r.reshape(-1)
    m = w.size - spacing + 1
    width, pos, out = 1, 0, None
    while True:
        if spacing & width:
            piece = w[pos:pos + m]
            out = piece if out is None else out + piece
            pos += width
        if 2 * width > spacing:
            break
        w = w[:-width] + w[width:]
        width *= 2
    rows = r.shape[:-1] + (r.shape[-1] - spacing + 1,)
    return np.lib.stride_tricks.as_strided(out, rows, r.strides[:-1] + out.strides, writeable=False)


def _end_sums(r: np.ndarray, spacing: int) -> np.ndarray:
    """Prefix and suffix sums of lengths 1..spacing-1 along the last axis."""
    ends = (r[..., :spacing - 1], r[..., :-spacing:-1])
    return np.concatenate([np.cumsum(e, axis=-1) for e in ends], axis=-1)


def _two_scale(r: np.ndarray, a: tuple, b: tuple, res: JwcConfig, fine=None) -> np.ndarray:
    """Two-scale realized covariance of the return rows ``r[a]`` against ``r[b]``.

    ``r`` is (..., N); each grid's window and end sums are taken once over
    all its rows, then the index tuples ``a`` and ``b`` pick the two
    operands of every product. Each grid's term is the window identity
    above, summed with numpy's pairwise ``.sum``. No BLAS call is involved,
    so the bytes do not depend on the BLAS kernel, and swapping ``a`` and
    ``b`` gives the same bits. ``fine``, when given with S = 1, is the
    fine-grid term (the plain realized covariance) and is not recomputed.
    """
    terms = []
    for spacing in (res.g_spacing, res.s_spacing):
        if spacing == 1 and fine is not None:
            terms.append(fine)
            continue
        w = _window_sums(r, spacing)
        total = (w[a] * w[b]).sum(axis=-1)
        if spacing > 1:
            e = _end_sums(r, spacing)
            total = total + (e[a] * e[b]).sum(axis=-1)
        terms.append(total / spacing)
    slow, fast = terms
    return res.c_n * (slow - res.subsample_ratio * fast)


def jwc_integrated_covariance(adjusted: np.ndarray, config: JwcConfig) -> IcMatrix:
    """JWC integrated covariance matrix of a day's jump-adjusted panel.

    ``adjusted`` is the d x N float matrix of jump-adjusted log returns,
    N that of ``config``. The matrix is symmetric by construction; negative
    diagonal entries, a known finite-sample artifact of two-scale
    corrections, are floored at zero and flagged.
    """
    values = _two_scale(adjusted, np.s_[:, None], np.s_[None, :], config)
    floored = values.diagonal() < 0.0
    values[floored, floored] = 0.0
    return IcMatrix(values=values, floored=floored)


def jwc_pair_entry(legs: np.ndarray, res: JwcConfig, fine=None) -> np.ndarray:
    """Single covariance entry of each leg pair in ``legs`` (..., 2, N).

    Row ``[..., 0, :]`` is crossed with row ``[..., 1, :]``, so a (2, N)
    pair gives one entry and an (R, 2, N) block R of them. The bootstrap
    passes one block of whole null replications at a time, both legs
    windowed in one pass, with their realized covariances as ``fine``.
    """
    return _two_scale(legs, np.s_[..., 0, :], np.s_[..., 1, :], res, fine)
