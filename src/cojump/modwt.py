"""Reference maximal overlap discrete wavelet transform (MODWT).

The pipeline runs no transform: jump detection thresholds the
closed-form Haar level-1 coefficient r_i / 2 (``jumps.haar_detect``) and
the estimator computes the two-scale realized covariance that the
summed wavelet scales equal (``jwc``). This module holds the transform
and the shipped Haar and D(4) filter pairs that those closed forms are
tested against, and the energy identity the estimator's closed form
rests on.

The transform is undecimated: every level produces one coefficient per
input observation. Two boundary policies are supported. ``circular``
treats the series as periodic. ``reflecting`` analyses the even
reflection of the series (length 2N) with circular filtering and keeps
the first N coefficients of every level as the positional view; energy
and cross-product accounting always run over the complete reflected
analysis, where the transform is exactly norm-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_TOL = 1e-12

BOUNDARIES = ("circular", "reflecting")


@dataclass(frozen=True)
class FilterPair:
    """MODWT-scaled wavelet filter h and scaling filter g.

    Coefficients are stored as tuples so the pair is hashable; they are
    validated at construction against the defining identities:
    sum(h) = 0, sum(g) = 1, sum(h^2) = sum(g^2) = 1/2, and even shifts
    of each filter are mutually orthogonal, all to 1e-12.
    """

    name: str
    h: tuple
    g: tuple

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if h.ndim != 1 or g.ndim != 1 or h.size != g.size or h.size < 2:
            raise ValueError("filter pair must be two equal-length vectors, length >= 2")
        checks = [
            ("sum(h) = 0", abs(h.sum())),
            ("sum(g) = 1", abs(g.sum() - 1.0)),
            ("sum(h^2) = 1/2", abs((h * h).sum() - 0.5)),
            ("sum(g^2) = 1/2", abs((g * g).sum() - 0.5)),
        ]
        L = h.size
        for n in range(1, (L - 1) // 2 + 1):
            checks.append(
                (f"h even-shift orthogonality (n={n})", abs((h[: L - 2 * n] * h[2 * n :]).sum()))
            )
            checks.append(
                (f"g even-shift orthogonality (n={n})", abs((g[: L - 2 * n] * g[2 * n :]).sum()))
            )
        bad = [(label, err) for label, err in checks if err > _TOL]
        if bad:
            raise ValueError(f"filter identities violated for {self.name!r}: {bad}")

    @property
    def width(self) -> int:
        return len(self.h)

    def h_arr(self) -> np.ndarray:
        return np.asarray(self.h, dtype=float)

    def g_arr(self) -> np.ndarray:
        return np.asarray(self.g, dtype=float)


def haar() -> FilterPair:
    """Haar MODWT pair: h = (1/2, -1/2), g = (1/2, 1/2)."""
    return FilterPair("haar", (0.5, -0.5), (0.5, 0.5))


def d4() -> FilterPair:
    """Extremal-phase Daubechies 4-tap pair at MODWT scaling.

    The scaling coefficients are the standard D(4) values divided by
    sqrt(2); the wavelet filter follows from the quadrature mirror
    relation h_l = (-1)^l g_{L-1-l}. Both are checked against the
    FilterPair identities rather than trusted as literals.
    """
    s3 = math.sqrt(3.0)
    g = ((1.0 + s3) / 8.0, (3.0 + s3) / 8.0, (3.0 - s3) / 8.0, (1.0 - s3) / 8.0)
    h = tuple((-1.0) ** l * g[len(g) - 1 - l] for l in range(len(g)))
    return FilterPair("d4", h, g)


_SHIPPED = {"haar": haar, "d4": d4}


def shipped_filters(name: str) -> FilterPair:
    try:
        return _SHIPPED[name]()
    except KeyError:
        raise ValueError(f"unknown filter {name!r}; shipped filters: {sorted(_SHIPPED)}")


def filter_width(filters: FilterPair, level: int) -> int:
    """Effective width L_j = 2^(j-1) (L - 1) + 1 of the level-j filter."""
    return (1 << (level - 1)) * (filters.width - 1) + 1


def max_levels(n: int, filters: FilterPair, boundary: str = "reflecting") -> int:
    """Largest depth allowed for a length-n series under the boundary policy."""
    cap = n if boundary == "circular" else 2 * n
    j = 0
    while (
        j + 1 <= int(math.floor(math.log2(n)))
        and filter_width(filters, j + 1) <= cap
    ):
        j += 1
    return j


def _check_depth(n: int, filters: FilterPair, levels: int, boundary: str) -> None:
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if n < 2:
        raise ValueError("series too short: need at least 2 observations")
    if levels < 1 or levels > int(math.floor(math.log2(n))):
        raise ValueError(f"levels={levels} outside [1, floor(log2 {n})]")
    cap = n if boundary == "circular" else 2 * n
    lj = filter_width(filters, levels)
    if lj > cap:
        raise ValueError(
            f"level-{levels} filter width {lj} exceeds the {boundary} support {cap}"
        )


def _pyramid(xm: np.ndarray, h: np.ndarray, g: np.ndarray, levels: int) -> np.ndarray:
    """Run the pyramid recursion on a length-M circular input.

    Returns an array of shape (levels + 1, M): wavelet coefficient rows
    W_1 .. W_J followed by the level-J scaling coefficients.
    """
    out = np.empty((levels + 1,) + xm.shape, dtype=float)
    v = xm
    for j in range(1, levels + 1):
        step = 1 << (j - 1)
        w = h[0] * v
        vn = g[0] * v
        for l in range(1, h.size):
            rolled = np.roll(v, l * step, axis=-1)
            w += h[l] * rolled
            vn += g[l] * rolled
        out[j - 1] = w
        v = vn
    out[levels] = v
    return out


@dataclass
class WaveletDecomposition:
    """Coefficients of one forward MODWT run.

    ``W`` exposes the J positional wavelet coefficient vectors and ``V``
    the scaling vector, each of length N (the first N coefficients of
    the analysis under the reflecting policy). ``level_energies`` and
    ``cross_products`` are computed over the complete internal analysis
    so that the energy identity sum(x^2) = sum_j sum(W_j^2) + sum(V^2)
    holds to machine precision under both boundary policies.
    """

    filters: FilterPair
    levels: int
    boundary: str
    n: int
    coeffs: np.ndarray = field(repr=False)  # (levels + 1, M) full analysis

    @property
    def W(self) -> list:
        return [self.coeffs[j][: self.n] for j in range(self.levels)]

    @property
    def V(self) -> np.ndarray:
        return self.coeffs[self.levels][: self.n]

    def level_energies(self) -> np.ndarray:
        """Energy per level (W_1 .. W_J, then V), full-analysis accounting."""
        m = self.coeffs.shape[-1]
        return (self.coeffs * self.coeffs).sum(axis=-1) * (self.n / m)

    def cross_products(self, other: "WaveletDecomposition") -> np.ndarray:
        """Per-level coefficient cross products against another decomposition."""
        if (
            other.n != self.n
            or other.levels != self.levels
            or other.boundary != self.boundary
        ):
            raise ValueError("decompositions are not comparable")
        m = self.coeffs.shape[-1]
        return (self.coeffs * other.coeffs).sum(axis=-1) * (self.n / m)


def modwt_forward(
    x: np.ndarray,
    filters: FilterPair,
    levels: int,
    boundary: str = "reflecting",
) -> WaveletDecomposition:
    """Forward MODWT of a 1-d series down to the requested depth.

    Implements W_{j,t} = sum_l h_l V_{j-1, (t - 2^(j-1) l) mod M} and the
    matching scaling recursion with V_0 = x, where M is the circular
    support (N, or 2N after even reflection).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("modwt_forward expects a 1-d series")
    _check_depth(x.size, filters, levels, boundary)
    series = np.concatenate([x, x[::-1]]) if boundary == "reflecting" else x
    coeffs = _pyramid(series, filters.h_arr(), filters.g_arr(), levels)
    return WaveletDecomposition(
        filters=filters, levels=levels, boundary=boundary, n=x.size, coeffs=coeffs
    )
