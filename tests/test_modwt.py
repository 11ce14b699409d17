"""Transform-level tests against a direct convolution-matrix oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cojump import modwt
from conftest import seeded


def _filter_matrix(filt: np.ndarray, step: int, m: int) -> np.ndarray:
    """Dense circulant operator for one pyramid stage."""
    a = np.zeros((m, m))
    for t in range(m):
        for l, c in enumerate(filt):
            a[t, (t - step * l) % m] += c
    return a


def oracle_modwt(x, pair, levels, boundary):
    """Independent pyramid: explicit matrix products, no shared code paths."""
    series = np.concatenate([x, x[::-1]]) if boundary == "reflecting" else np.asarray(x, float)
    m = series.size
    v = series.astype(float)
    rows = []
    for j in range(1, levels + 1):
        step = 2 ** (j - 1)
        rows.append(_filter_matrix(pair.h_arr(), step, m) @ v)
        v = _filter_matrix(pair.g_arr(), step, m) @ v
    return rows, v


# --- filter bank ---


def test_haar_coefficients():
    pair = modwt.haar()
    assert pair.h == (0.5, -0.5)
    assert pair.g == (0.5, 0.5)


def test_d4_identities_tight():
    pair = modwt.d4()
    h, g = pair.h_arr(), pair.g_arr()
    assert abs(h.sum()) < 1e-12
    assert abs(g.sum() - 1.0) < 1e-12
    assert abs((h * h).sum() - 0.5) < 1e-12
    assert abs((g * g).sum() - 0.5) < 1e-12
    assert abs((h[:2] * h[2:]).sum()) < 1e-12
    assert abs((g[:2] * g[2:]).sum()) < 1e-12
    # quadrature mirror relation ties the two filters together
    for l in range(4):
        assert h[l] == pytest.approx((-1.0) ** l * g[3 - l], abs=1e-15)


def test_shipped_filter_lookup():
    assert modwt.shipped_filters("haar").name == "haar"
    assert modwt.shipped_filters("d4").width == 4
    with pytest.raises(ValueError, match="unknown filter"):
        modwt.shipped_filters("sym8")


def test_bad_filter_rejected():
    with pytest.raises(ValueError, match="identities violated"):
        modwt.FilterPair("broken", (0.5, -0.4), (0.5, 0.5))
    with pytest.raises(ValueError, match="equal-length"):
        modwt.FilterPair("ragged", (0.5, -0.5), (0.5, 0.25, 0.25))


def test_filter_width_rule():
    # L_j = 2^(j-1) (L - 1) + 1
    assert modwt.filter_width(modwt.haar(), 1) == 2
    assert modwt.filter_width(modwt.haar(), 3) == 5
    assert modwt.filter_width(modwt.d4(), 1) == 4
    assert modwt.filter_width(modwt.d4(), 2) == 7
    assert modwt.filter_width(modwt.d4(), 4) == 25


# --- forward transform ---


@pytest.mark.parametrize("name", ["haar", "d4"])
@pytest.mark.parametrize("boundary", modwt.BOUNDARIES)
def test_constant_series(name, boundary):
    pair = modwt.shipped_filters(name)
    x = np.full(32, 3.25)
    dec = modwt.modwt_forward(x, pair, 3, boundary)
    for w in dec.W:
        assert np.max(np.abs(w)) < 1e-14
    assert dec.V == pytest.approx(np.full(32, 3.25), abs=1e-13)


def test_haar_level1_is_scaled_difference():
    x = seeded("haar-diff").standard_normal(40)
    dec = modwt.modwt_forward(x, modwt.haar(), 1, "circular")
    expected = 0.5 * (x - np.roll(x, 1))
    assert dec.W[0] == pytest.approx(expected, abs=1e-15)
    assert dec.V == pytest.approx(0.5 * (x + np.roll(x, 1)), abs=1e-15)


@pytest.mark.parametrize("name,n,levels", [("d4", 64, 3), ("haar", 37, 2), ("d4", 50, 2)])
@pytest.mark.parametrize("boundary", modwt.BOUNDARIES)
def test_matches_convolution_matrix_oracle(name, n, levels, boundary):
    pair = modwt.shipped_filters(name)
    x = seeded("oracle", name, n, boundary).standard_normal(n)
    dec = modwt.modwt_forward(x, pair, levels, boundary)
    rows, v = oracle_modwt(x, pair, levels, boundary)
    for j in range(levels):
        assert dec.W[j] == pytest.approx(rows[j][:n], abs=1e-12)
        assert len(dec.W[j]) == n
    assert dec.V == pytest.approx(v[:n], abs=1e-12)


def test_energy_identity_spec_case():
    x = seeded("energy64").standard_normal(64)
    dec = modwt.modwt_forward(x, modwt.d4(), 3, "reflecting")
    total = dec.level_energies().sum()
    assert total == pytest.approx(float(x @ x), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(16, 256),
    name=st.sampled_from(["haar", "d4"]),
    boundary=st.sampled_from(modwt.BOUNDARIES),
)
def test_energy_identity_property(seed, n, name, boundary):
    pair = modwt.shipped_filters(name)
    levels = modwt.max_levels(n, pair, boundary)
    x = seeded("energy", seed).standard_normal(n)
    dec = modwt.modwt_forward(x, pair, levels, boundary)
    assert dec.level_energies().sum() == pytest.approx(float(x @ x), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_linearity(seed, a, b):
    rng = seeded("linear", seed)
    x = rng.standard_normal(48)
    y = rng.standard_normal(48)
    dec_x = modwt.modwt_forward(x, modwt.d4(), 2, "reflecting")
    dec_y = modwt.modwt_forward(y, modwt.d4(), 2, "reflecting")
    dec_mix = modwt.modwt_forward(a * x + b * y, modwt.d4(), 2, "reflecting")
    for j in range(2):
        assert dec_mix.W[j] == pytest.approx(a * dec_x.W[j] + b * dec_y.W[j], abs=1e-12)
    assert dec_mix.V == pytest.approx(a * dec_x.V + b * dec_y.V, abs=1e-12)


def test_shift_covariance_circular():
    x = seeded("shift").standard_normal(64)
    base = modwt.modwt_forward(x, modwt.d4(), 3, "circular")
    for s in (1, 5, 31):
        shifted = modwt.modwt_forward(np.roll(x, s), modwt.d4(), 3, "circular")
        for j in range(3):
            assert shifted.W[j] == pytest.approx(np.roll(base.W[j], s), abs=1e-12)
        assert shifted.V == pytest.approx(np.roll(base.V, s), abs=1e-12)


def test_cross_products_match_energies():
    x = seeded("cross").standard_normal(50)
    dec = modwt.modwt_forward(x, modwt.d4(), 2, "reflecting")
    assert dec.cross_products(dec) == pytest.approx(dec.level_energies(), rel=1e-14)


def test_cross_products_require_comparable_runs():
    x = seeded("cross2").standard_normal(50)
    a = modwt.modwt_forward(x, modwt.d4(), 2, "reflecting")
    b = modwt.modwt_forward(x, modwt.d4(), 2, "circular")
    with pytest.raises(ValueError, match="not comparable"):
        a.cross_products(b)


def test_depth_validation():
    x = np.zeros(8)
    with pytest.raises(ValueError, match="levels"):
        modwt.modwt_forward(x, modwt.haar(), 0)
    with pytest.raises(ValueError, match="levels"):
        modwt.modwt_forward(x, modwt.haar(), 4)  # floor(log2 8) = 3
    # D(4) level 3 width is 13: too wide for circular N=8, fine after reflection
    with pytest.raises(ValueError, match="width"):
        modwt.modwt_forward(x, modwt.d4(), 3, "circular")
    modwt.modwt_forward(x, modwt.d4(), 3, "reflecting")
    with pytest.raises(ValueError, match="boundary"):
        modwt.modwt_forward(x, modwt.haar(), 1, "mirror")
    with pytest.raises(ValueError, match="1-d"):
        modwt.modwt_forward(np.zeros((2, 8)), modwt.haar(), 1)


def test_max_levels_agrees_with_validation():
    for n in (8, 13, 64, 540):
        for name in ("haar", "d4"):
            pair = modwt.shipped_filters(name)
            for boundary in modwt.BOUNDARIES:
                j = modwt.max_levels(n, pair, boundary)
                assert j >= 1
                modwt.modwt_forward(np.zeros(n), pair, j, boundary)
                if j < math.floor(math.log2(n)):
                    with pytest.raises(ValueError):
                        modwt.modwt_forward(np.zeros(n), pair, j + 1, boundary)
