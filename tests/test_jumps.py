"""Detection, adjustment, and co-jump variation rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cojump import jumps, modwt
from conftest import seeded


def oracle_threshold(w1) -> float:
    """Direct re-evaluation of the threshold formula, scalar arithmetic."""
    mags = sorted(abs(float(v)) for v in w1)
    n = len(mags)
    med = mags[n // 2] if n % 2 else 0.5 * (mags[n // 2 - 1] + mags[n // 2])
    return math.sqrt(2.0) * med * math.sqrt(2.0 * math.log(n)) / 0.6745


# --- universal threshold ---


def test_threshold_reference_value():
    w1 = np.full(1024, 0.001)
    w1[::2] *= -1.0
    xi = jumps.universal_threshold(w1)
    assert xi == pytest.approx(0.007807, abs=5e-7)


def test_threshold_against_oracle_50_draws():
    for k in range(50):
        w1 = seeded("thresh", k).standard_normal(2 + k * 7) * 1e-3
        assert jumps.universal_threshold(w1) == pytest.approx(oracle_threshold(w1), abs=1e-12)


def test_threshold_all_zero_degenerate():
    assert jumps.universal_threshold(np.zeros(64)) == 0.0
    series = np.zeros(64)
    out = jumps.detect_jumps(series, series, 0.0)
    assert out.degenerate
    assert out.count == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 5e-324]),
                min_size=2, max_size=40))
def test_threshold_median_matches_np_median(values):
    """The median is np.median's, bit for bit: odd and even lengths, ties, signed
    zeros, infinities, and NaN, which makes the threshold NaN."""
    w1 = np.array(values)
    with np.errstate(over="ignore"):  # the mean of two middle values near the largest float
        expected = (math.sqrt(2.0) * float(np.median(np.abs(w1)))
                    * math.sqrt(2.0 * math.log(w1.size)) / jumps.MAD_NORMAL)
        got = jumps.universal_threshold(w1)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000), c=st.floats(1e-6, 1e6))
def test_threshold_homogeneity(seed, c):
    w1 = seeded("homog", seed).standard_normal(128)
    assert jumps.universal_threshold(c * w1) == pytest.approx(
        c * jumps.universal_threshold(w1), rel=1e-12
    )


# --- detection rule ---


def test_detect_threshold_rule():
    w1 = np.array([0.1, 0.9, 0.4])
    returns = np.array([0.01, -0.02, 0.03])
    out = jumps.detect_jumps(returns, w1, 0.5)
    assert out.jump_indices.tolist() == [1]
    assert out.jump_sizes.tolist() == [0.0, -0.02, 0.0]
    assert not out.degenerate


def test_detect_none_above_threshold():
    out = jumps.detect_jumps(np.ones(4), np.full(4, 0.2), 0.5)
    assert out.count == 0
    assert np.all(out.jump_sizes == 0.0)


def test_detect_strict_inequality():
    out = jumps.detect_jumps(np.ones(3), np.array([0.5, 0.5, 0.6]), 0.5)
    assert out.jump_indices.tolist() == [2]


def test_detect_zero_return_never_flagged():
    out = jumps.detect_jumps(np.array([0.0, 1.0]), np.array([0.9, 0.9]), 0.5)
    assert out.jump_indices.tolist() == [1]


# --- Haar detection: the closed form against the transform ---


def _oracle_w1(returns) -> np.ndarray:
    """Haar level-1 MODWT coefficients of the anchored cumulative path."""
    path = np.concatenate([[0.0], np.cumsum(returns)])
    return modwt.modwt_forward(path, modwt.haar(), 1, "reflecting").W[0][1:]


def test_haar_detect_matches_transform_oracle():
    """w1 = r / 2 up to cumsum rounding, with the transform's flags, on 600 days."""
    rng = seeded("haar-oracle")
    degenerate = 0
    for day in range(600):
        r = rng.standard_normal(540) * 10.0 ** rng.uniform(-5, -2)
        r[rng.random(540) < rng.uniform(0.0, 0.6)] = 0.0  # stale intervals
        for i in rng.choice(540, size=int(rng.integers(0, 4)), replace=False):
            r[i] = rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 12.0) * np.std(r)
        w1 = _oracle_w1(r)
        eps = np.finfo(float).eps * np.max(np.abs(np.cumsum(r)))
        assert np.max(np.abs(w1 - 0.5 * r)) <= 2.0 * eps, day
        oracle = jumps.detect_jumps(r, w1, jumps.universal_threshold(w1))
        live = jumps.haar_detect(r)
        assert live.jump_indices.tolist() == oracle.jump_indices.tolist(), day
        assert np.array_equal(live.jump_sizes, oracle.jump_sizes)
        assert live.degenerate == oracle.degenerate
        assert not (live.degenerate and live.count)  # a zero threshold flags nothing
        degenerate += live.degenerate
    assert 0 < degenerate < 600  # both threshold branches ran


def test_haar_detect_flags_a_jump_at_its_own_index():
    """An 8-sigma return is flagged at its index, both ends of the day included."""
    noise = seeded("haar-align").standard_normal(540) * 1e-3
    assert jumps.haar_detect(noise).count == 0
    for k in range(noise.size):
        r = noise.copy()
        r[k] = 8e-3
        assert jumps.haar_detect(r).jump_indices.tolist() == [k]


# --- adjustment ---


def test_adjust_no_jumps_identity():
    r = seeded("adj").standard_normal(16)
    out = jumps.detect_jumps(r, np.zeros(16), 1.0)
    assert jumps.adjust_returns(r, out) == pytest.approx(r, abs=0.0)


def test_adjust_example():
    r = np.array([0.01, -0.30, 0.02])
    js = jumps.JumpSeries(jump_sizes=[0.0, -0.30, 0.0])
    adj = jumps.adjust_returns(r, js)
    assert adj.tolist() == [0.01, 0.0, 0.02]


def test_adjust_all_flagged_zeroes_series():
    r = np.array([0.5, -0.5])
    js = jumps.JumpSeries(jump_sizes=[0.5, -0.5])
    assert jumps.adjust_returns(r, js).tolist() == [0.0, 0.0]


# --- co-jump variation ---


def _series(n, sized: dict, **kw):
    sizes = np.zeros(n)
    for i, s in sized.items():
        sizes[i] = s
    return jumps.JumpSeries(jump_sizes=sizes, **kw)


def test_cojump_example_shared_index():
    a = _series(64, {10: 0.002, 50: 0.004})
    b = _series(64, {50: 0.003})
    cj, common = jumps.cojump_variation(a, b)
    assert cj == pytest.approx(1.2e-5, rel=1e-12)
    assert common.tolist() == [50]


def test_cojump_disjoint_is_zero():
    a = _series(32, {3: 0.01})
    b = _series(32, {7: -0.01})
    cj, common = jumps.cojump_variation(a, b)
    assert cj == 0.0
    assert common.size == 0


def test_cojump_opposite_signs():
    a = _series(32, {9: 0.004})
    b = _series(32, {9: -0.002})
    cj, _ = jumps.cojump_variation(a, b)
    assert cj == pytest.approx(-8e-6, rel=1e-12)


def test_cojump_symmetry():
    a = _series(32, {3: 0.01, 9: 0.004})
    b = _series(32, {9: -0.002, 20: 0.05})
    assert jumps.cojump_variation(a, b)[0] == jumps.cojump_variation(b, a)[0]


def test_disjoint_jump_immunity():
    """A huge jump in one series alone never moves CJ off zero."""
    b = _series(64, {11: 0.001})
    for size in (0.01, 1.0, 100.0):
        a = _series(64, {40: size})
        assert jumps.cojump_variation(a, b)[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 47)), st.sets(st.integers(0, 47)))
def test_cojump_variation_matches_intersect1d(indices_1, indices_2):
    """The shared indices are np.intersect1d's, values, dtype and order, and CJ sums
    the size products over them."""
    a = _series(48, {i: 0.001 * (i + 1) for i in indices_1})
    b = _series(48, {i: -0.002 * (i + 1) for i in indices_2})
    expected = np.intersect1d(a.jump_indices, b.jump_indices)
    cj, common = jumps.cojump_variation(a, b)
    assert common.dtype == expected.dtype
    assert common.tolist() == expected.tolist()
    assert cj == float((a.jump_sizes[expected] * b.jump_sizes[expected]).sum())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_threshold_monotonicity(seed):
    rng = seeded("mono", seed)
    r = rng.standard_normal(64)
    w1 = rng.standard_normal(64)
    lo = jumps.detect_jumps(r, w1, 0.5)
    hi = jumps.detect_jumps(r, w1, 1.1)
    assert set(hi.jump_indices.tolist()) <= set(lo.jump_indices.tolist())


# --- realized covariance and the decomposition identity ---


def test_rc_example():
    x = np.array([0.01, -0.02, 0.03])
    y = np.array([0.02, 0.01, -0.01])
    assert jumps.realized_covariance(x, y) == pytest.approx(-3e-4, rel=1e-12)


def test_rc_self_nonnegative():
    x = seeded("rcself").standard_normal(256)
    assert jumps.realized_covariance(x, x) >= 0.0


def test_rc_against_independent_accumulation():
    rng = seeded("rcacc")
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    expected = math.fsum(float(a) * float(b) for a, b in zip(reversed(x), reversed(y)))
    assert jumps.realized_covariance(x, y) == pytest.approx(expected, rel=1e-15)


def test_decomposition_identity_exact():
    """QV(Y) = QV(Y_adj) + CJ + cross terms, algebraically."""
    rng = seeded("decomp")
    r1 = rng.standard_normal(128) * 1e-3
    r2 = rng.standard_normal(128) * 1e-3
    r1[40] += 0.05
    r2[40] += 0.04
    r1[90] -= 0.06
    j1 = jumps.detect_jumps(r1, np.abs(r1), 0.01)
    j2 = jumps.detect_jumps(r2, np.abs(r2), 0.01)
    a1 = jumps.adjust_returns(r1, j1)
    a2 = jumps.adjust_returns(r2, j2)
    cj, _ = jumps.cojump_variation(j1, j2)
    cross = float(np.dot(j1.jump_sizes, a2) + np.dot(a1, j2.jump_sizes))
    qv = jumps.realized_covariance(r1, r2)
    parts = jumps.realized_covariance(a1, a2) + cj + cross
    assert qv == pytest.approx(parts, rel=1e-14)
