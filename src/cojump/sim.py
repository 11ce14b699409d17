"""Ground-truth simulator: correlated diffusions with jumps and noise.

Each day is an Euler scheme on the N-interval grid. The latent
continuous return of instrument l in interval i is

    mu_l + sigma_l * sqrt(1/N) * pattern_i * eps_{l,i}

with standard normal eps correlated at rho across instruments, so the
daily integrated variance of leg l is sigma_l^2 (times the pattern's
mean square, which is normalized to one). Jumps are added afterwards at
fixed (day, index) locations, which keeps the additivity property: a
run with jumps equals the no-jump run plus the jump vectors under the
same seed. Observed prices are the latent path plus i.i.d. noise, so
observed returns carry the noise first difference.

Randomness: numpy's PCG64 generator seeded through SeedSequence. The
scenario seed spawns one child stream per day, in day order, so results
do not depend on scheduling. Per day the draw order is fixed: the
(d, N) diffusion normals first, then the (d, N + 1) noise levels.

``simulate`` yields the days one at a time and draws each only when it
is reached, so a consumer that writes each day and drops it, as the
``simulate`` stage does, holds one day whatever the scenario's length.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .spec import MalformedFile

VOL_PATTERNS = ("flat", "u_shape")


def _as_tuple(value, d: int, name: str) -> tuple:
    if np.isscalar(value):
        return (float(value),) * d
    out = tuple(float(v) for v in value)
    if len(out) != d:
        raise ValueError(f"{name} must have one entry per instrument")
    return out


@dataclass(frozen=True)
class SimScenario:
    """Parameters of a simulated panel.

    ``sigma`` is the per-leg daily diffusion scale: with a flat pattern
    the true integrated variance of leg l is exactly sigma[l]^2 per
    day. ``jumps`` lists (day, index, size_1, ..., size_d) tuples; zero
    sizes express disjoint jumps.
    """

    n_intervals: int
    n_days: int
    sigma: tuple
    mu: object = 0.0
    rho: float = 0.0
    noise_sd: float = 0.0
    jumps: tuple = ()
    seed: int = 0
    vol_pattern: str = "flat"

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(float(s) for s in np.atleast_1d(self.sigma)))
        d = len(self.sigma)
        object.__setattr__(self, "mu", _as_tuple(self.mu, d, "mu"))
        object.__setattr__(self, "jumps", tuple(tuple(j) for j in self.jumps))
        if self.n_intervals < 2:
            raise ValueError("need at least two intervals per day")
        if self.n_days < 1:
            raise ValueError("need at least one day")
        if not abs(self.rho) <= 1.0:
            raise ValueError("|rho| must not exceed 1")
        if d >= 3 and self.rho != 1.0:
            _cholesky(self.rho, d)
        if any(s < 0 for s in self.sigma) or self.noise_sd < 0:
            raise ValueError("scales must be non-negative")
        if self.vol_pattern not in VOL_PATTERNS:
            raise ValueError(f"unknown vol_pattern {self.vol_pattern!r}")
        for j in self.jumps:
            if len(j) != 2 + d:
                raise ValueError("each jump is (day, index, size per instrument)")
            day, index = int(j[0]), int(j[1])
            if not (0 <= day < self.n_days and 0 <= index < self.n_intervals):
                raise ValueError(f"jump location {j} outside the panel")
            if not all(math.isfinite(float(s)) for s in j[2:]):
                raise ValueError("jump sizes must be finite")

    @property
    def d(self) -> int:
        return len(self.sigma)


@dataclass
class SimDay:
    """One simulated day with its ground truth."""

    observed: np.ndarray     # (d, N) returns including jumps and noise
    true_ic: np.ndarray      # (d, d)
    true_cj: np.ndarray      # (d, d)


def volatility_pattern(scenario: SimScenario) -> np.ndarray:
    """Deterministic intraday modulation with mean square one."""
    n = scenario.n_intervals
    if scenario.vol_pattern == "flat":
        return np.ones(n)
    u = (np.arange(n) + 0.5) / n
    raw = 0.75 + 1.5 * (2.0 * u - 1.0) ** 2
    return raw / math.sqrt(float(np.mean(raw**2)))


def _cholesky(rho: float, d: int) -> np.ndarray:
    """Cholesky factor of the d x d equicorrelation matrix; ValueError if it has none."""
    corr = np.full((d, d), rho)
    np.fill_diagonal(corr, 1.0)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"rho={rho} is not a valid equicorrelation for d={d}") from exc


def _correlate(eta: np.ndarray, rho: float, chol) -> np.ndarray:
    """The d rows of ``eta`` correlated at ``rho``; ``chol`` is ``_cholesky(rho, d)`` when
    d >= 3 and rho < 1, else None."""
    d = len(eta)
    if d == 1:
        return eta
    if d == 2:
        out = np.empty_like(eta)
        out[0] = eta[0]
        out[1] = rho * eta[0] + math.sqrt(max(0.0, 1.0 - rho * rho)) * eta[1]
        return out
    if chol is None:  # rho = 1
        return np.broadcast_to(eta[:1], eta.shape).copy()
    # Row i is chol[i, 0] * eta[0] + ... + chol[i, i] * eta[i], summed
    # left to right elementwise: a matrix product would hand the sum to
    # the BLAS kernel, whose order and FMA use vary between machines.
    out = np.empty_like(eta)
    for i in range(d):
        row = chol[i, 0] * eta[0]
        for k in range(1, i + 1):
            row = row + chol[i, k] * eta[k]
        out[i] = row
    return out


def _exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) rounded once; NaN where fsum has no float to give: an inf and a -inf
    term, or finite terms whose sum leaves the float range."""
    try:
        return math.fsum((a * b).tolist())
    except (ValueError, OverflowError):
        return math.nan


def simulate(scenario: SimScenario):
    """The days of a scenario in day order, each drawn as the iterator reaches it;
    deterministic under the scenario seed."""
    n, d = scenario.n_intervals, scenario.d
    sigma = np.asarray(scenario.sigma)
    mu = np.asarray(scenario.mu)
    pattern = volatility_pattern(scenario)
    scale = sigma[:, None] * pattern[None, :] / math.sqrt(n)

    # Closed-form truth shared by all days: equicorrelation times scales.
    corr = np.full((d, d), scenario.rho)
    np.fill_diagonal(corr, 1.0)
    ic = corr * np.outer(sigma, sigma) * float(np.mean(pattern**2))
    chol = _cholesky(scenario.rho, d) if d >= 3 and scenario.rho != 1.0 else None

    by_day: dict = {}
    for j in scenario.jumps:
        by_day.setdefault(int(j[0]), []).append(j)

    root = np.random.SeedSequence(scenario.seed)
    for k in range(scenario.n_days):
        rng = np.random.default_rng(root.spawn(1)[0])  # spawn(n_days)[k], spawned as it is drawn
        eta = rng.standard_normal((d, n))
        noise = rng.standard_normal((d, n + 1)) * scenario.noise_sd
        latent = mu[:, None] + scale * _correlate(eta, scenario.rho, chol)
        jump_vectors = np.zeros((d, n))
        with np.errstate(over="ignore", invalid="ignore"):  # the CLI refuses a non-finite truth
            for j in by_day.get(k, ()):
                jump_vectors[:, int(j[1])] += np.asarray(j[2:], dtype=float)
            true_cj = np.array([[_exact_dot(a, b) for b in jump_vectors] for a in jump_vectors])
        observed = latent + jump_vectors
        if scenario.noise_sd > 0.0:
            observed = observed + np.diff(noise, axis=1)
        yield SimDay(observed=observed, true_ic=ic.copy(), true_cj=true_cj)


def business_dates(start: dt.date, count: int) -> list:
    """The first ``count`` weekdays at or after ``start``."""
    out = []
    current = start
    while len(out) < count:
        if current.weekday() < 5:
            out.append(current)
        current += dt.timedelta(days=1)
    return out


_SCALAR_KEYS = {
    "n_intervals": int,
    "n_days": int,
    "rho": float,
    "noise_sd": float,
    "seed": int,
    "vol_pattern": str,
}


def read_scenario(path) -> SimScenario:
    """Parse the key = value scenario format.

    One ``key = value`` pair per line; '#' starts a comment. ``sigma``
    and ``mu`` take comma-separated per-leg values; each ``jump`` line
    adds one (day, index, sizes...) tuple and may repeat. A file that is not
    UTF-8 or whose values make no scenario raises MalformedFile naming it, and
    a line that does not parse one naming the file and line.
    """
    fields: dict = {}
    jumps = []
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ValueError("expected key = value")
            if key == "jump":
                parts = [p.strip() for p in value.split(",")]
                jumps.append(
                    tuple([int(parts[0]), int(parts[1])] + [float(p) for p in parts[2:]])
                )
            elif key in ("sigma", "mu"):
                fields[key] = tuple(float(p) for p in value.split(","))
            elif key in _SCALAR_KEYS:
                fields[key] = _SCALAR_KEYS[key](value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            raise MalformedFile(f"{path}:{lineno}: {exc}") from exc
    if "sigma" not in fields:
        raise MalformedFile(f"{path}: sigma is required")
    try:
        return SimScenario(jumps=tuple(jumps), **fields)
    except ValueError as exc:  # a value out of range, or values that do not fit together
        raise MalformedFile(f"{path}: {exc}") from exc
