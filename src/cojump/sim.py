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
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .ticks import MalformedFile, ReturnPanel, SessionSpec

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

    day_index: int
    observed: np.ndarray     # (d, N) returns including jumps and noise
    latent: np.ndarray       # (d, N) continuous returns, no jumps, no noise
    jump_vectors: np.ndarray  # (d, N) true jump sizes, zero elsewhere
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


def _correlate(eta: np.ndarray, rho: float, d: int) -> np.ndarray:
    if d == 1:
        return eta
    if d == 2:
        out = np.empty_like(eta)
        out[0] = eta[0]
        out[1] = rho * eta[0] + math.sqrt(max(0.0, 1.0 - rho * rho)) * eta[1]
        return out
    if rho == 1.0:
        return np.broadcast_to(eta[:1], eta.shape).copy()
    corr = np.full((d, d), rho)
    np.fill_diagonal(corr, 1.0)
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"rho={rho} is not a valid equicorrelation for d={d}") from exc
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


def simulate(scenario: SimScenario) -> list:
    """All days of a scenario, deterministic under the scenario seed."""
    n, d = scenario.n_intervals, scenario.d
    sigma = np.asarray(scenario.sigma)
    mu = np.asarray(scenario.mu)
    pattern = volatility_pattern(scenario)
    scale = sigma[:, None] * pattern[None, :] / math.sqrt(n)

    # Closed-form truth shared by all days: equicorrelation times scales.
    corr = np.full((d, d), scenario.rho)
    np.fill_diagonal(corr, 1.0)
    ic = corr * np.outer(sigma, sigma) * float(np.mean(pattern**2))

    by_day: dict = {}
    for j in scenario.jumps:
        by_day.setdefault(int(j[0]), []).append(j)

    children = np.random.SeedSequence(scenario.seed).spawn(scenario.n_days)
    days = []
    for k in range(scenario.n_days):
        rng = np.random.default_rng(children[k])
        eta = rng.standard_normal((d, n))
        noise = rng.standard_normal((d, n + 1)) * scenario.noise_sd
        latent = mu[:, None] + scale * _correlate(eta, scenario.rho, d)
        jump_vectors = np.zeros((d, n))
        for j in by_day.get(k, ()):
            jump_vectors[:, int(j[1])] += np.asarray(j[2:], dtype=float)
        observed = latent + jump_vectors
        if scenario.noise_sd > 0.0:
            observed = observed + np.diff(noise, axis=1)
        days.append(
            SimDay(
                day_index=k,
                observed=observed,
                latent=latent,
                jump_vectors=jump_vectors,
                true_ic=ic.copy(),
                true_cj=np.array(
                    [[math.fsum((a * b).tolist()) for b in jump_vectors] for a in jump_vectors]
                ),
            )
        )
    return days


def true_decomposition(day: SimDay) -> dict:
    """Ground-truth IC, CJ and their sum QV for one simulated day."""
    return {"IC": day.true_ic, "CJ": day.true_cj, "QV": day.true_ic + day.true_cj}


def business_dates(start: dt.date, count: int) -> list:
    """The first ``count`` weekdays at or after ``start``."""
    out = []
    current = start
    while len(out) < count:
        if current.weekday() < 5:
            out.append(current)
        current += dt.timedelta(days=1)
    return out


def panels_from_sim(
    days: list,
    instruments: list,
    spec: SessionSpec,
    start_date: dt.date,
) -> list:
    """Wrap simulated days as return panels on real calendar dates."""
    if days and len(instruments) != days[0].observed.shape[0]:
        raise ValueError("one instrument name per simulated leg required")
    if days and days[0].observed.shape[1] != spec.n_intervals:
        raise ValueError("session grid does not match the scenario's interval count")
    dates = business_dates(start_date, len(days))
    return [
        ReturnPanel(date=dates[k], instruments=list(instruments), returns=day.observed)
        for k, day in enumerate(days)
    ]


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
    adds one (day, index, sizes...) tuple and may repeat. A line that does
    not parse raises MalformedFile naming the file and line.
    """
    fields: dict = {}
    jumps = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    return SimScenario(jumps=tuple(jumps), **fields)
