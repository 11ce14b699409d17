"""The numpy-free types the config is read into, the input errors, and the table layout.

The CLI front end and the ``report`` stage run on these alone. ``write_csv``
writes every output table but the panels and ``decompose``'s six, which
``ticks.write_panel_csv`` and ``pipeline.Tables`` write in its layout (``csv_cells``).
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
from dataclasses import dataclass
from zoneinfo import ZoneInfo


class MalformedFile(ValueError):
    """An input file cannot be parsed; the message names the file."""


class SessionMismatch(ValueError):
    """A panel file's date or grid does not match the configured session."""


@dataclass(frozen=True)
class SessionSpec:
    """Trading session geometry: wall-clock window, timezone, grid step."""

    session_start: dt.time
    session_end: dt.time
    timezone: str
    sampling_interval: int

    def __post_init__(self):
        if self.session_start >= self.session_end:
            raise ValueError(f"the session start {self.session_start} must precede "
                             f"its end {self.session_end}")
        if self.sampling_interval <= 0 or self.session_seconds % self.sampling_interval:
            raise ValueError(f"the grid step of {self.sampling_interval} s must divide "
                             f"the session length of {self.session_seconds} s")
        ZoneInfo(self.timezone)  # fail fast on unknown zone names

    @property
    def session_seconds(self) -> int:
        start = self.session_start
        end = self.session_end
        return (end.hour - start.hour) * 3600 + (end.minute - start.minute) * 60 + (
            end.second - start.second
        )

    @property
    def n_intervals(self) -> int:
        return self.session_seconds // self.sampling_interval

    def tzinfo(self) -> ZoneInfo:
        return ZoneInfo(self.timezone)

    def grid_labels(self, step: int = 0) -> list[str]:
        """Wall-clock "HH:MM:SS" of the N interval left endpoints, the same on every date.

        A ``step`` in seconds labels a coarser cut of the session instead. The
        labels are built once per cut, and each call returns a new list.
        """
        step = step or self.sampling_interval
        start = self.session_start
        base = start.hour * 3600 + start.minute * 60 + start.second
        return list(_labels(base, base + self.session_seconds // step * step, step))


@functools.lru_cache(maxsize=8)
def _labels(start: int, stop: int, step: int) -> tuple:
    """"HH:MM:SS" of the seconds of the day in ``range(start, stop, step)``."""
    return tuple(f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}" for t in range(start, stop, step))


@dataclass(frozen=True)
class TradingCalendar:
    excluded_dates: frozenset = frozenset()
    low_trade_threshold: float = 0.60

    def __post_init__(self):
        if not (0.0 < self.low_trade_threshold <= 1.0):
            raise ValueError(
                f"low_trade_threshold must lie in (0, 1], got {self.low_trade_threshold}")


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


def write_csv(path, header: list, rows) -> None:
    """Write one output table: the layout of every CSV file the package writes.

    A header row, then one row per item of ``rows``, lines ended by
    ``\\n``. A float, numpy scalars included, is written as its shortest
    round-trip ``repr``, so it reads back bit-exact; ``None`` is a blank
    cell (an undefined fit); any other value is written as ``str``.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(csv_cells, rows))


def csv_cells(row) -> list:
    """The cells of one row of write_csv's layout."""
    return ["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row]
