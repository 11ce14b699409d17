"""The numpy-free types the config is read into, the input errors, and the table layout.

The CLI front end and the ``report`` stage run on these alone. The records are
named tuples, not dataclasses: ``dataclasses`` loads ``inspect`` and with it
``ast``, ``dis`` and ``tokenize``, which would make ``import cojump.cli``, paid by
every stage, about a third slower. The records check nothing: ``cli.load_config``
checks every field before it makes one, and resolves the estimator against the
session's N once (``resolve_jwc``). Like a frozen dataclass a record is
immutable, hashable and pickles to the pool's workers. ``write_csv`` writes
every output table but the panels and ``decompose``'s six, which
``ticks.write_panel_csv`` and ``pipeline.Tables`` write in its layout
(``csv_cells``).
"""

from __future__ import annotations

import csv
import functools
from collections import namedtuple
from zoneinfo import ZoneInfo


class MalformedFile(ValueError):
    """An input file cannot be parsed; the message names the file."""


class SessionMismatch(ValueError):
    """A panel file's date or grid does not match the configured session."""


class SessionSpec(namedtuple("SessionSpec",
                             "session_start session_end timezone sampling_interval")):
    """Trading session geometry: wall-clock window, timezone, grid step."""

    __slots__ = ()

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


TradingCalendar = namedtuple("TradingCalendar", "excluded_dates low_trade_threshold")


class JwcConfig(namedtuple("JwcConfig", "c_n s_spacing g_spacing n")):
    """The estimator on the session's N intervals, resolved once per run by ``resolve_jwc``."""

    __slots__ = ()

    @property
    def subsample_ratio(self) -> float:
        nbar_g = (self.n - self.g_spacing + 1) / self.g_spacing
        n_s = (self.n - self.s_spacing + 1) / self.s_spacing
        return nbar_g / n_s


def resolve_jwc(c_n: float, s_spacing: int, g_spacing, n: int) -> JwcConfig:
    """The estimator on N intervals; a G left None takes the two-scale rule G ~ N^(2/3).

    S = G = 1 is permitted as the degenerate identity case; otherwise
    S < G is required.
    """
    g = max(2, round(n ** (2.0 / 3.0))) if g_spacing is None else g_spacing
    s = s_spacing
    if not (1 <= s <= g <= n):
        raise ValueError(f"need 1 <= S <= G <= N, got S={s} G={g} N={n}")
    if s == g and g != 1:
        raise ValueError("S must be strictly smaller than G (except S = G = 1)")
    if 2 * g - 1 > n:
        raise ValueError(f"G={g} leaves offsets with no coarse return on N={n}")
    return JwcConfig(c_n, s, g, n)


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
