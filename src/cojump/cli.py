"""Command-line front end: ingest, simulate, decompose, report.

The required ``--config`` file holds every value that changes a result, so
when ``decompose`` and ``report`` read one config, ``manifest.json`` records
the seed, alpha and B the tests ran with. The flags of ``OVERRIDES`` only
place a run; each stage takes those it reads and checks only the files it
reads. Each stage reads the files of the one before, so a run restarts at a
stage, and outputs carry no timestamps: a rerun with the same inputs and
config is byte-identical.

Exit codes: 0 success, 2 I/O failure (including an input file that
does not parse), 3 invalid configuration or flag, 4 numerical failure.
Errors are emitted as one-line JSON on stderr. The config is read into the
numpy-free named tuples of ``spec`` and one ``SimpleNamespace`` (``RunConfig``),
and each stage imports what it runs: ``report`` and this front end load neither
numpy nor ``dataclasses``, whose ``inspect`` would make the import of this
module, paid by every stage, about a third slower.
"""

from __future__ import annotations

import argparse
import datetime as dt
import glob
import itertools
import json
import math
import os
import re
import sys
from types import SimpleNamespace as RunConfig  # the attributes load_config sets

from . import __version__  # each stage imports the modules it runs
from .spec import (JwcConfig, MalformedFile, SessionMismatch, SessionSpec, TradingCalendar,
                   write_csv)

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

class ConfigError(ValueError):
    """The run configuration is invalid."""


REQUIRED = object()  # the default of a key that must be given


def _integer(low: int):
    """A reader of integers of at least ``low``; a bool, a fraction or a string is refused."""
    def read(value, path):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is not int or value < low:
            raise ConfigError(f"{path} must be an integer of at least {low}, got {value!r}")
        return value
    return read


def _real(low: float, high: float):
    """A reader of numbers strictly between ``low`` and ``high``; a bool or a string is refused."""
    def read(value, path):
        if type(value) not in (int, float) or not low < value < high:
            raise ConfigError(f"{path} must be a number in ({low}, {high}), got {value!r}")
        return float(value)
    return read


def _string(what: str, pattern: str = ""):
    """A reader of strings, of those ``pattern`` matches in full if given; ``what`` names them."""
    def read(value, path):
        if not isinstance(value, str) or pattern and not re.fullmatch(pattern, value):
            raise ConfigError(f"{path}: {what}, got {value!r}")
        return value
    return read


def _iso(kind):
    """A reader of ISO 8601 strings as ``kind``, dt.date or dt.time."""
    def read(value, path):
        try:
            return kind.fromisoformat(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{path} must be an ISO {kind.__name__}, got {value!r}") from None
    return read


def _clock(value, path):
    """A reader of session wall-clock times: ISO, in whole seconds, with no UTC offset."""
    time = _iso(dt.time)(value, path)
    if time.tzinfo is not None or time.microsecond:
        raise ConfigError(f"{path} must be a time of whole seconds with no UTC offset "
                          f"(the zone is session.timezone), got {value!r}")
    return time


def _zone(value, path):
    """A reader of IANA time zone names."""
    from zoneinfo import ZoneInfo  # loaded with spec already
    name = _text(value, path)
    try:
        return ZoneInfo(name).key
    except (LookupError, OSError, ValueError):
        raise ConfigError(f"{path}: no time zone is named {name!r}") from None


def _unread(value, path):
    """Accepted so that configs written for earlier versions keep running; changes no output."""
    return value


def _event(value, path):
    """An announcement's date; the event is [date, time, timezone] or an object of EVENT's keys."""
    if isinstance(value, list):
        if len(value) > len(EVENT):
            raise ConfigError(f"{path} must be [date, time, timezone], got {value!r}")
        value = dict(zip(EVENT, value))
    return _read(EVENT, value, path, {})["date"]


# Every config key. A block maps each key to (spec, default); the spec is a
# reader, a block, or [spec] for a list read item by item, and a block keyed
# "<name>" gives any key that one entry. A missing key takes its default,
# which is read like a given value unless it is None.
_text = _string("must be a string")
_name = _string("instrument names must match [A-Za-z0-9_]+", r"[A-Za-z0-9_]+")
_column = _string("schema column names must be strings")
EVENT = {"date": (_iso(dt.date), REQUIRED), "time": (_unread, None), "timezone": (_unread, None)}
SCHEMA = {"timestamp": (_column, REQUIRED), "price": (_column, REQUIRED), "volume": (_column, None)}
CONFIG = {
    "session": ({"start": (_clock, REQUIRED), "end": (_clock, REQUIRED),
                 "timezone": (_zone, REQUIRED), "sampling_seconds": (_integer(1), REQUIRED)},
                REQUIRED),
    "instruments": ([_name], REQUIRED),
    "pairs": ([[_name]], []),
    "tuples": ([[_name]], []),
    "scenario": (_text, None),
    "ticks": ({"<name>": ({"path": (_text, REQUIRED), "schema": (SCHEMA, REQUIRED)}, None)}, {}),
    "calendar": ({"excluded_dates": ([_iso(dt.date)], []),  # TradingCalendar caps the threshold
                  "low_trade_threshold": (_real(0.0, math.inf), 0.6)}, {}),
    "announcements": ({"events": ([_event], []), "windows": (_unread, None)}, None),
    "estimator": ({"c_n": (_real(0.0, math.inf), 1.0), "s_spacing": (_integer(0), 1),
                   "g_spacing": (_integer(0), None)}, {}),  # _validate: S and G against N
    "bootstrap": ({"b_reps": (_integer(100), 999), "alpha": (_real(0.0, 1.0), 0.05)}, {}),
    "report": ({"histogram_bin_minutes": (_integer(1), 30)}, {}),
    "seed": (_integer(0), 0),
    "jobs": (_integer(1), 1),
    "start_date": (_iso(dt.date), "2017-01-02"),
    "output": (_text, "out"),
}


def _read(spec, value, path: str, flags: dict):
    """``value`` read through ``spec`` at the dotted ``path``; ``flags`` replace values by path."""
    if callable(spec):
        return spec(value, path)
    kind = list if isinstance(spec, list) else dict
    if not isinstance(value, kind):
        what = "a list" if kind is list else "an object"
        raise ConfigError(f"{path or 'the config'} must be {what}, got {value!r}")
    if kind is list:
        return [_read(spec[0], item, f"{path}[{i}]", flags) for i, item in enumerate(value)]
    if "<name>" in spec:
        spec = dict.fromkeys(value, spec["<name>"])
    prefix = f"{path}." if path else ""
    unknown = sorted(set(value) - set(spec))
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
    block = {}
    for key, (reader, default) in spec.items():
        item = flags.get(prefix + key, value.get(key, default))
        if item is REQUIRED:
            raise ConfigError(f"missing config key {prefix}{key}")
        if item is not None or default is not None:  # an unset optional key stays None
            item = _read(reader, item, prefix + key, flags)
        block[key] = item
    return block


def load_config(path: str, overrides: dict) -> RunConfig:
    """Parse and validate the JSON run configuration.

    ``overrides`` maps dotted config keys to flag values; each not None replaces the file's.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))  # joined to an absolute path, base drops out
    c = _read(CONFIG, raw, "", {k: v for k, v in overrides.items() if v is not None})
    ses, cal, ann = c["session"], c["calendar"], c["announcements"]
    try:
        session = SessionSpec(*ses.values())  # the table's order
    except ValueError as exc:  # the zone passed its reader: the window or the grid step is bad
        key = "session.end" if ses["start"] >= ses["end"] else "session.sampling_seconds"
        raise ConfigError(f"{key}: {exc}") from None
    try:
        calendar = TradingCalendar(frozenset(cal["excluded_dates"]), cal["low_trade_threshold"])
    except ValueError as exc:  # the message opens with the key's last part
        raise ConfigError(f"calendar.{exc}") from None
    config = RunConfig(
        session=session,
        instruments=c["instruments"],
        pairs=[tuple(p) for p in c["pairs"]],
        tuples=[tuple(t) for t in c["tuples"]],
        calendar=calendar,
        announcements=None if ann is None else frozenset(ann["events"]),
        tick_sources={name: {**src, "path": os.path.join(base, src["path"])}
                      for name, src in c["ticks"].items()},
        scenario_path=None if c["scenario"] is None else os.path.join(base, c["scenario"]),
        estimator=JwcConfig(**c["estimator"]),
        **c["bootstrap"],  # b_reps and alpha
        seed=c["seed"],
        jobs=c["jobs"],
        output=os.path.join(base, c["output"]),
        histogram_bin_minutes=c["report"]["histogram_bin_minutes"],
        start_date=c["start_date"],
        raw=raw,
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    """The checks that span several keys: pairs, tuples, session, estimator, histogram, ticks."""
    declared = set(config.instruments)
    if not declared or len(declared) < len(config.instruments):
        raise ConfigError(f"instruments must be distinct and not empty, got {config.instruments}")
    seen_pairs = set()
    for pair in config.pairs:
        if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= declared:
            raise ConfigError(f"pair {pair} must name two distinct declared instruments")
        if frozenset(pair) in seen_pairs:
            raise ConfigError(f"pair {pair} is declared twice (in either order)")
        seen_pairs.add(frozenset(pair))
    seen_tuples = set()
    for members in config.tuples:
        if len(members) < 2 or len(set(members)) != len(members) or not set(members) <= declared:
            raise ConfigError(f"tuple {members} must name two or more distinct "
                              "declared instruments")
        if frozenset(members) in seen_tuples:
            raise ConfigError(f"tuple {members} is declared twice (in any order)")
        seen_tuples.add(frozenset(members))
        missing = [
            f"{a}-{b}"
            for a, b in itertools.combinations(members, 2)
            if frozenset((a, b)) not in seen_pairs
        ]
        if missing:
            raise ConfigError(
                f"tuple {'-'.join(members)} is labelled only when every member pair is "
                f"tested; pairs not configured: {', '.join(missing)}"
            )
    if config.session.n_intervals < 2:  # the universal threshold's median and log N
        raise ConfigError("session: jump detection needs at least two intervals a day, "
                          f"got {config.session.n_intervals}")
    try:
        config.estimator.resolve(config.session.n_intervals)
    except ValueError as exc:
        raise ConfigError(f"estimator: {exc}") from exc
    if config.session.session_seconds % (config.histogram_bin_minutes * 60):
        raise ConfigError("report.histogram_bin_minutes must divide the session")
    for name in config.tick_sources:
        if name not in declared:
            raise ConfigError(f"ticks.{name}: tick source of no declared instrument")


def _panels_dir(config: RunConfig) -> str:
    return os.path.join(config.output, "panels")


def _panel_writer(config: RunConfig):
    """A writer of one panel as panels/panel_<date>.csv, made once every panel file of an
    earlier run is removed."""
    from . import ticks
    out = _panels_dir(config)
    os.makedirs(out, exist_ok=True)
    for stale in glob.glob(os.path.join(glob.escape(out), "panel_*.csv")):
        os.remove(stale)
    return lambda panel: ticks.write_panel_csv(
        panel, os.path.join(out, f"panel_{panel.date.isoformat()}.csv"), config.session)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")


def cmd_ingest(config: RunConfig) -> int:
    """Parse ticks, build per-day return panels, write the drop log and tick counts."""
    from . import ticks
    for name, src in config.tick_sources.items():  # every file, before the first is parsed
        if not os.path.exists(src["path"]):
            raise FileNotFoundError(f"tick file for {name} not found: {src['path']}")
    missing = [n for n in config.instruments if n not in config.tick_sources]
    if missing:
        raise ConfigError(f"no tick source for instruments: {', '.join(missing)}")
    series = {}
    for name in config.instruments:
        src = config.tick_sources[name]
        series[name] = ticks.parse_ticks(src["path"], src["schema"], config.session, name)
    kept, drop_log = ticks.build_panels(series, config.calendar, _panel_writer(config))
    write_csv(os.path.join(config.output, "drop_log.csv"), ["date", "reason"],
              [(date.isoformat(), reason) for date, reason in drop_log])
    counts = [(name, s.total_rows, s.rejected) for name, s in series.items()]
    write_csv(os.path.join(config.output, "tick_counts.csv"), ["instrument", "rows", "rejected"],
              counts)
    if not kept:
        raise OSError(f"ingest kept no day: {len(drop_log)} dates dropped, see drop_log.csv")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    """Simulate a scenario into panel files plus a ground-truth record, writing each day as
    it is drawn."""
    from . import ticks, sim  # ticks first: compiled before numpy loads, it leaves RSS lower
    if config.scenario_path is None:
        raise ConfigError("simulate requires a 'scenario' path in the config")
    scenario = sim.read_scenario(config.scenario_path)
    if scenario.d != len(config.instruments):
        raise ConfigError(
            f"scenario has {scenario.d} legs but {len(config.instruments)} instruments declared"
        )
    if scenario.n_intervals != config.session.n_intervals:
        raise ConfigError(f"scenario has {scenario.n_intervals} intervals a day but the session "
                          f"has {config.session.n_intervals}")
    write_panel = _panel_writer(config)
    names = config.instruments
    entries = [(i, j, f"{a}-{b}")
               for i, a in enumerate(names) for j, b in enumerate(names) if j >= i]

    def truth_rows():  # each day is written and dropped before the next one is drawn
        dates = sim.business_dates(config.start_date, scenario.n_days)
        for date, day in zip(dates, sim.simulate(scenario)):
            qv = day.true_ic + day.true_cj  # finite only where IC and CJ both are
            if not all(map(math.isfinite, qv.flat)):
                raise OverflowError(f"simulated day {date}: its true IC, CJ or QV is not finite")
            write_panel(ticks.ReturnPanel(date, names, day.observed))
            yield from ([date.isoformat(), entry, day.true_ic[i, j], day.true_cj[i, j]]
                        for i, j, entry in entries)

    write_csv(os.path.join(config.output, "truth.csv"), ["date", "entry", "ic", "cj"],
              truth_rows())
    return EXIT_OK


def _panel_paths(config: RunConfig) -> list:
    """Every panel file's path, in date order."""
    paths = sorted(glob.glob(os.path.join(glob.escape(_panels_dir(config)), "panel_*.csv")))
    if not paths:
        raise OSError(f"no panel files under {_panels_dir(config)}")
    return paths


def _read_panel(config: RunConfig, path: str) -> ticks.ReturnPanel:
    """One panel file; one of another date or instrument set raises SessionMismatch."""
    from . import ticks
    panel = ticks.read_panel_csv(path, config.session)
    if os.path.basename(path) != f"panel_{panel.date.isoformat()}.csv":
        raise SessionMismatch(f"{path}: rows are dated {panel.date}, not the file's date")
    if sorted(panel.instruments) != sorted(config.instruments):
        raise SessionMismatch(
            f"{path}: instruments {panel.instruments} are not the configured "
            f"{config.instruments}"
        )
    return panel


def cmd_decompose(config: RunConfig) -> int:
    """Detect, estimate, and test every day, holding one at a time; write decomposition
    files."""
    from . import ticks, pipeline  # ticks first, as in cmd_simulate
    if not config.pairs:
        raise ConfigError("decompose requires at least one pair")
    paths = _panel_paths(config)
    with pipeline.Tables(config.output, config.session, config.b_reps, config.alpha) as tables:
        _, failures = pipeline.process_panels(
            (_read_panel(config, path) for path in paths),
            config.pairs,
            config.estimator,
            b_reps=config.b_reps,
            alpha=config.alpha,
            seed=config.seed,
            tuples=config.tuples,
            jobs=config.jobs,
            write=tables.write_day,
        )
        tables.write_failures(failures)
    if len(failures) == len(paths):
        date, message = failures[0]
        _emit_error(
            "numerical",
            f"all {len(failures)} days failed (see failures.csv); first {date}: {message}",
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    """Aggregate decompositions into the summary tables and manifest."""
    import hashlib  # loads OpenSSL, as numpy.random does: only stages drawing nothing (ingest) save it

    from . import events
    paths = [os.path.join(config.output, name)
             for name in ("decompositions.csv", "events.csv", "tuple_days.csv")]
    dec_path, ev_path, tuple_path = paths
    decomps = events.read_decompositions(dec_path)
    if not decomps:
        raise OSError(f"{dec_path} has no rows: decompose processed no day")
    labels_by_tuple = {"-".join(t): {} for t in config.tuples}  # rows even with no labelled day
    labels_by_tuple.update(events.read_tuple_labels(tuple_path))
    degenerate = events.write_report(
        config.output, decomps, events.read_events_csv(ev_path, config.session),
        labels_by_tuple, config.announcements, config.session, config.histogram_bin_minutes,
    )
    for table, pair, reason in degenerate:
        fields = {"warning": "degenerate_fit", "table": table, "pair": pair, "message": reason}
        sys.stderr.write(json.dumps(fields, sort_keys=True) + "\n")
    inputs = {}
    for p in paths:
        with open(p, "rb") as handle:
            inputs[os.path.basename(p)] = hashlib.file_digest(handle, "sha256").hexdigest()
    canon = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "inputs": inputs,
        "package_version": __version__,
        "seed": config.seed,
        "alpha": config.alpha,
        "b_reps": config.b_reps,
        "degenerate_fits": degenerate,
    }
    with open(os.path.join(config.output, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "simulate": cmd_simulate,
    "decompose": cmd_decompose,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are ConfigErrors: a bad flag exits 3, as a bad config value does."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


OVERRIDES = {  # each flag: the config key it replaces, its type, what it holds, who reads it
    "--jobs": ("jobs", int, "worker process count", ("decompose",)),
    "--output": ("output", str, "output directory", tuple(COMMANDS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cojump",
        description="Wavelet co-jump detection and noise-robust covariance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="config JSON")
        for flag, (key, kind, what, stages) in OVERRIDES.items():
            if name in stages:
                p.add_argument(flag, dest=key, type=kind, help=f"{what} override")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        flag = argv[0].partition("=")[0] if argv else ""
        if flag in ("--config", *OVERRIDES):  # argparse would read its value as the command
            raise ConfigError(f"cojump: {flag} is given before the command; flags follow it, "
                              f"as in cojump <command> {flag} ...")
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        config = load_config(args.config, overrides)
        os.makedirs(config.output, exist_ok=True)
        return COMMANDS[args.command](config)
    except (ConfigError, SessionMismatch) as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except (OSError, MalformedFile) as exc:
        _emit_error("io", str(exc))
        return EXIT_IO
    except UnicodeEncodeError as exc:  # a path that the filesystem encoding cannot write
        _emit_error("io", f"cannot write {exc.object!r} in the {exc.encoding} encoding: {exc.reason}")
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        _emit_error("numerical", f"{type(exc).__name__}: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
