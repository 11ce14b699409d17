"""Command-line front end: ingest, simulate, decompose, report.

One JSON config file drives every stage; a handful of flags override
its most-tuned knobs. Each stage reads files written by the previous
one, so long runs restart at stage boundaries. All randomness flows
from the single master seed, and outputs carry no timestamps: a rerun
with the same inputs, config, and seed is byte-identical.

Exit codes: 0 success, 2 I/O failure (including an input file that
does not parse), 3 invalid configuration, 4 numerical failure. Errors
are emitted as one-line JSON on stderr.
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
from dataclasses import dataclass, field

import numpy as np

from . import __version__, bootstrap, events, jwc, pipeline, sim, ticks

ENV_CONFIG = "COJUMP_CONFIG"

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class ConfigError(ValueError):
    """The run configuration is invalid."""


@dataclass
class RunConfig:
    session: ticks.SessionSpec
    instruments: list
    pairs: list
    tuples: list
    calendar: ticks.TradingCalendar
    announcements: frozenset | None
    tick_sources: dict
    scenario_path: object
    estimator: jwc.JwcConfig
    b_reps: int
    alpha: float
    seed: int
    jobs: int
    output: str
    histogram_bin_minutes: int
    start_date: dt.date
    raw: dict = field(default_factory=dict)


def _parse_time(text: str) -> dt.time:
    return dt.time.fromisoformat(text)


def _announcement_dates(block) -> frozenset | None:
    """The dates of the announcement events, or None without a block.

    An event is ``[date, time, timezone]`` or a dict with those keys.
    Only the date is read: the report tables link co-jumps to
    announcements by day, so an event's time and timezone and the
    block's ``windows`` are accepted and change no output.
    """
    if not block:
        return None
    return frozenset(
        dt.date.fromisoformat(e["date"] if isinstance(e, dict) else e[0])
        for e in block.get("events", [])
    )


def _integer(key: str, value) -> int:
    """An integer config value; a bool, a fraction or a string is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(key: str, value) -> float:
    """A real config value; a bool or a string is a ConfigError."""
    if type(value) not in (int, float):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def load_config(path: str, overrides: dict) -> RunConfig:
    """Parse and validate the JSON run configuration."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    def override(key, value):
        return overrides[key] if overrides.get(key) is not None else value

    try:
        ses = raw["session"]
        session = ticks.SessionSpec(
            session_start=_parse_time(ses["start"]),
            session_end=_parse_time(ses["end"]),
            timezone=ses["timezone"],
            sampling_interval=_integer("session.sampling_seconds", ses["sampling_seconds"]),
        )
        instruments = list(raw["instruments"])
        pairs = [tuple(p) for p in raw.get("pairs", [])]
        tuples = [tuple(t) for t in raw.get("tuples", [])]
        cal_block = raw.get("calendar", {})
        calendar = ticks.TradingCalendar(
            excluded_dates=frozenset(
                dt.date.fromisoformat(d) for d in cal_block.get("excluded_dates", [])
            ),
            low_trade_threshold=_real(
                "calendar.low_trade_threshold", cal_block.get("low_trade_threshold", 0.60)
            ),
        )
        announcements = _announcement_dates(raw.get("announcements"))
        est_block = dict(raw.get("estimator", {}))
        # keys of earlier versions that changed no output number
        removed = sorted({"filters", "boundary", "levels"} & set(est_block))
        if removed:
            raise ConfigError(
                f"{path}: estimator keys {removed} are no longer accepted: the "
                "two-scale estimate does not depend on a wavelet filter, boundary or depth"
            )
        g_spacing = est_block.get("g_spacing")
        estimator = jwc.JwcConfig(
            c_n=_real("estimator.c_n", est_block.get("c_n", 1.0)),
            s_spacing=_integer("estimator.s_spacing", est_block.get("s_spacing", 1)),
            g_spacing=None if g_spacing is None else _integer("estimator.g_spacing", g_spacing),
        )
        if "detection" in raw:
            raise ConfigError(
                f"{path}: the 'detection' block is no longer accepted: jump detection "
                "always thresholds the Haar level-1 coefficients"
            )
        boot = raw.get("bootstrap", {})
        config = RunConfig(
            session=session,
            instruments=instruments,
            pairs=pairs,
            tuples=tuples,
            calendar=calendar,
            announcements=announcements,
            tick_sources={
                name: {"path": resolve(src["path"]), "schema": dict(src["schema"])}
                for name, src in raw.get("ticks", {}).items()
            },
            scenario_path=resolve(raw["scenario"]) if "scenario" in raw else None,
            estimator=estimator,
            b_reps=_integer(
                "bootstrap.b_reps", override("bootstrap_reps", boot.get("b_reps", 999))
            ),
            alpha=_real("bootstrap.alpha", override("alpha", boot.get("alpha", 0.05))),
            seed=_integer("seed", override("seed", raw.get("seed", 0))),
            jobs=_integer("jobs", override("jobs", raw.get("jobs", 1))),
            output=resolve(overrides.get("output") or raw.get("output", "out")),
            histogram_bin_minutes=_integer(
                "report.histogram_bin_minutes",
                raw.get("report", {}).get("histogram_bin_minutes", 30),
            ),
            start_date=dt.date.fromisoformat(raw.get("start_date", "2017-01-02")),
            raw=raw,
        )
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if not config.instruments:
        raise ConfigError("no instruments declared")
    for name in config.instruments:
        if not _NAME_RE.match(name):
            raise ConfigError(f"instrument name {name!r} must match [A-Za-z0-9_]+")
    declared = set(config.instruments)
    seen_pairs = set()
    for pair in config.pairs:
        if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= declared:
            raise ConfigError(f"pair {pair} must name two distinct declared instruments")
        if frozenset(pair) in seen_pairs:
            raise ConfigError(f"pair {pair} is declared twice (in either order)")
        seen_pairs.add(frozenset(pair))
    for members in config.tuples:
        if len(members) < 2 or len(set(members)) != len(members) or not set(members) <= declared:
            raise ConfigError(
                f"tuple {members} must name two or more distinct declared instruments"
            )
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
    if not 0.0 < config.alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if config.b_reps < 100:
        raise ConfigError("bootstrap b_reps must be at least 100")
    if config.jobs < 1:
        raise ConfigError("jobs must be positive")
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if not 0.0 < config.estimator.c_n < math.inf:
        raise ConfigError(f"estimator.c_n must be positive and finite, got {config.estimator.c_n}")
    try:
        config.estimator.resolve(config.session.n_intervals)
    except ValueError as exc:
        raise ConfigError(f"estimator: {exc}") from exc
    width = config.histogram_bin_minutes * 60
    if width <= 0 or config.session.session_seconds % width:
        raise ConfigError("report.histogram_bin_minutes must be positive and divide the session")
    for name, src in config.tick_sources.items():
        if name not in declared:
            raise ConfigError(f"tick source {name!r} is not a declared instrument")
        unknown = sorted(set(src["schema"]) - {"timestamp", "price", "volume"})
        if unknown:
            raise ConfigError(
                f"tick source {name!r}: unknown schema roles {unknown} "
                "(the roles are timestamp, price and volume)"
            )
        if not all(isinstance(c, str) for c in src["schema"].values()):
            raise ConfigError(f"tick source {name!r}: schema column names must be strings")
        # missing referenced files are I/O failures, not config failures
        if not os.path.exists(src["path"]):
            raise FileNotFoundError(f"tick file for {name} not found: {src['path']}")
    if config.scenario_path is not None and not os.path.exists(config.scenario_path):
        raise FileNotFoundError(f"scenario file not found: {config.scenario_path}")


def _panels_dir(config: RunConfig) -> str:
    return os.path.join(config.output, "panels")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")


def cmd_ingest(config: RunConfig) -> int:
    """Parse ticks, build per-day return panels, write the drop log and tick counts."""
    missing = [n for n in config.instruments if n not in config.tick_sources]
    if missing:
        raise ConfigError(f"no tick source for instruments: {', '.join(missing)}")
    series = {}
    for name in config.instruments:
        src = config.tick_sources[name]
        series[name] = ticks.parse_ticks(src["path"], src["schema"], config.session, name)
    panels, drop_log = ticks.build_panels(series, config.session, config.calendar)
    out = _panels_dir(config)
    os.makedirs(out, exist_ok=True)
    for panel in panels:
        path = os.path.join(out, f"panel_{panel.date.isoformat()}.csv")
        ticks.write_panel_csv(panel, path, config.session)
    ticks.write_drop_log(drop_log, os.path.join(config.output, "drop_log.csv"))
    counts = [(name, s.total_rows, s.rejected) for name, s in series.items()]
    ticks.write_csv(os.path.join(config.output, "tick_counts.csv"),
                    ["instrument", "rows", "rejected"], counts)
    if not panels:
        raise OSError(f"ingest kept no day: {len(drop_log)} dates dropped, see drop_log.csv")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    """Simulate a scenario into panel files plus a ground-truth record."""
    if config.scenario_path is None:
        raise ConfigError("simulate requires a 'scenario' path in the config")
    scenario = sim.read_scenario(config.scenario_path)
    if scenario.d != len(config.instruments):
        raise ConfigError(
            f"scenario has {scenario.d} legs but {len(config.instruments)} instruments declared"
        )
    days = sim.simulate(scenario)
    panels = sim.panels_from_sim(days, config.instruments, config.session, config.start_date)
    out = _panels_dir(config)
    os.makedirs(out, exist_ok=True)
    for panel in panels:
        path = os.path.join(out, f"panel_{panel.date.isoformat()}.csv")
        ticks.write_panel_csv(panel, path, config.session)
    rows = []
    for day, panel in zip(days, panels):
        truth = sim.true_decomposition(day)
        date = panel.date.isoformat()
        rows += [
            [date, f"{a}-{b}", truth["IC"][i, j], truth["CJ"][i, j], truth["QV"][i, j]]
            for i, a in enumerate(config.instruments)
            for j, b in enumerate(config.instruments)
            if j >= i
        ]
    truth_path = os.path.join(config.output, "truth.csv")
    ticks.write_csv(truth_path, ["date", "entry", "ic", "cj", "qv"], rows)
    return EXIT_OK


def _load_panels(config: RunConfig) -> list:
    """Every panel file; one of another date or instrument set raises SessionMismatch."""
    paths = sorted(glob.glob(os.path.join(_panels_dir(config), "panel_*.csv")))
    if not paths:
        raise OSError(f"no panel files under {_panels_dir(config)}")
    panels = [ticks.read_panel_csv(p, config.session) for p in paths]
    for path, panel in zip(paths, panels):
        if os.path.basename(path) != f"panel_{panel.date.isoformat()}.csv":
            raise ticks.SessionMismatch(f"{path}: rows are dated {panel.date}, not the file's date")
        if sorted(panel.instruments) != sorted(config.instruments):
            raise ticks.SessionMismatch(
                f"{path}: instruments {panel.instruments} are not the configured "
                f"{config.instruments}"
            )
    return panels


def cmd_decompose(config: RunConfig) -> int:
    """Detect, estimate, and test every day; write decomposition files."""
    if not config.pairs:
        raise ConfigError("decompose requires at least one pair")
    panels = _load_panels(config)
    results, failures = pipeline.process_panels(
        panels,
        config.pairs,
        config.estimator,
        b_reps=config.b_reps,
        alpha=config.alpha,
        seed=config.seed,
        tuples=config.tuples,
        jobs=config.jobs,
    )
    os.makedirs(config.output, exist_ok=True)
    pipeline.write_decompositions(results, os.path.join(config.output, "decompositions.csv"))
    pipeline.write_events_csv(results, os.path.join(config.output, "events.csv"), config.session)
    pipeline.write_jump_report(results, os.path.join(config.output, "jumps.csv"), config.session)
    pipeline.write_tuple_labels(results, os.path.join(config.output, "tuple_days.csv"))
    pipeline.write_failures(failures, os.path.join(config.output, "failures.csv"))
    outcomes = [res.outcomes[pair] for res in results for pair in sorted(res.outcomes)]
    bootstrap.write_outcomes(outcomes, os.path.join(config.output, "outcomes.csv"))
    if not results:
        date, message = failures[0]
        _emit_error(
            "numerical",
            f"all {len(failures)} days failed (see failures.csv); first {date}: {message}",
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _config_hash(config: RunConfig) -> str:
    import hashlib  # loads OpenSSL, as numpy.random does: only stages drawing nothing (ingest) save it

    canon = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _file_hash(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_report(config: RunConfig) -> int:
    """Aggregate decompositions into the summary tables and manifest."""
    dec_path = os.path.join(config.output, "decompositions.csv")
    ev_path = os.path.join(config.output, "events.csv")
    tuple_path = os.path.join(config.output, "tuple_days.csv")
    for p in (dec_path, ev_path):
        if not os.path.exists(p):
            raise OSError(f"missing decomposition output: {p}")
    decomps = pipeline.read_decompositions(dec_path)
    if not decomps:
        raise OSError(f"{dec_path} has no rows: decompose processed no day")
    event_rows = pipeline.read_events_csv(ev_path, config.session)
    by_pair: dict = {}
    for rec in decomps:
        by_pair.setdefault(rec.pair, []).append(rec)

    events.write_cj_qv_table(
        events.cj_qv_summary(decomps), os.path.join(config.output, "cj_qv_share.csv")
    )

    degenerate = []
    rows4 = []
    for pair in sorted(by_pair):
        recs = by_pair[pair]
        mask = [
            (r.corr_total, r.corr_cont)
            for r in recs
            if np.isfinite(r.corr_total) and np.isfinite(r.corr_cont)
        ]
        try:
            res = events.correlation_impact_regression(
                [m[0] for m in mask], [m[1] for m in mask]
            )
        except events.DegenerateFit as exc:
            res = None
            degenerate.append(["correlation_regression", "-".join(pair), str(exc)])
        rows4.append((pair, res))
    events.write_regression_table(rows4, os.path.join(config.output, "correlation_regression.csv"))

    rows5 = []
    news_dates = config.announcements or frozenset()
    for pair in sorted(by_pair):
        recs = sorted(by_pair[pair], key=lambda r: r.date)
        y = [1.0 if r.classification == "co_jump" else 0.0 for r in recs]
        x = [1.0 if r.date in news_dates else 0.0 for r in recs]
        try:
            res = events.announcement_logit(y, x)
        except events.DegenerateFit as exc:
            res = None
            degenerate.append(["announcement_logit", "-".join(pair), str(exc)])
        rows5.append((pair, res))
    events.write_logit_table(rows5, os.path.join(config.output, "announcement_logit.csv"))

    sample_dates = sorted({r.date for r in decomps})
    rows6 = []
    if config.announcements is not None and os.path.exists(tuple_path):
        labels_by_tuple = pipeline.read_tuple_labels(tuple_path)
        for name in sorted(labels_by_tuple):
            table = events.shift_rotation_table(
                labels_by_tuple[name], config.announcements, sample_dates
            )
            rows6.append((name, table))
    events.write_shift_rotation_table(rows6, os.path.join(config.output, "shift_rotation.csv"))

    bin_starts, counts = events.intraday_histogram(
        [row["index"] for row in event_rows], config.histogram_bin_minutes, config.session
    )
    events.write_histogram(bin_starts, counts, os.path.join(config.output, "histogram.csv"))

    for table, pair, reason in sorted(degenerate):
        fields = {"warning": "degenerate_fit", "table": table, "pair": pair, "message": reason}
        sys.stderr.write(json.dumps(fields, sort_keys=True) + "\n")
    inputs = {}
    for p in (dec_path, ev_path, tuple_path):
        if os.path.exists(p):
            inputs[os.path.basename(p)] = _file_hash(p)
    manifest = {
        "config_hash": _config_hash(config),
        "inputs": inputs,
        "package_version": __version__,
        "seed": config.seed,
        "alpha": config.alpha,
        "b_reps": config.b_reps,
        "degenerate_fits": sorted(degenerate),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cojump",
        description="Wavelet co-jump detection and noise-robust covariance estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", default=None, help=f"config JSON (default: ${ENV_CONFIG})")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--alpha", type=float, default=None, help="test level override")
        p.add_argument("--bootstrap-reps", type=int, default=None, help="replication override")
        p.add_argument("--jobs", type=int, default=None, help="worker process count")
        p.add_argument("--output", default=None, help="output directory override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = args.config or os.environ.get(ENV_CONFIG)
    if not config_path:
        _emit_error("config", f"no --config given and ${ENV_CONFIG} is unset")
        return EXIT_CONFIG
    if not os.path.exists(config_path):
        _emit_error("io", f"config file not found: {config_path}")
        return EXIT_IO
    overrides = {
        "seed": args.seed,
        "alpha": args.alpha,
        "bootstrap_reps": args.bootstrap_reps,
        "jobs": args.jobs,
        "output": args.output,
    }
    try:
        config = load_config(config_path, overrides)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_IO
    try:
        os.makedirs(config.output, exist_ok=True)
        return COMMANDS[args.command](config)
    except (ConfigError, ticks.SessionMismatch) as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except (OSError, ticks.MalformedFile) as exc:
        _emit_error("io", str(exc))
        return EXIT_IO
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", f"{type(exc).__name__}: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
