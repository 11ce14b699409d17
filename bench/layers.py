"""Per-layer metrics derived from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
child spans. Sums run over every span of a name. Worker processes
return no spans, so the per-day layers (detection, IC, bootstrap,
``process_day``) come from the ``perday`` stages: a ``--jobs 1`` pass
over the same panels when the main decompose used a pool, otherwise the
main decompose itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    dur: float
    self_dur: float
    parent: str
    counts: dict
    children: list = field(default_factory=list)


def flatten(stages: list) -> list:
    """Spans of several stage records, with parent names and self time."""
    out = []
    for stage in stages:
        raw = stage["spans"]
        child_dur = [0.0] * len(raw)
        children = [[] for _ in raw]
        for name, start, end, parent, _ in raw:
            if parent >= 0:
                child_dur[parent] += end - start
                children[parent].append(name)
        for i, (name, start, end, parent, counts) in enumerate(raw):
            out.append(
                Span(
                    name=name,
                    dur=end - start,
                    self_dur=end - start - child_dur[i],
                    parent=raw[parent][0] if parent >= 0 else "",
                    counts=counts or {},
                    children=children[i],
                )
            )
    return out


def _durations(spans, name):
    return [s.dur for s in spans if s.name == name]


def _total(spans, name):
    return math.fsum(_durations(spans, name))


def _count(spans, name, key):
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _total_self(spans, name):
    return math.fsum(s.self_dur for s in spans if s.name == name)


def _calls(spans, name):
    return sum(1 for s in spans if s.name == name)


def percentile(values, p):
    """Nearest-rank ``p``-th percentile, so a p50 and a tail value compare directly; 0 when empty."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100.0) - 1)] if ordered else 0.0


def tail_percentile(values):
    """(p, value): the highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None, 0.0
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, percentile(values, p)


def _ratio(num, den):
    return num / den if den else 0.0


def derive(main: list, perday: list, jobs: int, overhead: float, coverage: float):
    """(metrics, notes): every per-layer metric by name, with tail percentiles noted."""
    m = flatten(main)
    d = flatten(perday)
    stat = [s for s in d if s.name == "bootstrap.bootstrap_statistic"]
    stat_durs = [s.dur for s in stat]
    day_durs = _durations(d, "pipeline.process_day")
    stat_p, stat_tail = tail_percentile(stat_durs)
    day_p, day_tail = tail_percentile(day_durs)
    tests = len(stat)
    rejected = _count(d, "bootstrap.bootstrap_statistic", "rejected")
    inconclusive = _count(d, "bootstrap.bootstrap_statistic", "inconclusive")
    statistic_s = math.fsum(stat_durs)
    pair_entry_s = _total(d, "jwc.jwc_pair_entry")
    reps = _count(d, "jwc.jwc_pair_entry", "reps")
    process_day_s = math.fsum(day_durs)
    process_panels_s = _total(m, "pipeline.process_panels")
    writers = [
        s.dur
        for s in m
        if s.parent == "cli.cmd_decompose"
        and (s.name.startswith("pipeline.write_") or s.name == "bootstrap.write_outcomes")
    ]
    values = [
        ("cli.load_config_s", "s", _total(m, "cli.load_config")),
        ("sim.simulate_s", "s", _total(m, "sim.simulate")),
        ("sim.panels_from_sim_s", "s", _total(m, "sim.panels_from_sim")),
        ("ticks.write_panel_csv_s", "s", _total(m, "ticks.write_panel_csv")),
        ("ticks.read_panel_csv_s", "s", _total(m, "ticks.read_panel_csv")),
        ("ticks.panels_written", "count", _calls(m, "ticks.write_panel_csv")),
        ("ticks.parse_ticks_s", "s", _total(m, "ticks.parse_ticks")),
        ("ticks.parse_rows", "count", _count(m, "ticks.parse_ticks", "rows")),
        ("ticks.rows_rejected", "count", _count(m, "ticks.parse_ticks", "rejected")),
        ("ticks.build_panels_s", "s", _total(m, "ticks.build_panels")),
        ("ticks.sample_last_tick_s", "s", _total(m, "ticks.sample_last_tick")),
        ("ticks.sample_last_tick_calls", "count", _calls(m, "ticks.sample_last_tick")),
        ("ticks.trade_fraction_s", "s", _total(m, "ticks.trade_fraction")),
        ("ticks.trade_fraction_calls", "count", _calls(m, "ticks.trade_fraction")),
        ("ticks.days_dropped", "count", _count(m, "ticks.build_panels", "dropped")),
        ("pipeline.detect_panel_jumps_s", "s", _total(d, "pipeline.detect_panel_jumps")),
        ("modwt.level1_coefficients_s", "s", _total(d, "modwt.level1_coefficients")),
        ("jumps.adjust_returns_s", "s", _total(d, "jumps.adjust_returns")),
        ("jumps.flagged", "count", _count(d, "jumps.detect_jumps", "flagged")),
        ("jwc.ic_matrix_s", "s", _total(d, "jwc.jwc_integrated_covariance")),
        ("jwc.floored_diagonals", "count", _count(d, "jwc.jwc_integrated_covariance", "floored")),
        ("bootstrap.statistic_s", "s", statistic_s),
        ("bootstrap.statistic_p50_s", "s", percentile(stat_durs, 50)),
        ("bootstrap.statistic_ptail_s", "s", stat_tail),
        ("bootstrap.self_s", "s", math.fsum(s.self_dur for s in stat)),
        ("bootstrap.day_share", "ratio", _ratio(statistic_s, process_day_s)),
        ("jwc.pair_entry_s", "s", pair_entry_s),
        ("jwc.pair_entry_reps", "count", reps),
        (
            "bootstrap.normals_drawn",
            "count",
            sum(s.counts["normals"] for s in stat if "jwc.jwc_pair_entry" in s.children),
        ),
        ("bootstrap.reps_per_s", "1/s", _ratio(reps, statistic_s)),
        ("bootstrap.tests", "count", tests),
        ("bootstrap.rejected", "count", rejected),
        ("bootstrap.inconclusive", "count", inconclusive),
        ("bootstrap.useful_frac", "ratio", _ratio(tests - inconclusive, tests)),
        ("pipeline.process_day_s", "s", process_day_s),
        ("pipeline.process_day_p50_s", "s", percentile(day_durs, 50)),
        ("pipeline.process_day_ptail_s", "s", day_tail),
        ("pipeline.process_day_self_s", "s", _total_self(d, "pipeline.process_day")),
        ("pipeline.days_processed", "count", len(day_durs)),
        ("pipeline.process_panels_s", "s", process_panels_s),
        ("pipeline.parallel_efficiency", "ratio", _ratio(process_day_s, jobs * process_panels_s)),
        ("pipeline.failures", "count", _count(m, "pipeline.process_panels", "failures")),
        ("pipeline.write_outputs_s", "s", math.fsum(writers)),
        (
            "events.report_s",
            "s",
            math.fsum(s.dur for s in m if s.name.startswith("events.") and s.parent == "cli.cmd_report"),
        ),
        ("trace.overhead_frac", "ratio", overhead),
        ("trace.coverage_frac", "ratio", coverage),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, unit, value in values}
    notes = {
        "bootstrap.statistic_ptail_s": {"percentile": stat_p, "samples": len(stat_durs)},
        "pipeline.process_day_ptail_s": {"percentile": day_p, "samples": len(day_durs)},
    }
    return metrics, notes


def top_level_seconds(stages: list) -> float:
    """Time covered by each stage's outermost spans."""
    return math.fsum(end - start for st in stages for _, start, end, parent, _ in st["spans"] if parent < 0)
