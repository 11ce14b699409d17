"""End-to-end benchmark of the cojump command line.

Runs one workload as a user does: every stage is its own
``python -m cojump.cli <stage>`` process, and the next stage starts
when the previous one exits (a closed loop, one chain at a time). The
chain repeats until ``--seconds`` of chain time are measured. Every
repeat's outputs are checked against the generators' truth, outside the
timed region. With ``--trace 1`` the stages run instead under
``tracer.py`` and the per-layer metrics of ``layers.py`` are reported.

    python3 bench/run.py --workload chain-b999 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its sample count and quartiles. A full record,
with the environment block, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every stage process.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# (stage, --jobs) in chain order
WORKLOADS = {
    "chain-b999": (("simulate", None), ("decompose", 1), ("report", None)),
    "golden-jobs2": (("simulate", None), ("decompose", 2), ("report", None)),
    "ingest-5s": (("ingest", None),),
}
SETUP_PER_REPEAT = 2  # timed fresh-interpreter set-ups before each chain repeat
SETUP_MIN = 7  # topped up after the last repeat
STAGE_TIMEOUT = 170.0
SETUP_CODE = "import sys, cojump.cli as c; c.load_config(sys.argv[1], {})"
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "simulate_s": "s",
    "decompose_s": "s",
    "report_s": "s",
    "ingest_s": "s",
    "day_pairs_per_s": "1/s",
    "tick_rows_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "false_cojump_pairs": "count",
    "missed_cojump_pairs": "count",
}


class NotRunnable(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def preflight(workload: str) -> None:
    need = [ROOT / "src" / "cojump" / "cli.py"]
    if workload == "golden-jobs2":
        golden = ROOT / "tests" / "golden"
        need += [golden / "config.json", golden / "scenario.txt"]
        need += [golden / "expected" / name for name in checks.REPORT_TABLES]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.is_file()]
    if missing:
        raise NotRunnable(f"missing from the checkout: {', '.join(missing)}")


def stage_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pid: int) -> None:
    """Kill a stage that overran, with its pool workers."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd: list, log: Path) -> tuple:
    """(wall seconds, exit code, max RSS in MiB of the process and its workers)."""
    with open(log, "ab") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=stage_env(), stdout=handle, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(STAGE_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def cli_args(stage: str, config: Path, out: Path, jobs) -> list:
    args = [stage, "--config", str(config), "--output", str(out)]
    return args + (["--jobs", str(jobs)] if jobs else [])


def run_chain(stages, config: Path, out: Path, log: Path, spans_dir: Path | None = None) -> dict:
    """Run the stages in order, each in a fresh process; stop at a failed stage."""
    records = []
    start = time.perf_counter()
    for stage, jobs in stages:
        args = cli_args(stage, config, out, jobs)
        if spans_dir is None:
            cmd = [sys.executable, "-m", "cojump.cli"] + args
        else:
            spans = spans_dir / f"{stage}-jobs{jobs or 1}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans)] + args
        seconds, rc, rss = run_process(cmd, log)
        record = {"stage": stage, "jobs": jobs or 1, "wall_s": seconds, "rc": rc, "rss_mib": rss}
        if spans_dir is not None and rc == 0:
            record["spans"] = json.loads(spans.read_text())["spans"]
        records.append(record)
        if rc != 0:
            break
    return {"wall_s": time.perf_counter() - start, "stages": records,
            "ok": len(records) == len(stages) and all(r["rc"] == 0 for r in records)}


def judge(workload: str, chain: dict, out: Path, inputs: Path, truth: dict) -> set:
    """Failed days of one chain run: every day when a stage exited nonzero."""
    failed = checks.check(workload, out, inputs) if chain["ok"] else {checks.ALL}
    return set(truth["dates"]) if checks.ALL in failed else failed & set(truth["dates"])


def prepare(workload: str, inputs: Path, seed: int) -> dict:
    """Generate the inputs in a child process and return their truth.

    A child's max RSS starts at its parent's peak, so this process keeps
    its own memory small by leaving the generation to a child.
    """
    subprocess.run([sys.executable, str(BENCH / "gen.py"), workload, str(inputs), str(seed)], check=True)
    return json.loads((inputs / "truth.json").read_text())


def summary(values: list) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(config: Path, log: Path, reps: int) -> tuple:
    """(seconds of each fresh-interpreter set-up, whether every one exited 0)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(config)]
    runs = [run_process(cmd, log) for _ in range(reps)]
    return [seconds for seconds, _, _ in runs], all(rc == 0 for _, rc, _ in runs)


def timed_run(workload: str, work: Path, seed: int, seconds: float) -> dict:
    """Repeat the untraced chain for ``seconds`` and summarise every metric."""
    inputs = work / "inputs"
    truth = prepare(workload, inputs, seed)
    log = work / "stages.log"
    config = inputs / "config.json"
    _, setup_ok = measure_setup(config, log, 1)  # warm-up: writes the bytecode cache
    samples: dict = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    digests, identical, failed_days = set(), [], set()
    failed = attempted = 0
    measured = 0.0
    while not samples["wall_s"] or measured < seconds:
        # set-ups are spread between repeats so they sample the whole run
        setup, ok = measure_setup(config, log, SETUP_PER_REPEAT)
        samples["setup_s"] += setup
        setup_ok = setup_ok and ok
        out = work / f"out{len(samples['wall_s'])}"
        chain = run_chain(WORKLOADS[workload], config, out, log)
        measured += chain["wall_s"]
        samples["wall_s"].append(chain["wall_s"])
        samples["peak_rss_mb"].append(max(r["rss_mib"] for r in chain["stages"]))
        by_stage = {r["stage"]: r["wall_s"] for r in chain["stages"]}
        for stage, stage_s in by_stage.items():
            samples.setdefault(f"{stage}_s", []).append(stage_s)
        bad = judge(workload, chain, out, inputs, truth)
        attempted += len(truth["dates"])
        failed += len(bad)
        failed_days |= bad
        digests.add(checks.tree_digest(out))
        if "decompose" in by_stage and (out / "decompositions.csv").exists():
            rows = len(checks.read_rows(out / "decompositions.csv"))
            samples.setdefault("day_pairs_per_s", []).append(rows / by_stage["decompose"])
        if "ingest" in by_stage:
            samples.setdefault("tick_rows_per_s", []).append(truth["rows"] / by_stage["ingest"])
        if workload == "golden-jobs2":
            identical.append(checks.identical_tables(out, Path(truth["expected_dir"])))
        if workload == "chain-b999" and chain["ok"]:
            false_cj, missed_cj = checks.cojump_confusion(out, truth)
            samples.setdefault("false_cojump_pairs", []).append(false_cj)
            samples.setdefault("missed_cojump_pairs", []).append(missed_cj)
        shutil.rmtree(out, ignore_errors=True)
    setup, ok = measure_setup(config, log, max(0, SETUP_MIN - len(samples["setup_s"])))
    samples["setup_s"] += setup
    setup_ok = setup_ok and ok
    detail = {name: dict(summary(vals), unit=UNITS[name]) for name, vals in samples.items()}
    detail["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "n": attempted}
    if identical:
        detail["golden_tables_identical"] = {"value": min(identical), "unit": "count_of_5", "n": len(identical)}
    return {
        "correct": setup_ok and failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": detail[name]["median"], "unit": UNITS[name]} for name in END_TO_END},
        "detail": detail,
        "failed_days": sorted(failed_days),
        "output_digests": sorted(digests),
    }


def traced_run(workload: str, work: Path, seed: int) -> dict:
    """One traced chain, one untraced chain, and the per-layer metrics."""
    inputs = work / "inputs"
    truth = prepare(workload, inputs, seed)
    log = work / "stages.log"
    config = inputs / "config.json"
    spans_dir = work / "spans"
    spans_dir.mkdir()
    stages = WORKLOADS[workload]
    jobs = max(j or 1 for _, j in stages)
    traced = run_chain(stages, config, work / "traced", log, spans_dir)
    plain = run_chain(stages, config, work / "plain", log)
    bad = judge(workload, traced, work / "traced", inputs, truth)
    bad |= judge(workload, plain, work / "plain", inputs, truth)
    digests = {checks.tree_digest(work / "traced"), checks.tree_digest(work / "plain")}
    main = [r for r in traced["stages"] if "spans" in r]
    perday = main
    if jobs > 1 and traced["ok"]:
        # pool workers return no spans: trace a --jobs 1 pass over the same panels
        shutil.copytree(work / "traced" / "panels", work / "perday" / "panels")
        single = run_chain((("decompose", 1),), config, work / "perday", log, spans_dir)
        perday = [r for r in single["stages"] if "spans" in r]
        same = single["ok"] and all(
            (work / "perday" / name).read_bytes() == (work / "traced" / name).read_bytes()
            for name in checks.DECOMPOSE_FILES
        )
        if not same:
            bad |= set(truth["dates"])
    overhead = coverage = 0.0
    if traced["ok"]:
        traced_s = sum(r["wall_s"] for r in main)
        overhead = traced_s / sum(r["wall_s"] for r in plain["stages"]) - 1.0
        coverage = layers.top_level_seconds(main) / traced_s
    metrics, notes = layers.derive(main, perday, jobs, overhead, coverage)
    if workload == "ingest-5s":
        counts = {"ticks.parse_rows": truth["rows"], "ticks.rows_rejected": truth["rejected"],
                  "ticks.days_dropped": len(truth["drop_log"])}
        if any(metrics[name]["value"] != want for name, want in counts.items()):
            bad |= set(truth["dates"])
    return {
        "correct": not bad and len(digests) == 1 and traced["ok"],
        "attempted": len(truth["dates"]),
        "failed": len(bad),
        "metrics": metrics,
        "detail": notes,
        "failed_days": sorted(bad),
        "output_digests": sorted(digests),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(workload: str, result: dict, trace: bool) -> list:
    lines = [f"== {workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"]
    if trace:
        for name, item in result["metrics"].items():
            note = result["detail"].get(name)
            extra = f"  p{note['percentile']} of n={note['samples']}" if note else ""
            lines.append(f"{name:32s} {_fmt(item['value']):>12s} {item['unit']}{extra}")
        return lines
    for name, item in result["detail"].items():
        if "median" in item:
            lines.append(
                f"{name:24s} {_fmt(item['median']):>12s} {item['unit']:<6s} "
                f"n={item['n']} q1={_fmt(item['q1'])} q3={_fmt(item['q3'])}"
            )
        else:
            lines.append(f"{name:24s} {_fmt(item['value']):>12s} {item['unit']:<6s} n={item['n']}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    preflight(workload)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = traced_run(workload, work, seed) if trace else timed_run(workload, work, seed, seconds)
    finally:
        if (work / "stages.log").exists():
            shutil.copyfile(work / "stages.log", results / f"{tag}.log")
        shutil.rmtree(work, ignore_errors=True)
    record = dict(workload=workload, seconds=seconds, trace=int(trace), environment=environment(seed), **result)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("\n".join(report_lines(workload, result, trace)))
    last = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace))
    except NotRunnable as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
