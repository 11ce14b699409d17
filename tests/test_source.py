"""Source guards: every public definition under src/cojump is reached from src/, stages
load only what they use, bench/tracer.py still reads its counts from src/, and the README
names every config key and every stage's flags."""

import ast
import datetime as dt
import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cojump import events, spec

SRC = Path(__file__).resolve().parents[1] / "src" / "cojump"
README = (SRC.parents[1] / "README.md").read_text()
# the reference transform: only tests call it, to check the closed forms against
EXEMPT_MODULES = {"modwt"}


def _names(node) -> Counter:
    """How often each name is read as a Name or an attribute inside ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """(dotted name, node) of each public top-level function or class, a named-tuple record
    included, and of each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and \
                _names(node.value.func)["namedtuple"]:  # a record class made by a call
            name = node.targets[0].id
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name.startswith("_"):
            continue
        yield name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def test_every_public_definition_is_reached_from_src():
    """A public top-level function or class, a named-tuple record included, or a public
    method or property of a public class, that only tests reach is dead code."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    checked, unreached = [], []
    for module, tree in trees.items():
        if module in EXEMPT_MODULES:
            continue
        for dotted, node in _public_definitions(tree):
            name = dotted.rpartition(".")[2]
            checked.append(f"{module}.{dotted}")
            if used[name] - _names(node)[name] <= 0:
                unreached.append(checked[-1])
    assert {"pipeline.process_day", "events.LogitResult", "spec.JwcConfig.resolve",
            "ticks.ReturnPanel.series"} <= set(checked)
    assert unreached == [], f"reached from no src/ code outside their own body: {unreached}"


def test_cli_import_loads_no_process_pool_or_openssl():
    """``import cojump.cli`` leaves the process pool, OpenSSL and the modules of the
    stages after ingest to the stages that use them."""
    modules = ["concurrent.futures.process", "multiprocessing", "_hashlib", "cojump.bootstrap",
               "cojump.events", "cojump.pipeline", "cojump.sim"]
    probe = f"import sys, cojump.cli; print([m for m in {modules!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_front_end_and_report_load_no_numpy(tmp_path):
    """Reading a config, failing on one, and a whole ``report`` run load neither numpy nor
    the modules that run on it: the front end and the report stage need no array code.
    They load no ``dataclasses`` or ``inspect`` either: their records are named tuples, as
    ``inspect``, with its ``ast``, ``dis`` and ``tokenize``, makes that start-up about a
    third slower."""
    from test_cli import _write_config

    from cojump import cli

    cfg, bad = str(_write_config(tmp_path)), str(_write_config(tmp_path, "bad.json", seed=-1))
    for stage in (["simulate"], ["decompose", "--jobs", "1"]):
        assert cli.main([*stage, "--config", cfg]) == cli.EXIT_OK
    golden = str(SRC.parents[1] / "tests" / "golden" / "config.json")
    modules = ["numpy", "cojump.ticks", "cojump.jwc", "dataclasses", "inspect"]
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    for run, code in ((f"c.load_config({golden!r}, {{}}); code = 0", 0),
                      (f"code = c.main(['decompose', '--config', {bad!r}])", cli.EXIT_CONFIG),
                      (f"code = c.main(['report', '--config', {cfg!r}])", cli.EXIT_OK)):
        probe = (f"import sys, cojump.cli as c; {run}; "
                 f"print(code, [m for m in {modules!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == f"{code} []", (run, out.stdout, out.stderr)


RECORDS = {  # each numpy-free record: a valid instance and one of its fields
    "SessionSpec": (lambda: spec.SessionSpec(dt.time(7), dt.time(16), "America/Chicago", 60),
                    "sampling_interval"),
    "TradingCalendar": (lambda: spec.TradingCalendar(frozenset({dt.date(2017, 3, 16)}), 0.5),
                        "excluded_dates"),
    "JwcConfig": (lambda: spec.JwcConfig(g_spacing=5), "g_spacing"),
    "ResolvedJwc": (lambda: spec.JwcConfig(g_spacing=5).resolve(540), "n"),
    "DayDecomposition": (lambda: events.DayDecomposition(
        dt.date(2017, 3, 13), ("TU", "FV"), 2.0, 1.5, 0.5, "co_jump", events=(3, 7),
        corr_total=0.5, corr_cont=0.4, z=2.5, p_value=0.01, rejected=True, seed=12345), "cj"),
    "RegressionResult": (lambda: events.correlation_impact_regression(
        [0.1, 0.5, 0.3, 0.9], [0.2, 0.4, 0.35, 0.8]), "beta"),
    "LogitResult": (lambda: events.announcement_logit(
        [1, 0, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1]), "beta1"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_hashable_and_pickle(name):
    """Each record keeps a frozen dataclass's contract: a field cannot be assigned (an
    AttributeError, as FrozenInstanceError is), equal records hash equal, and a pickle
    round trip, which carries the estimator settings to the pool's workers, gives an equal
    record of the same type."""
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    again = make()
    assert again == record and hash(again) == hash(record)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_pool_parent_loads_no_numpy_random(tmp_path):
    """``decompose --jobs 2`` over three days leaves numpy.random, and OpenSSL with it, to the
    pool's workers: the parent draws nothing, and each day-pair's stream seed comes back on
    its record. numpy.random and OpenSSL took about 6 MiB of peak RSS when loaded there."""
    from test_cli import _write_config

    from cojump import cli

    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, numpy; print('numpy.random' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    if loaded.stdout.strip() != "False":
        pytest.skip("import numpy alone loads numpy.random (numpy 1.x)")
    cfg = str(_write_config(tmp_path))  # a three-day scenario
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
    modules = ["concurrent.futures.process", "numpy.random", "_hashlib"]
    probe = ("import sys; from cojump import cli; "
             f"code = cli.main(['decompose', '--config', {cfg!r}, '--jobs', '2']); "
             f"print(code, [m for m in {modules!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0 ['concurrent.futures.process']", (out.stdout, out.stderr)


def test_no_stage_loads_numpy_ma(tmp_path):
    """No stage loads numpy.ma: np.unique without return_inverse, np.intersect1d and
    np.median import it (14 ms and 0.45 MiB) for arrays of a few elements."""
    from test_cli import _write_tick_config  # ticks and a scenario for the same two legs

    cfg = str(_write_tick_config(tmp_path))
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    for stage in (["ingest"], ["simulate"], ["decompose", "--jobs", "1"], ["report"]):
        probe = ("import sys; from cojump import cli; "
                 f"code = cli.main({[*stage, '--config', cfg]!r}); "
                 "print(code, 'numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "False"], (stage, out.stdout, out.stderr)


def test_tracer_reads_its_counts_from_every_stage(tmp_path):
    """bench/tracer.py, run unchanged over ingest, simulate, decompose and report, finds
    every function it counts and reads a count from each one's return value."""
    from test_cli import _write_tick_config

    tracer_path = SRC.parents[1] / "bench" / "tracer.py"
    module_spec = importlib.util.spec_from_file_location("tracer", tracer_path)
    tracer = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracer)
    cfg = str(_write_tick_config(tmp_path))
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    counted = set()
    for stage in (["ingest"], ["simulate"], ["decompose", "--jobs", "1"], ["report"]):
        spans = tmp_path / f"{stage[0]}.json"
        out = subprocess.run([sys.executable, str(tracer_path), str(spans), *stage, "--config", cfg],
                             env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
        assert out.returncode == 0, (stage, out.stderr)
        counted |= {name for name, *_, counts in json.loads(spans.read_text())["spans"]
                    if counts and None not in counts.values()}
    assert sorted(set(tracer.COUNTS) - counted) == []


# Probes that name code src/ no longer has: each still reads 0, until the bench drops it
STALE_PROBES = {"modwt.level1_coefficients", "sim.panels_from_sim", "bootstrap.write_outcomes",
                "pipeline.write_"}


def test_bench_probes_name_src_functions():
    """Every span name that bench/layers.py reads, and every count of bench/tracer.py, is a
    public module-level function of its src/cojump module, so a rename cannot silently
    zero a probe. A prefix must start the name of one. The stale probes are the exception,
    and each of them must still be read and still name nothing."""
    bench = SRC.parents[1] / "bench"
    readers = {"_total", "_calls", "_count", "_durations", "_total_self"}
    probes, prefixes = set(), set()
    for node in ast.walk(ast.parse((bench / "layers.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in readers and isinstance(node.args[1], ast.Constant)):
            probes.add(node.args[1].value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "startswith" and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr in ("name", "parent")):
            prefixes.add(node.args[0].value)
        elif isinstance(node, ast.Compare):  # s.name == "..." or "..." in s.children
            sides = [node.left, *node.comparators]
            if any(isinstance(side, ast.Attribute) and side.attr in ("name", "parent", "children")
                   for side in sides):
                probes |= {side.value for side in sides
                           if isinstance(side, ast.Constant) and isinstance(side.value, str)}
    tracer = ast.parse((bench / "tracer.py").read_text())
    counts = next(node.value for node in tracer.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COUNTS"])
    probes |= {key.value for key in counts.keys}
    functions = {f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert "ticks.sample_last_tick" in probes and "pipeline.write_" in prefixes
    named = {p for p in probes if p in functions}
    named |= {p for p in prefixes if any(f.startswith(p) for f in functions)}
    assert sorted(STALE_PROBES - probes - prefixes) == [], "a stale probe is gone: drop it here"
    assert sorted(STALE_PROBES & named) == [], "a stale probe names code again: drop it here"
    assert sorted((probes | prefixes) - named - STALE_PROBES) == []


def _table_leaves(table, prefix=""):
    """(dotted key, default) of every leaf of a config table; "<name>" stands for any name."""
    for key, (spec, default) in table.items():
        if isinstance(spec, dict):
            yield from _table_leaves(spec, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", default


def test_readme_config_reference_lists_every_key_and_default():
    """The README's config reference and the loader's table name the same keys and defaults."""
    from cojump import cli

    reference = README.split("| key | default | value |\n")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", reference, re.M))

    def cell(default):
        if default is cli.REQUIRED:
            return "required"
        return "unset" if default is None else f"`{json.dumps(default)}`"

    assert rows == {key: cell(default) for key, default in _table_leaves(cli.CONFIG)}


def test_readme_synopsis_lists_every_stage_flag():
    """The README's command-line synopsis gives each stage exactly the flags that
    ``build_parser`` gives it."""
    from test_cli import stage_flags

    synopsis = README.split("## Command line\n")[1].split("```sh\n")[1].split("```")[0]
    listed = {}
    for stage, flags in re.findall(r"^cojump (\w+)(.*(?:\n {2,}.*)*)", synopsis, re.M):
        assert stage not in listed, f"{stage} is listed twice"
        listed[stage] = sorted(re.findall(r"--[a-z-]+", flags))
    assert listed == stage_flags()
