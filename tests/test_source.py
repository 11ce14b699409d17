"""Source guard: every public definition under src/cojump is reached from src/."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cojump"
# the reference transform: only tests call it, to check the closed forms against
EXEMPT_MODULES = {"modwt"}


def _names(node) -> Counter:
    """How often each name is read as a Name or an attribute inside ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_is_reached_from_src():
    """A public top-level function or class that only tests reach is dead code."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    checked, unreached = [], []
    for module, tree in trees.items():
        if module in EXEMPT_MODULES:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            checked.append(f"{module}.{node.name}")
            if used[node.name] - _names(node)[node.name] <= 0:
                unreached.append(checked[-1])
    assert "pipeline.process_day" in checked
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
