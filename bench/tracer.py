"""Span recorder for the traced benchmark run.

Runs one ``cojump`` CLI stage in this process after replacing every
public function of the traced modules with a wrapper that records a
span ``[name, start, end, parent, counts]``. ``parent`` is the index of
the enclosing span (-1 at top level); ``counts`` holds the work counts a
few functions report through their return value. Spans stay in memory
and are written as JSON when the stage returns. Nothing under ``src/``
is edited: only module attributes of this process are replaced.

Usage: python bench/tracer.py SPANS.json <cojump cli arguments...>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "sim", "ticks", "modwt", "jumps", "jwc", "bootstrap", "pipeline", "events")


# Work counts taken from return values at the layer boundary.
COUNTS = {
    "ticks.parse_ticks": lambda a, out: {"rows": out.total_rows, "rejected": out.rejected},
    "ticks.build_panels": lambda a, out: {"dropped": len(out[1])},
    "jumps.detect_jumps": lambda a, out: {"flagged": out.count},
    "jwc.jwc_integrated_covariance": lambda a, out: {"floored": int(out.floored.sum())},
    "jwc.jwc_pair_entry": lambda a, out: {"reps": int(out.size)},
    "bootstrap.bootstrap_statistic": lambda a, out: {
        "rejected": int(out.rejected),
        "inconclusive": int(out.inconclusive),
        "normals": 2 * out.b_reps * len(a[0]),
    },
    "pipeline.process_panels": lambda a, out: {"failures": len(out[1])},
}


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if count is not None:
                span[4] = count(args, out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of every traced module."""
        for short in MODULES:
            module = importlib.import_module(f"cojump.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                setattr(module, attr, self.wrap(name, obj, COUNTS.get(name)))
        cli = sys.modules["cojump.cli"]
        # main dispatches through this table, which holds the unwrapped commands
        cli.COMMANDS = {key: getattr(cli, fn.__name__) for key, fn in cli.COMMANDS.items()}


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from cojump import cli

    rc = cli.main(cli_args)
    with open(spans_path, "w") as handle:
        json.dump({"rc": rc, "spans": recorder.spans}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
