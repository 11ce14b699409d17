"""Shared test helpers and the acceptance-criteria summary hook."""

import hashlib

import numpy as np

from cojump import cli, spec

_CRITERIA: dict = {}


def record_criterion(num: int, name: str, ok: bool) -> None:
    """Register one acceptance criterion outcome for the terminal summary."""
    prev_name, prev_ok = _CRITERIA.get(num, (name, True))
    _CRITERIA[num] = (name, prev_ok and ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        name, ok = _CRITERIA[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"CRITERION {num:2d} {verdict} - {name}")


def _entropy(part) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "big")
    return int(part)


def seeded(*key) -> np.random.Generator:
    """One reproducible generator per structured key (strings allowed)."""
    return np.random.default_rng(np.random.SeedSequence([_entropy(k) for k in key]))


def estimator(n: int, **keys):
    """The estimator resolved on N intervals, ``keys`` replacing the config's defaults."""
    block = {key: default for key, (_, default) in cli.CONFIG["estimator"][0].items()}
    return spec.resolve_jwc(**{**block, **keys}, n=n)
