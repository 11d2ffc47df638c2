"""Shared pytest hooks: replay acceptance report lines after the run.

Passing tests have their stdout captured, so the per-criterion report lines
emitted by tests/test_acceptance.py are collected here and written into the
terminal summary, where they are visible without -s.  `checkout_env` serves
the tests that run this checkout in a child interpreter.
"""

import os
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE_LINES: list[str] = []


def checkout_env() -> dict:
    """This process's environment with the checkout's `src` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance report")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
