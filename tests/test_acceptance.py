"""Acceptance gate: run the packaged selftest once and assert every criterion.

The selftest is exercised through the CLI entry point so this also covers the
``qbat selftest`` interface; one line per criterion is echoed into the pytest
output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbat

CRITERIA = [f"AC-{i}" for i in range(1, 14)]


@pytest.fixture(scope="session")
def selftest():
    # the child imports the same qbat as this process, installed or not
    src = str(Path(qbat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qbat.cli", "selftest"],
        capture_output=True, text=True, timeout=600, check=False, env=env,
    )
    lines = {}
    for line in proc.stdout.splitlines():
        token = line.split(" ", 1)[0]
        if token in CRITERIA:
            lines[token] = line
    return proc, lines


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(selftest, name):
    proc, lines = selftest
    assert name in lines, f"{name} missing from selftest output:\n{proc.stdout}"
    line = lines[name]
    print(line)
    assert f"{name} PASS" in line, line


def test_selftest_reports_every_criterion(selftest):
    _, lines = selftest
    assert sorted(lines) == sorted(CRITERIA)


def test_selftest_exit_code(selftest):
    proc, _ = selftest
    assert proc.returncode == 0, proc.stdout + proc.stderr
