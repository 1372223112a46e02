"""Acceptance gate: run the packaged selftest once and assert every criterion.

The selftest is exercised through the CLI entry point so this also covers the
``qbat selftest`` interface; one line per criterion is echoed into the pytest
output.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qbat
from qbat import acceptance

CRITERIA = [f"AC-{i}" for i in range(1, 14)]


@pytest.fixture(scope="session")
def selftest():
    # the child imports the same qbat as this process, installed or not, and
    # fails on any numpy RuntimeWarning
    src = str(Path(qbat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qbat.cli", "selftest"],
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


def test_ac11_measures_the_stepper(monkeypatch):
    # a stepper that grows every state by 1e-6 must fail AC-11's unitarity
    # check, so that check is made on the stepper's own propagator
    stepper = acceptance.evolve_timedep

    def growing(*args, **kwargs):
        return SimpleNamespace(amplitudes=stepper(*args, **kwargs).amplitudes * (1 + 1e-6))

    assert acceptance.run_criterion(acceptance.ac11_integrator).passed
    monkeypatch.setattr(acceptance, "evolve_timedep", growing)
    result = acceptance.run_criterion(acceptance.ac11_integrator)
    assert not result.passed, result.details
