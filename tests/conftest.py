"""Fixtures shared by the test modules."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def uncollected():
    """A function giving the names, of those it is given, that name no test
    pytest collects: a node id collected as is or with parameters.  The
    suite is collected once per session, in one `pytest --collect-only`,
    for the mutant registry and the claim map alike."""
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    collected = set(proc.stdout.splitlines())
    bases = {c.partition("[")[0] for c in collected}
    return lambda tests: [t for t in tests if t not in collected and t not in bases]
