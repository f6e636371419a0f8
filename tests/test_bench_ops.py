"""One mix cycle of every benchmark workload, checked against bench/expected.json.

A kernel change that moves any output of a benchmark op fails here, in the
tier-1 suite, instead of only when the benchmark runs.  bench/run.py and
bench/workloads.py are imported read-only, as bench/test_bench.py imports
them; importing run.py pins thread variables and drops LANDAUER_MAX_WIDTH,
so the environment is put back afterwards.
"""

import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    saved = dict(os.environ)
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        os.environ.clear()
        os.environ.update(saved)
    return run, workloads


@pytest.mark.parametrize("name", ["sweep", "codec", "blocks", "cli"])
def test_one_mix_cycle_matches_the_expected_digests(bench, name, tmp_path, monkeypatch):
    run, workloads = bench
    monkeypatch.delenv("LANDAUER_MAX_WIDTH", raising=False)  # the benchmark's ceiling
    wl = workloads.WORKLOADS[name]
    runner = workloads.Runner(wl, 0, tmp_path, run.load_expected())
    for j in range(len(wl.mix)):
        runner.execute(j)
    assert runner.failures == []
    assert runner.attempted == len(wl.mix)
