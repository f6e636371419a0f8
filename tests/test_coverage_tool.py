"""tools/coverage.py fails a run that leaves a statement of src/landauer
unrun, so the coverage gate catches slipped coverage, not only a failing
suite.  One narrow run takes a few seconds; the full run stays on demand.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_run_that_leaves_statements_unrun_exits_1():
    argv = [sys.executable, str(ROOT / "tools" / "coverage.py"), "-k", "test_every_mutant_edits_one_place_under_its_own_id"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert re.search(r"^1 passed", proc.stdout, re.M), proc.stdout[-2000:] + proc.stderr[-2000:]
    assert re.search(r"^[1-9]\d* statements of src/landauer ran in no test$", proc.stdout, re.M)
    assert proc.returncode == 1
