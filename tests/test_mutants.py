"""The mutant registry of tools/mutants.py stays current.

Running the mutants takes minutes, so tier-1 checks the registry alone:
every mutant has its own id, its old text occurs exactly once in its file
under src/landauer/, and every test it names is one pytest collects.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_edits_one_place_under_its_own_id():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)
    counts = {m.id: mutants.occurrences(m) for m in mutants.MUTANTS}
    assert {i: count for i, count in counts.items() if count != 1} == {}
    assert all(m.old != m.new and m.tests for m in mutants.MUTANTS)


def test_every_named_test_exists(uncollected):
    assert uncollected(sorted({t for m in mutants.MUTANTS for t in m.tests})) == []
