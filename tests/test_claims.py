"""The claim map in CLAIMS.md stays current.

Each row of its table names a paper result, the functions that compute
it, the CLI subcommands that reach it, and the goldens, acceptance
criteria and tests that pin it.  These tests check that the table has a
row for each result PAPER.md states, and that every cited name exists:
each function is an attribute of its landauer module, each subcommand is
one `build_parser` defines, each golden is a file in tests/golden, each
criterion number has its test in the acceptance suite, and each test is
one pytest collects.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from landauer import cli

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ["Result", "Functions", "CLI", "Goldens", "Criteria", "Tests"]
RESULTS = [
    "Erasure cost is tied to work value",
    "Erasure cost is essentially the length of the best compression by a reversible computation",
    "Free-energy bounds hold for a general computation",
    "The second law reads as logical reversibility",
    "The law has simulation resilience",
]


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _names(cell: str) -> list[str]:
    """The backticked names of a cell; "none" for a cell that cites none."""
    names = re.findall(r"`([^`]+)`", cell)
    assert names or cell == "none", cell
    return names


def claim_rows() -> dict[str, dict[str, str]]:
    lines = (ROOT / "CLAIMS.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| " + " | ".join(COLUMNS) + " |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = _cells(line)
        assert len(cells) == len(COLUMNS), line
        rows[cells[0]] = dict(zip(COLUMNS, cells))
    return rows


ROWS = claim_rows()


def test_every_result_of_the_paper_has_a_row():
    assert [r for r in RESULTS if r not in ROWS] == []


@pytest.mark.parametrize("result", ROWS)
def test_every_cited_function_subcommand_golden_and_criterion_exists(result):
    row = ROWS[result]
    missing = []
    for name in _names(row["Functions"]):
        module, _, attr = name.partition(".")
        if not hasattr(importlib.import_module(f"landauer.{module}"), attr):
            missing.append(name)
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing += [name for name in _names(row["CLI"]) if name not in commands.choices]
    missing += [name for name in _names(row["Goldens"]) if not (ROOT / "tests" / "golden" / name).is_file()]
    suite = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    criteria = {int(m[1]) for node in suite.body if (m := re.match(r"test_criterion_(\d+)_", getattr(node, "name", "")))}
    if row["Criteria"] != "none":
        missing += [n for n in row["Criteria"].split(", ") if not n.isdigit() or int(n) not in criteria]
    assert missing == []


def test_every_cited_test_exists(uncollected):
    assert uncollected(sorted({t for row in ROWS.values() for t in _names(row["Tests"])})) == []
