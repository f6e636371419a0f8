"""Statements of src/landauer that no test runs.

Runs the tier-1 suite in this process under a sys.settrace line collector
limited to src/landauer/, then prints, one per line as `path:line: source`,
every executable statement that never ran.  A statement is executable when
its first lines (a compound statement's header, a simple statement whole)
carry bytecode; it ran when a line event fired on one of them.  What an
`if TYPE_CHECKING:` block holds never runs by design and is left out.
Hypothesis runs with --hypothesis-seed=0, so its draws, and with them the
statements listed, are the same from run to run.  Standard library only,
besides pytest itself.

The trace slows the suite several-fold (minutes, not seconds), so this is
a tool run on demand, not a tier-1 test:

    python tools/coverage.py            # the whole tier-1 suite
    python tools/coverage.py -k cli     # extra arguments go to pytest

Exits with pytest's status when the suite fails, else 1 when any statement
ran in no test, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "landauer"


def statement_heads(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line of each statement's head: a compound statement's
    lines up to its body, decorators included; a simple statement whole."""
    typing_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            typing_only |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    heads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in typing_only:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        heads.append((first, max(first, last)))
    return heads


def code_lines(code) -> set[int]:
    """Every line that carries bytecode in code and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def unrun(path: Path, ran: set[int]) -> list[int]:
    source = path.read_text(encoding="utf-8")
    compiled = code_lines(compile(source, str(path), "exec"))
    missed = []
    for first, last in statement_heads(ast.parse(source)):
        head = set(range(first, last + 1))
        if head & compiled and not head & ran:
            missed.append(first)
    return sorted(missed)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):  # a call: trace lines only in the package's frames
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    os.chdir(ROOT)  # pytest finds pyproject.toml and its testpaths from here
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in unrun(path, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            total += 1
    print(f"{total} statements of src/landauer ran in no test")
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
