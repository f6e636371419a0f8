"""Source rules for src/landauer, checked with the standard library alone.

Invariants must survive `python -O`, so library code raises an error where
it would otherwise assert.  Every module-level import must be named by the
module that makes it; __init__.py is exempt, because it imports names only
to re-export them.  Every cache stays bounded: an lru_cache names its
maxsize as an int literal, and functools.cache wraps only functions that
take no parameters (one value per process).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "landauer").glob("*.py"))


def assert_lines(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that no expression in the module reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - named)


def unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of cache decorators that can grow without bound: lru_cache with
    no int-literal maxsize, or cache on a function that takes parameters."""
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "lru_cache":
                sizes = [k.value for k in getattr(dec, "keywords", ()) if k.arg == "maxsize"]
                sizes += getattr(dec, "args", [])[:1]
                if not any(isinstance(v, ast.Constant) and type(v.value) is int for v in sizes):
                    lines.append(dec.lineno)
            elif name == "cache":
                a = fn.args
                if a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg:
                    lines.append(dec.lineno)
    return lines


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_rules_see_the_package_and_catch_both_faults():
    assert {"__init__.py", "cli.py", "compress.py", "synth.py"} <= {p.name for p in SOURCES}
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import Callable, Sequence\n"
        "def f(x: Callable):\n    assert x\n    return np.zeros(1)\n"
    )
    assert assert_lines(tree) == [6]
    assert unused_imports(tree) == ["Sequence", "os"]


def test_the_cache_rule_catches_unbounded_caches():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\nN = 8\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x): pass\n"
        "@lru_cache(4)\ndef b(x): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef d(x): pass\n"
        "@lru_cache\ndef e(x): pass\n"
        "@lru_cache(maxsize=N)\ndef f(x): pass\n"
        "@functools.cache\ndef g(x): pass\n"
        "class K:\n    @cache\n    def h(self): pass\n"
    )
    assert unbounded_caches(tree) == [10, 12, 14, 16, 19]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    lines = unbounded_caches(parse(path))
    assert not lines, f"{path.name}: unbounded cache on lines {lines}; give lru_cache a literal maxsize"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(parse(path))
    assert not lines, f"{path.name}: assert on lines {lines}; raise an error instead"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_module_level_import_is_named(path):
    unused = unused_imports(parse(path))
    assert not unused, f"{path.name}: imported but never named: {unused}"
